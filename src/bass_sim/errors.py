"""Exception types shared across the package."""


class BassError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(BassError, ValueError):
    """Invalid input values or violated type invariants."""


class ScenarioFormatError(ValidationError):
    """Scenario file could not be parsed or failed schema validation.

    The message names the offending entity id and field where applicable.
    """


class RecordsFormatError(ValidationError):
    """A records file could not be parsed or failed type validation."""


class BatchTooLargeError(BassError):
    """Request batch exceeds the exact solver's client cap.

    Exhaustive search is exponential in the number of clients; use the
    greedy solver for batches above the cap.
    """


class CapacityConflictError(BassError):
    """An allocation plan no longer fits the servers' current capacities."""

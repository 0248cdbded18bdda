"""Gain-matrix construction and the capacity-constrained matching solvers.

One scheduling round works on a request batch: every requesting client
contributes its candidate relay servers with measured gains, and a solver
picks at most one server per client so that the summed demands on each
server stay within its remaining capacity minus a safety reserve. The
objective is the total bandwidth gain of the chosen assignments; leaving a
client on its direct path is always allowed and contributes zero.

Two solvers are provided. `solve_exact` searches all assignments
(depth-first with an admissible bound, results identical to full
enumeration) and is capped at a small client count; `solve_greedy` scans
candidate pairs in globally descending gain order and is the production
path; `random_policy` is the uniform baseline both are compared against.
Determinism contract: identical inputs produce identical plans,
including tie-breaks (gain ties resolve by client id, then server id; equal
objectives resolve to the lexicographically smallest assignment vector).

Objectives are floats; every objective in this module is computed as the
running sum of chosen gains in client-id order, so equal plans always
produce bit-equal objectives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol, Sequence

from .errors import BatchTooLargeError, CapacityConflictError, ValidationError
from .model import AggregationServer, BBoxClient, GainEntry
from .seeding import rng_for

DEFAULT_EXACT_CAP = 12

# Absorbs summation-order ulps between a solver's internal bookkeeping and
# later validation; genuine conflicts differ by whole demands, not 1e-9.
_FEAS_SLACK = 1e-9

__all__ = [
    "PathOracle",
    "RequestBatch",
    "Assignment",
    "AllocationPlan",
    "AssignmentLedger",
    "measure_gains",
    "solve_exact",
    "solve_greedy",
    "random_policy",
    "DEFAULT_EXACT_CAP",
]


class PathOracle(Protocol):
    """Bandwidth measurements the scheduler needs from the network layer."""

    def subflow_bandwidths(self, client: BBoxClient, server: AggregationServer) -> list[float]: ...

    def server_origin_bandwidth(self, server: AggregationServer, origin_id: str) -> float: ...


@dataclass(frozen=True)
class RequestBatch:
    """All requests of one scheduling round.

    `entries` maps each requesting client to its candidate gain entries.
    Construction orders the clients by id and each client's candidates by
    gain descending, ties by server id ascending.
    """

    epoch_t: int
    entries: Mapping[str, tuple[GainEntry, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "entries",
            {
                cid: tuple(sorted(group, key=lambda e: (-e.gain_mbps, e.server_id)))
                for cid, group in sorted(self.entries.items())
            },
        )
        for client_id, group in self.entries.items():
            if not group:
                raise ValidationError(f"client {client_id!r} has an empty candidate list")
            server_ids = set()
            for entry in group:
                if entry.client_id != client_id:
                    raise ValidationError(
                        f"entry for client {entry.client_id!r} filed under {client_id!r}"
                    )
                if entry.server_id in server_ids:
                    raise ValidationError(
                        f"client {client_id!r} lists server {entry.server_id!r} twice"
                    )
                server_ids.add(entry.server_id)

    @classmethod
    def build(cls, epoch_t: int, entries: Mapping[str, Iterable[GainEntry]]) -> "RequestBatch":
        return cls(epoch_t=epoch_t, entries=entries)

    @property
    def n(self) -> int:
        """Number of requesting clients."""
        return len(self.entries)

    def client_ids(self) -> list[str]:
        return sorted(self.entries)


@dataclass(frozen=True)
class Assignment:
    """One chosen client-to-server pairing with its capacity demand."""

    server_id: str
    demand_mbps: float
    gain_mbps: float


@dataclass(frozen=True)
class AllocationPlan:
    """Solver output: at most one assignment per client, plus the objective."""

    assignments: Mapping[str, Assignment]
    objective_mbps: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignments", dict(sorted(self.assignments.items())))

    @staticmethod
    def objective_of(assignments: Mapping[str, Assignment]) -> float:
        """Canonical objective: running sum of gains in client-id order."""
        total = 0.0
        for client_id in sorted(assignments):
            total += assignments[client_id].gain_mbps
        return total

    @classmethod
    def from_assignments(cls, assignments: Mapping[str, Assignment]) -> "AllocationPlan":
        return cls(assignments=assignments, objective_mbps=cls.objective_of(assignments))


def measure_gains(
    client: BBoxClient,
    candidates: Sequence[AggregationServer],
    net: PathOracle,
    baseline: float,
) -> list[GainEntry]:
    """Measure one client's gain entry for every candidate server.

    The client-to-server bandwidth is the sum of its per-link subflows (each
    capped by that link's uplink); GainEntry caps it by the server's own
    path to the client's origin and subtracts `baseline`, the client's best
    single link on the direct path. Results keep the candidates' order;
    RequestBatch sorts them.
    """
    if not candidates:
        raise ValidationError(f"client {client.id!r}: candidate list must not be empty")
    entries = []
    for server in candidates:
        b_client_server = 0.0
        for subflow in net.subflow_bandwidths(client, server):
            b_client_server += subflow
        b_server_origin = net.server_origin_bandwidth(server, client.origin_id)
        entries.append(
            GainEntry(
                client_id=client.id,
                server_id=server.id,
                b_client_server_mbps=b_client_server,
                b_server_origin_mbps=b_server_origin,
                b_baseline_mbps=baseline,
            )
        )
    return entries


def _usable_capacity(
    batch: RequestBatch,
    capacities: Mapping[str, float],
    reserve_mbps: float,
) -> dict[str, float]:
    return {
        entry.server_id: capacities[entry.server_id] - reserve_mbps
        for group in batch.entries.values()
        for entry in group
    }


def solve_greedy(
    batch: RequestBatch,
    capacities: Mapping[str, float],
    reserve_mbps: float,
) -> AllocationPlan:
    """Greedy heuristic: take candidate pairs in global descending-gain order.

    A pair is taken iff its client is still unassigned, its gain is
    positive, and its demand fits the server's remaining usable capacity
    (remaining minus reserve, decremented as pairs are taken). Ties in gain
    break by client id, then server id.
    """
    usable = _usable_capacity(batch, capacities, reserve_mbps)
    pairs = [
        entry
        for group in batch.entries.values()
        for entry in group
        if entry.gain_mbps > 0.0
    ]
    pairs.sort(key=lambda e: (-e.gain_mbps, e.client_id, e.server_id))
    assignments: dict[str, Assignment] = {}
    for entry in pairs:
        if entry.client_id in assignments:
            continue
        if entry.b_via_mbps <= usable[entry.server_id]:
            assignments[entry.client_id] = Assignment(
                server_id=entry.server_id,
                demand_mbps=entry.b_via_mbps,
                gain_mbps=entry.gain_mbps,
            )
            usable[entry.server_id] -= entry.b_via_mbps
    return AllocationPlan.from_assignments(assignments)


def solve_exact(
    batch: RequestBatch,
    capacities: Mapping[str, float],
    reserve_mbps: float,
    *,
    client_cap: int = DEFAULT_EXACT_CAP,
) -> AllocationPlan:
    """Optimal assignment by exhaustive search over all feasible plans.

    Depth-first over clients in id order with an admissible upper bound for
    pruning; the bound carries a small slack so float rounding can never
    prune a plan that ties or beats the incumbent, which keeps the result
    identical to brute-force enumeration. Among equal-objective optima the
    lexicographically smallest assignment vector (client id, then server id,
    unassigned first) is returned. Raises BatchTooLargeError above
    `client_cap` clients; use the greedy solver there.
    """
    n = batch.n
    if n > client_cap:
        raise BatchTooLargeError(
            f"batch has {n} clients, above the exact-solver cap of {client_cap}; "
            "use solve_greedy for batches this size"
        )
    usable = _usable_capacity(batch, capacities, reserve_mbps)
    client_ids = batch.client_ids()
    # Positive-gain candidates only: a zero or negative gain can never beat
    # leaving the client unassigned, and unassigned wins the tie-break.
    options: list[list[GainEntry]] = [
        [e for e in batch.entries[cid] if e.gain_mbps > 0.0] for cid in client_ids
    ]

    # Admissible remaining-gain bound per suffix, with slack so rounding
    # errors cannot make it under-estimate.
    suffix_bound = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        best = max((e.gain_mbps for e in options[i]), default=0.0)
        suffix_bound[i] = suffix_bound[i + 1] + best
    suffix_bound_safe = [b + 1e-9 + 1e-12 * abs(b) for b in suffix_bound]

    # Seed the incumbent with the greedy objective; its plan is one of the
    # leaves below, so the search will recover a plan at least this good.
    best_objective = solve_greedy(batch, capacities, reserve_mbps).objective_mbps
    best_choices: list[GainEntry | None] | None = None
    best_key: tuple[str, ...] | None = None
    choices: list[GainEntry | None] = [None] * n

    def key_of(current: list[GainEntry | None]) -> tuple[str, ...]:
        return tuple("" if e is None else e.server_id for e in current)

    def dfs(i: int, objective: float) -> None:
        nonlocal best_objective, best_choices, best_key
        if objective + suffix_bound_safe[i] < best_objective:
            return
        if i == n:
            if objective > best_objective:
                best_objective = objective
                best_choices = choices.copy()
                best_key = key_of(choices)
            elif objective == best_objective:
                key = key_of(choices)
                if best_key is None or key < best_key:
                    best_choices = choices.copy()
                    best_key = key
            return
        # Highest gain first makes the bound bite early; ties keep the
        # batch's server-id order.
        for entry in options[i]:
            remaining = usable[entry.server_id]
            if entry.b_via_mbps <= remaining:
                usable[entry.server_id] = remaining - entry.b_via_mbps
                choices[i] = entry
                dfs(i + 1, objective + entry.gain_mbps)
                choices[i] = None
                usable[entry.server_id] = remaining
        dfs(i + 1, objective)  # leave client i unassigned

    dfs(0, 0.0)
    if best_choices is None:
        # The greedy plan is itself a leaf of this search and its path is
        # never pruned, so the search always adopts some plan.
        raise AssertionError("exact search finished without adopting a plan")
    assignments = {
        client_ids[i]: Assignment(
            server_id=entry.server_id,
            demand_mbps=entry.b_via_mbps,
            gain_mbps=entry.gain_mbps,
        )
        for i, entry in enumerate(best_choices)
        if entry is not None
    }
    return AllocationPlan.from_assignments(assignments)


def random_policy(
    batch: RequestBatch,
    capacities: Mapping[str, float],
    seed: int,
    reserve_mbps: float,
) -> AllocationPlan:
    """Baseline policy: assign each client a uniformly random candidate.

    Candidates that no longer fit the remaining usable capacity are skipped;
    the draw is uniform over the ones that fit at that moment, so every plan
    is feasible by construction. Gains are ignored (they may be negative).
    """
    usable = _usable_capacity(batch, capacities, reserve_mbps)
    rng = rng_for(seed, "random-policy")
    assignments: dict[str, Assignment] = {}
    for client_id in batch.client_ids():
        feasible = [e for e in batch.entries[client_id] if e.b_via_mbps <= usable[e.server_id]]
        if not feasible:
            continue
        entry = feasible[rng.randrange(len(feasible))]
        assignments[client_id] = Assignment(
            server_id=entry.server_id,
            demand_mbps=entry.b_via_mbps,
            gain_mbps=entry.gain_mbps,
        )
        usable[entry.server_id] -= entry.b_via_mbps
    return AllocationPlan.from_assignments(assignments)


class AssignmentLedger:
    """Active assignments plus the capacity bookkeeping derived from them.

    Owns the mutable server set for a simulation. Remaining capacity is
    never mutated incrementally: on every change it is recomputed from the
    server's initial remaining value by subtracting the recorded demands in
    application order. Releasing everything therefore restores the initial
    capacity vector bit-for-bit, and the recorded demands always replay to
    the current remaining value exactly.
    """

    def __init__(self, servers: Iterable[AggregationServer], reserve_mbps: float) -> None:
        self.reserve_mbps = reserve_mbps
        self.servers: dict[str, AggregationServer] = {}
        self._initial_remaining: dict[str, float] = {}
        self._per_server: dict[str, dict[str, float]] = {}
        for server in servers:
            self.servers[server.id] = server
            self._initial_remaining[server.id] = server.remaining_capacity_mbps
            self._per_server[server.id] = {}
        self._by_client: dict[str, Assignment] = {}

    def assignment_of(self, client_id: str) -> Assignment | None:
        return self._by_client.get(client_id)

    def active_assignments(self) -> dict[str, Assignment]:
        return dict(self._by_client)

    def demands_on(self, server_id: str) -> list[float]:
        """Recorded demands for one server, in application order."""
        return list(self._per_server[server_id].values())

    def initial_remaining(self, server_id: str) -> float:
        return self._initial_remaining[server_id]

    def _recompute(self, server_id: str) -> None:
        remaining = self._initial_remaining[server_id]
        for demand in self._per_server[server_id].values():
            remaining -= demand
        self.servers[server_id].remaining_capacity_mbps = remaining

    def apply(self, plan: AllocationPlan) -> None:
        """Record a plan's assignments and update remaining capacities.

        Validates the whole plan against current capacities first; a plan
        that no longer fits (stale capacities, double assignment) raises
        CapacityConflictError and nothing is applied.
        """
        trial: dict[str, float] = {}
        for client_id, assignment in plan.assignments.items():
            if client_id in self._by_client:
                raise CapacityConflictError(
                    f"client {client_id!r} already holds an assignment; release it first"
                )
            if assignment.server_id not in self.servers:
                raise ValidationError(f"plan references unknown server {assignment.server_id!r}")
            server_id = assignment.server_id
            remaining = trial.get(server_id, self.servers[server_id].remaining_capacity_mbps)
            demand = assignment.demand_mbps
            if demand > remaining - self.reserve_mbps + _FEAS_SLACK or demand > remaining:
                raise CapacityConflictError(
                    f"assignment of {demand!r} Mbit/s for client {client_id!r} does not fit "
                    f"server {server_id!r} (remaining {remaining!r}, reserve {self.reserve_mbps!r})"
                )
            trial[server_id] = remaining - demand
        for client_id, assignment in plan.assignments.items():
            self._by_client[client_id] = assignment
            self._per_server[assignment.server_id][client_id] = assignment.demand_mbps
        for server_id in {a.server_id for a in plan.assignments.values()}:
            self._recompute(server_id)

    def release(self, client_id: str) -> Assignment:
        """Return a client's capacity. Releasing twice or an unassigned client errors."""
        assignment = self._by_client.pop(client_id, None)
        if assignment is None:
            raise ValidationError(f"client {client_id!r} has no active assignment to release")
        del self._per_server[assignment.server_id][client_id]
        self._recompute(assignment.server_id)
        return assignment

    def release_all(self) -> None:
        """Return every client's capacity: each server is back at its initial value."""
        self._by_client.clear()
        for server_id, demands in self._per_server.items():
            demands.clear()
            self.servers[server_id].remaining_capacity_mbps = self._initial_remaining[server_id]


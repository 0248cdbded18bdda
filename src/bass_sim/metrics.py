"""Aggregation of epoch records into evaluation artifacts.

Produces hit-rate statistics and CDFs, bandwidth-gain multiplier
distributions (achieved over direct baseline), and the per-epoch objective
series. Multiplier statistics come in two flavors: `filtered` restricts to
client records that had at least one candidate server, `all` covers every
record with a live direct path. Clients whose direct path is dead
(baseline 0) have no defined multiplier and are only counted.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

from .codec import load_json, open_output, save_json
from .errors import RecordsFormatError, ValidationError
from .sim import EpochRecord

__all__ = [
    "SummaryReport",
    "SummaryFold",
    "cdf",
    "summarize",
    "emit_report",
    "per_client_rows",
    "write_rows_csv",
    "save_records",
    "load_records",
    "PER_CLIENT_COLUMNS",
]

PER_CLIENT_COLUMNS = (
    "policy",
    "epoch",
    "client_id",
    "server_id",
    "b_baseline_mbps",
    "b_achieved_mbps",
    "gain_mbps",
    "gamma",
)


def cdf(values: Iterable[float]) -> list[tuple[float, float]]:
    """Empirical CDF as (value, cumulative fraction) points.

    One point per distinct value, ascending; the last fraction is exactly 1.
    """
    return _cdf_of_sorted(sorted(values))


def _cdf_of_sorted(ordered: Sequence[float]) -> list[tuple[float, float]]:
    n = len(ordered)
    points: list[tuple[float, float]] = []
    for i, value in enumerate(ordered):
        if i + 1 < n and ordered[i + 1] == value:
            continue
        points.append((value, (i + 1) / n))
    return points


@dataclass(frozen=True)
class SummaryReport:
    """Aggregated outcome of one policy's simulation run."""

    policy: str
    epochs: int
    client_epochs: int
    records_with_candidates: int
    no_candidate_records: int
    dead_direct_records: int
    gamma_mean: float | None
    gamma_median: float | None
    gamma_fraction_one: float | None
    gamma_cdf: tuple[tuple[float, float], ...]
    multiplier_min: float | None
    multiplier_mean: float | None
    multiplier_max: float | None
    multiplier_cdf: tuple[tuple[float, float], ...]
    multiplier_mean_all: float | None
    objective_series: tuple[float, ...]


def _mean(values: Sequence[float]) -> float:
    try:
        return math.fsum(values) / len(values)
    except OverflowError:  # the sum of finite values overflowed, not their mean
        from statistics import mean  # it loads decimal and fractions: only when needed

        return mean(values)


def _median_of_sorted(ordered: Sequence[float]) -> float:
    """`statistics.median` of a list that is already sorted."""
    half = len(ordered) // 2
    return ordered[half] if len(ordered) % 2 else (ordered[half - 1] + ordered[half]) / 2


class SummaryFold:
    """What a summary reads of a run, taken one epoch at a time.

    `add` keeps no record: a run that hands it each epoch as the epoch ends
    holds only the values below, which grow with the client-epochs.
    """

    def __init__(self) -> None:
        self.client_epochs = self.with_candidates = 0
        self.hits = self.dead_direct = 0
        self.gammas: list[float] = []
        self.multipliers_filtered: list[float] = []
        self.multipliers_all: list[float] = []
        self.objectives: list[float] = []

    def add(self, record: EpochRecord) -> None:
        gammas, filtered, every = self.gammas, self.multipliers_filtered, self.multipliers_all
        hits = with_candidates = dead_direct = 0
        for c in record.clients:
            if c.gamma is not None:
                gammas.append(c.gamma)
            if c.chose_best:
                hits += 1
            if c.candidate_count > 0:
                with_candidates += 1
            if c.b_baseline_mbps > 0:
                multiplier = c.b_achieved_mbps / c.b_baseline_mbps
                every.append(multiplier)
                if c.candidate_count > 0:
                    filtered.append(multiplier)
            else:
                dead_direct += 1
        self.client_epochs += len(record.clients)
        self.hits += hits
        self.with_candidates += with_candidates
        self.dead_direct += dead_direct
        self.objectives.append(record.objective_mbps)

    def report(self, policy: str) -> SummaryReport:
        """The report of the epochs added so far. Call it once: it empties
        each value list once it has taken what it needs from it, so that the
        lists and the CDFs built from them are not all held at once."""
        gammas, filtered, every = self.gammas, self.multipliers_filtered, self.multipliers_all
        multiplier_mean_all = _mean(every) if every else None
        every.clear()
        gammas.sort()
        gamma_mean, gamma_median, gamma_fraction_one = (
            (_mean(gammas), _median_of_sorted(gammas), self.hits / len(gammas))
            if gammas else (None, None, None))
        gamma_cdf = tuple(_cdf_of_sorted(gammas))
        gammas.clear()
        filtered.sort()
        multiplier_min, multiplier_mean, multiplier_max = (
            (min(filtered), _mean(filtered), max(filtered)) if filtered else (None, None, None))
        multiplier_cdf = tuple(_cdf_of_sorted(filtered))
        filtered.clear()
        return SummaryReport(
            policy=policy,
            epochs=len(self.objectives),
            client_epochs=self.client_epochs,
            records_with_candidates=self.with_candidates,
            no_candidate_records=self.client_epochs - self.with_candidates,
            dead_direct_records=self.dead_direct,
            gamma_mean=gamma_mean,
            gamma_median=gamma_median,
            gamma_fraction_one=gamma_fraction_one,
            gamma_cdf=gamma_cdf,
            multiplier_min=multiplier_min,
            multiplier_mean=multiplier_mean,
            multiplier_max=multiplier_max,
            multiplier_cdf=multiplier_cdf,
            multiplier_mean_all=multiplier_mean_all,
            objective_series=tuple(self.objectives),
        )


def summarize(policy: str, records: Iterable[EpochRecord]) -> SummaryReport:
    """Fold a record stream into one report, in one walk over its client records."""
    fold = SummaryFold()
    for record in records:
        fold.add(record)
    return fold.report(policy)


def emit_report(report: SummaryReport, format: str, path) -> None:
    """Write a report as JSON or CSV. Same report, same bytes."""
    if format == "json":
        save_json(report, path)
    elif format == "csv":
        with open_output(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["key", "value"])
            for key in sorted(f.name for f in fields(report)):
                value = getattr(report, key)
                if key in ("gamma_cdf", "multiplier_cdf"):
                    value = ";".join(f"{v!r}:{f!r}" for v, f in value)
                elif key == "objective_series":
                    value = ";".join(map(repr, value))
                writer.writerow([key, value])
    else:
        raise ValidationError(f"unknown report format {format!r}; use 'csv' or 'json'")


def per_client_rows(policy: str, records: Iterable[EpochRecord]) -> Iterator[tuple]:
    """Flat per-client rows, their values in `PER_CLIENT_COLUMNS` order, as a
    generator (iterable once) that `write_rows_csv`'s writer consumes row by
    row. Past the policy and epoch, each column names its record field."""
    fields_of = attrgetter(*PER_CLIENT_COLUMNS[2:])
    return (
        (policy, record.epoch_t) + fields_of(c)
        for record in records
        for c in record.clients
    )


@contextmanager
def write_rows_csv(path) -> Iterator[Callable[[Iterable[tuple]], None]]:
    """Write the `PER_CLIENT_COLUMNS` header, then yield a function that
    writes rows under it as they come; csv writes None as an empty field."""
    with open_output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PER_CLIENT_COLUMNS)
        yield writer.writerows


@dataclass(frozen=True)
class _RecordsFile:
    """The layout of records.json. To write one, `epochs` may be any
    iterable: its key sorts first, so each epoch is written as it comes."""

    policy: str
    epochs: tuple[EpochRecord, ...]


def save_records(policy: str, records: Iterable[EpochRecord], path) -> None:
    """Write records.json, taking each epoch from `records` once, as it is written."""
    save_json(_RecordsFile(policy, records), path)


def load_records(path) -> tuple[str, list[EpochRecord]]:
    """Load and type-check a records.json; load(save(r)) == r."""
    data = load_json(_RecordsFile, path, "records", RecordsFormatError)
    return data.policy, list(data.epochs)

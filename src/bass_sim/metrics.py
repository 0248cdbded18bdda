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
from dataclasses import dataclass, fields
from statistics import median
from typing import Iterable, Iterator, Sequence

from .codec import load_json, open_output, save_json
from .errors import RecordsFormatError, ValidationError
from .sim import EpochRecord

__all__ = [
    "SummaryReport",
    "gain_multiplier",
    "cdf",
    "summarize",
    "emit_report",
    "load_report",
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


def gain_multiplier(b_achieved: float, b_baseline: float) -> float:
    """Achieved over baseline bandwidth. Undefined for a dead direct path."""
    if not (isinstance(b_baseline, (int, float)) and math.isfinite(b_baseline) and b_baseline > 0):
        raise ValidationError(f"b_baseline must be positive, got {b_baseline!r}")
    if not (isinstance(b_achieved, (int, float)) and math.isfinite(b_achieved) and b_achieved >= 0):
        raise ValidationError(f"b_achieved must be non-negative, got {b_achieved!r}")
    return b_achieved / b_baseline


def cdf(values: Sequence[float]) -> list[tuple[float, float]]:
    """Empirical CDF as (value, cumulative fraction) points.

    One point per distinct value, ascending; the last fraction is exactly 1.
    """
    if not values:
        raise ValidationError("cdf requires at least one value")
    ordered = sorted(values)
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

    def __post_init__(self) -> None:
        for points in (self.gamma_cdf, self.multiplier_cdf):
            for (v0, f0), (v1, f1) in zip(points, points[1:]):
                if not (v1 > v0 and f1 >= f0):
                    raise ValidationError("CDF points must be monotone non-decreasing")
            if points and points[-1][1] != 1.0:
                raise ValidationError("final CDF fraction must be exactly 1")


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def summarize(policy: str, records: Sequence[EpochRecord]) -> SummaryReport:
    """Fold a record stream into one report, in one walk over its client records."""
    gammas: list[float] = []
    multipliers_filtered: list[float] = []
    multipliers_all: list[float] = []
    client_epochs = with_candidates = hits = dead_direct = 0
    for record in records:
        client_epochs += len(record.clients)
        for c in record.clients:
            if c.gamma is not None:
                gammas.append(c.gamma)
            if c.chose_best:
                hits += 1
            if c.candidate_count > 0:
                with_candidates += 1
            if c.b_baseline_mbps > 0:
                multiplier = gain_multiplier(c.b_achieved_mbps, c.b_baseline_mbps)
                multipliers_all.append(multiplier)
                if c.candidate_count > 0:
                    multipliers_filtered.append(multiplier)
            elif c.b_baseline_mbps == 0:
                dead_direct += 1
    return SummaryReport(
        policy=policy,
        epochs=len(records),
        client_epochs=client_epochs,
        records_with_candidates=with_candidates,
        no_candidate_records=client_epochs - with_candidates,
        dead_direct_records=dead_direct,
        gamma_mean=_mean(gammas) if gammas else None,
        gamma_median=median(gammas) if gammas else None,
        gamma_fraction_one=(hits / len(gammas)) if gammas else None,
        gamma_cdf=tuple(cdf(gammas)) if gammas else (),
        multiplier_min=min(multipliers_filtered) if multipliers_filtered else None,
        multiplier_mean=_mean(multipliers_filtered) if multipliers_filtered else None,
        multiplier_max=max(multipliers_filtered) if multipliers_filtered else None,
        multiplier_cdf=tuple(cdf(multipliers_filtered)) if multipliers_filtered else (),
        multiplier_mean_all=_mean(multipliers_all) if multipliers_all else None,
        objective_series=tuple(record.objective_mbps for record in records),
    )


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


def load_report(path) -> SummaryReport:
    """Read back a JSON report; load(emit(r)) == r."""
    return load_json(SummaryReport, path, "report", ValidationError)


def per_client_rows(policy: str, records: Iterable[EpochRecord]) -> Iterator[tuple]:
    """Flat per-client rows, their values in `PER_CLIENT_COLUMNS` order, as a
    generator (iterable once) that `write_rows_csv` consumes row by row."""
    return (
        (policy, record.epoch_t, c.client_id, c.server_id, c.b_baseline_mbps,
         c.b_achieved_mbps, c.gain_mbps, c.gamma)
        for record in records
        for c in record.clients
    )


def write_rows_csv(rows: Iterable[tuple], path) -> None:
    """Write rows under the `PER_CLIENT_COLUMNS` header; csv writes None as an empty field."""
    with open_output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PER_CLIENT_COLUMNS)
        writer.writerows(rows)


@dataclass(frozen=True)
class _RecordsFile:
    policy: str
    epochs: tuple[EpochRecord, ...]


def save_records(policy: str, records: Sequence[EpochRecord], path) -> None:
    save_json(_RecordsFile(policy, tuple(records)), path)


def load_records(path) -> tuple[str, list[EpochRecord]]:
    """Load and type-check a records.json; load(save(r)) == r."""
    data = load_json(_RecordsFile, path, "records", RecordsFormatError)
    return data.policy, list(data.epochs)

"""Core domain types and the closed-form bandwidth algebra.

Bandwidths are real-valued Mbit/s throughout. A multipath connection
through a relay delivers the smaller of (a) the sum of its subflow
bandwidths and (b) the relay's own path to the destination; a client
without aggregation uses its single best edge link. The gain of routing
through a relay is the via-bandwidth minus that single-link baseline and
may be negative, in which case staying on the direct path (gain 0) is
always available to the schedulers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import ValidationError

__all__ = [
    "LinkKind",
    "GeoPoint",
    "EdgeLink",
    "BBoxClient",
    "AggregationServer",
    "OriginServer",
    "GainEntry",
    "aggregated_path_bandwidth",
    "baseline_bandwidth",
    "bandwidth_gain",
    "load_rate",
]


def _require_finite_nonneg(value: float, what: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"{what} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {value!r}")
    if value < 0:
        raise ValidationError(f"{what} must be non-negative, got {value!r}")
    return value


class LinkKind(str, Enum):
    """Edge network technology of one uplink."""

    WIFI = "wifi"
    CELLULAR = "cellular"


@dataclass(frozen=True)
class GeoPoint:
    """Location in decimal degrees."""

    latitude: float
    longitude: float

    def __post_init__(self) -> None:
        if not (-90.0 <= self.latitude <= 90.0):
            raise ValidationError(f"latitude out of range [-90, 90]: {self.latitude!r}")
        if not (-180.0 <= self.longitude <= 180.0):
            raise ValidationError(f"longitude out of range [-180, 180]: {self.longitude!r}")


@dataclass(frozen=True)
class EdgeLink:
    """One wireless uplink (Wi-Fi or cellular) of a client, with capacity."""

    id: str
    kind: LinkKind
    uplink_mbps: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", LinkKind(self.kind))
        _require_finite_nonneg(self.uplink_mbps, f"link {self.id!r} uplink_mbps")


@dataclass(frozen=True)
class BBoxClient:
    """A broadcaster's proxy box: location, edge links, target origin server."""

    id: str
    location: GeoPoint
    links: tuple[EdgeLink, ...]
    origin_id: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", tuple(self.links))
        if not self.links:
            raise ValidationError(f"client {self.id!r} must have at least one link")
        link_ids = [link.id for link in self.links]
        if len(set(link_ids)) != len(link_ids):
            raise ValidationError(f"client {self.id!r} has duplicate link ids")


@dataclass
class AggregationServer:
    """Cloud relay with total and remaining bandwidth capacity."""

    id: str
    location: GeoPoint
    total_capacity_mbps: float
    remaining_capacity_mbps: float

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        total = self.total_capacity_mbps
        if not (isinstance(total, (int, float)) and math.isfinite(total) and total > 0):
            raise ValidationError(
                f"server {self.id!r} total_capacity_mbps must be positive, got {total!r}"
            )
        remaining = _require_finite_nonneg(
            self.remaining_capacity_mbps, f"server {self.id!r} remaining_capacity_mbps"
        )
        if remaining > total:
            raise ValidationError(
                f"server {self.id!r} remaining capacity {remaining!r} exceeds total {total!r}"
            )

    @property
    def load_rate(self) -> float:
        return load_rate(self.remaining_capacity_mbps, self.total_capacity_mbps)


@dataclass(frozen=True)
class OriginServer:
    """Ingest server the stream must ultimately reach."""

    id: str
    location: GeoPoint


@dataclass(frozen=True)
class GainEntry:
    """One candidate pairing of a client with a relay server.

    Stores the raw measurements together with the derived via-bandwidth and
    gain. Construction re-checks internal consistency: the stored derived
    fields must equal what the algebra recomputes from the raw fields,
    exactly (no epsilon), so entries cannot drift from their inputs.
    """

    client_id: str
    server_id: str
    b_client_server_mbps: float
    b_server_origin_mbps: float
    b_via_mbps: float
    b_baseline_mbps: float
    gain_mbps: float

    def __post_init__(self) -> None:
        for name in (
            "b_client_server_mbps",
            "b_server_origin_mbps",
            "b_via_mbps",
            "b_baseline_mbps",
        ):
            _require_finite_nonneg(getattr(self, name), f"GainEntry.{name}")
        if not math.isfinite(self.gain_mbps):
            raise ValidationError(f"GainEntry.gain_mbps must be finite, got {self.gain_mbps!r}")
        expected_via = min(self.b_client_server_mbps, self.b_server_origin_mbps)
        if self.b_via_mbps != expected_via:
            raise ValidationError(
                f"GainEntry for ({self.client_id!r}, {self.server_id!r}): "
                f"b_via_mbps {self.b_via_mbps!r} != min(client-server, server-origin) {expected_via!r}"
            )
        expected_gain = self.b_via_mbps - self.b_baseline_mbps
        if self.gain_mbps != expected_gain:
            raise ValidationError(
                f"GainEntry for ({self.client_id!r}, {self.server_id!r}): "
                f"gain_mbps {self.gain_mbps!r} != via - baseline {expected_gain!r}"
            )

    @classmethod
    def from_measurements(
        cls,
        client_id: str,
        server_id: str,
        b_client_server_mbps: float,
        b_server_origin_mbps: float,
        b_baseline_mbps: float,
    ) -> "GainEntry":
        """Build an entry, deriving via-bandwidth and gain from raw values."""
        b_via = min(float(b_client_server_mbps), float(b_server_origin_mbps))
        return cls(
            client_id=client_id,
            server_id=server_id,
            b_client_server_mbps=float(b_client_server_mbps),
            b_server_origin_mbps=float(b_server_origin_mbps),
            b_via_mbps=b_via,
            b_baseline_mbps=float(b_baseline_mbps),
            gain_mbps=b_via - float(b_baseline_mbps),
        )


def aggregated_path_bandwidth(
    subflow_mbps: Iterable[float], server_to_origin_mbps: float
) -> float:
    """Deliverable bandwidth of a multipath connection through a relay.

    The subflows are summed and the result is capped by the relay's own
    path to the origin. An empty subflow list yields 0.
    """
    total = 0.0
    for i, value in enumerate(subflow_mbps):
        total += _require_finite_nonneg(value, f"subflow_mbps[{i}]")
    cap = _require_finite_nonneg(server_to_origin_mbps, "server_to_origin_mbps")
    return min(total, cap)


def baseline_bandwidth(direct_link_mbps: Sequence[float]) -> float:
    """Best single-link bandwidth to the origin (no aggregation).

    Without a relay only one edge network can carry the stream, so the
    baseline is the maximum over the client's links. An empty list is
    invalid: a client with no links cannot exist.
    """
    values = [
        _require_finite_nonneg(v, f"direct_link_mbps[{i}]")
        for i, v in enumerate(direct_link_mbps)
    ]
    if not values:
        raise ValidationError("baseline_bandwidth requires at least one link value")
    return max(values)


def bandwidth_gain(b_via_mbps: float, b_baseline_mbps: float) -> float:
    """Bandwidth gained by the relay path over the direct baseline.

    Negative results are permitted: a relay detour can be worse than the
    best direct link.
    """
    via = _require_finite_nonneg(b_via_mbps, "b_via_mbps")
    base = _require_finite_nonneg(b_baseline_mbps, "b_baseline_mbps")
    return via - base


def load_rate(remaining_mbps: float, total_mbps: float) -> float:
    """Remaining over total capacity, in [0, 1]. 1.0 means idle."""
    if not (isinstance(total_mbps, (int, float)) and math.isfinite(total_mbps) and total_mbps > 0):
        raise ValidationError(f"total_mbps must be positive, got {total_mbps!r}")
    remaining = _require_finite_nonneg(remaining_mbps, "remaining_mbps")
    if remaining > total_mbps:
        raise ValidationError(
            f"remaining_mbps {remaining!r} exceeds total_mbps {total_mbps!r}"
        )
    return remaining / float(total_mbps)

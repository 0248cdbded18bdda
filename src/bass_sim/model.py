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
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .errors import ValidationError

__all__ = [
    "LinkKind",
    "GeoPoint",
    "EdgeLink",
    "BBoxClient",
    "AggregationServer",
    "OriginServer",
    "GainEntry",
    "baseline_bandwidth",
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
        """Remaining over total capacity, in [0, 1]. 1.0 means idle."""
        return self.remaining_capacity_mbps / self.total_capacity_mbps


@dataclass(frozen=True)
class OriginServer:
    """Ingest server the stream must ultimately reach."""

    id: str
    location: GeoPoint


@dataclass(frozen=True)
class GainEntry:
    """One candidate pairing of a client with a relay server.

    Built from the raw measurements; the via-bandwidth and the gain are
    derived here and cannot be passed in, so an entry always agrees with
    its inputs.
    """

    client_id: str
    server_id: str
    b_client_server_mbps: float
    b_server_origin_mbps: float
    b_via_mbps: float = field(init=False)
    b_baseline_mbps: float
    gain_mbps: float = field(init=False)

    def __post_init__(self) -> None:
        b_via = min(self.b_client_server_mbps, self.b_server_origin_mbps)
        object.__setattr__(self, "b_via_mbps", b_via)
        object.__setattr__(self, "gain_mbps", b_via - self.b_baseline_mbps)


def baseline_bandwidth(direct_link_mbps: Sequence[float]) -> float:
    """Best single-link bandwidth to the origin (no aggregation).

    Without a relay only one edge network can carry the stream, so the
    baseline is the maximum over the client's links. An empty list is
    invalid: a client with no links cannot exist.
    """
    if not direct_link_mbps:
        raise ValidationError("baseline_bandwidth requires at least one link value")
    return max(direct_link_mbps)

"""Core domain types and the single-link baseline.

Bandwidths are real-valued Mbit/s throughout. A multipath connection
through a relay delivers the smaller of (a) the sum of its subflow
bandwidths and (b) the relay's own path to the destination, as
`scheduler.measure_gains` measures it; a client without aggregation uses
its single best edge link, `baseline_bandwidth`. Both read a client's
links one at a time from the network (a `PathOracle`) and stop once the
links not read yet cannot change the value, so a link is measured only
when it can. The gain of routing through a relay is the via-bandwidth minus
that single-link baseline and may be negative, in which case staying on the
direct path (gain 0) is always available to the schedulers.

Two rules check every scalar setting and entity field of the package where
it enters: `check_number` a number, `check_choice` one of a fixed set of
values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

from .errors import ValidationError


def check_number(what: str, value: object, low: float = 0.0, high: float = math.inf, *,
                 integer: bool = False, above: bool = False) -> None:
    """Refuse `value` unless it is a finite int or float, and not a bool, in
    [low, high], or in (low, high] when `above` is set; an `integer` field
    takes only an int. A refusal is one `ValidationError` naming `what` and `value`.
    """
    kind = type(value)
    if ((kind is int or kind is float and not integer
         or not isinstance(value, bool) and isinstance(value, int if integer else (int, float)))
            and (low < value if above else low <= value) and value <= high
            and -math.inf < value < math.inf):
        return
    article, noun = ("an", "integer") if integer else ("a", "finite number")
    if high == math.inf and (low == 0 or integer and low == 1):
        wanted = f"a {'positive' if above or low else 'non-negative'} {noun}"
    else:
        close = "]" if high < math.inf else ")"
        wanted = f"{article} {noun} in {'(' if above else '['}{low!r}, {high!r}{close}"
    raise ValidationError(f"{what} must be {wanted}, got {value!r}")


def check_choice(what: str, value: object, choices: Iterable) -> None:
    """Refuse `value` unless it is one of `choices` and of that choice's exact
    type: 1 is not True, nor a str subclass a str. A refusal is one
    `ValidationError` naming `what` and `value`."""
    for choice in choices:
        if type(value) is type(choice) and value == choice:
            return
    raise ValidationError(f"{what} must be one of {list(choices)!r}, got {value!r}")


@dataclass(frozen=True)
class GeoPoint:
    """Location in decimal degrees."""

    latitude: float
    longitude: float

    def __post_init__(self) -> None:
        check_number("latitude", self.latitude, -90, 90)
        check_number("longitude", self.longitude, -180, 180)


@dataclass(frozen=True)
class EdgeLink:
    """One wireless uplink of a client, with capacity. Its `kind`, "wifi" or
    "cellular", only labels it: the simulation never reads it."""

    id: str
    kind: str
    uplink_mbps: float

    def __post_init__(self) -> None:
        check_choice(f"link {self.id!r} kind", self.kind, ("wifi", "cellular"))
        check_number(f"link {self.id!r} uplink_mbps", self.uplink_mbps)


@dataclass(frozen=True)
class BBoxClient:
    """A broadcaster's proxy box: location, edge links, target origin server.
    `Scenario.validate` checks its ids."""

    id: str
    location: GeoPoint
    links: tuple[EdgeLink, ...]
    origin_id: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", tuple(self.links))
        if not self.links:
            raise ValidationError(f"client {self.id!r} must have at least one link")


@dataclass(frozen=True)
class AggregationServer:
    """Cloud relay with its total capacity and the part of it free when a run starts.

    A run never writes a server: its load derives from the plan in force,
    which the run's `AssignmentLedger` holds and checks against capacity.
    """

    id: str
    location: GeoPoint
    total_capacity_mbps: float
    remaining_capacity_mbps: float

    def __post_init__(self) -> None:
        total = self.total_capacity_mbps
        check_number(f"server {self.id!r} total_capacity_mbps", total, above=True)
        check_number(f"server {self.id!r} remaining_capacity_mbps",
                     self.remaining_capacity_mbps, 0, total)


@dataclass(frozen=True)
class OriginServer:
    """Ingest server the stream must ultimately reach."""

    id: str
    location: GeoPoint


@dataclass(frozen=True)
class GainEntry:
    """One candidate pairing of a client with a relay server.

    `b_via_mbps` is what the pairing delivers, as `scheduler.measure_gains`
    measures it; the gain over the baseline is derived here and cannot be
    passed in, so an entry always agrees with its inputs.
    """

    client_id: str
    server_id: str
    b_via_mbps: float
    b_baseline_mbps: float
    gain_mbps: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "gain_mbps", self.b_via_mbps - self.b_baseline_mbps)


class PathOracle(Protocol):
    """Bandwidth measurements the model and the scheduler need from the
    network layer: a client's links one at a time, in the order to read
    them, and a relay's path to an origin."""

    def link_order(self, client: BBoxClient) -> Sequence[int]: ...

    def link_bandwidth(self, client: BBoxClient, dest_id: str, i: int) -> float: ...

    def server_origin_bandwidth(self, server: AggregationServer, origin_id: str) -> float: ...


def baseline_bandwidth(client: BBoxClient, net: PathOracle) -> float:
    """Best single-link bandwidth to the client's origin (no aggregation).

    Without a relay only one edge network can carry the stream, so the
    baseline is the maximum over the client's links of each link's value on
    its direct path. A value never exceeds its link's uplink, so the links
    are visited by uplink descending and the walk stops once the best value
    reaches the next uplink: the links left cannot raise it, and are not
    measured. The result is `max` over every link in link order, bit for
    bit: equal positive values are one float, and when every value is ±0,
    `max` returns link 0's.
    """
    links = client.links
    best = -1.0
    for i in net.link_order(client):
        if best >= links[i].uplink_mbps:
            break
        value = net.link_bandwidth(client, client.origin_id, i)
        if value > best:
            best = value
    if best == 0.0:
        return net.link_bandwidth(client, client.origin_id, 0)
    return best

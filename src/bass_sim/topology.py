"""Scenario construction: placement, synthetic path-bandwidth model, file I/O.

The wide-area path model is a multiplicative distance decay with per-edge
lognormal noise, the simplest monotone form that still produces the spread
seen in real uplink measurements. Every value is a pure function of
(seed, edge tag), so scenarios and simulations replay bit-for-bit, and a
network draws each link of a client only when it is read: leaving one
undrawn moves no other value.

Wi-Fi uplink capacities are sampled from a lognormal whose defaults put 60%
of links below 1 Mbit/s, matching what large-scale hotspot measurements
report for metropolitan areas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .codec import load_json, save_json
from .errors import ScenarioFormatError, ValidationError
from .model import (
    AggregationServer,
    BBoxClient,
    EdgeLink,
    GeoPoint,
    OriginServer,
    check_number,
)
from .seeding import MAX_SEED, SeededStream, rng_for

EARTH_RADIUS_KM = 6371.0

DEFAULT_SERVER_CAPACITY_MBPS = 200.0
MAX_LINKS_PER_CLIENT = 64

# CPython's `normalvariate` never returns |z| > 2·sqrt(53·ln 2) ≈ 12.12, and
# exp overflows above 709.78, so exp(mu + sigma · z) stays finite for every
# draw when mu + _MAX_NORMAL_Z · sigma <= _MAX_EXP_ARG. With mu = 0 this caps
# the path noise sigma, whichever paths a run draws; it also bounds the
# Wi-Fi uplink lognormal, whichever clients arrive.
_MAX_NORMAL_Z = 12.13
_MAX_EXP_ARG = 709.78
MAX_NOISE_SIGMA = _MAX_EXP_ARG / _MAX_NORMAL_Z

__all__ = [
    "NetModelParams",
    "Scenario",
    "DistanceDecayNetwork",
    "geo_distance_km",
    "decayed_bandwidth",
    "path_bandwidth",
    "sample_client",
    "generate_scenario",
    "save_scenario",
    "load_scenario",
    "candidate_subset",
    "DEFAULT_SERVER_CAPACITY_MBPS",
]


@dataclass(frozen=True)
class NetModelParams:
    """Parameters of the synthetic network model.

    `direct_path_factor` multiplies the client-to-origin wide-area path
    only. At 1.0 direct and relayed wide-area legs behave identically;
    below 1.0 it emulates the poor edge-to-origin routing that makes
    relaying through well-peered cloud nodes attractive. Every client, in
    the scenario and among later arrivals, gets `wifi_links_per_client`
    Wi-Fi and `cellular_links_per_client` cellular uplinks. A proxy box
    bonds a handful; `MAX_LINKS_PER_CLIENT` caps the sum, as every link of
    every client is built in memory.

    A field with `flag` metadata is a `generate` option; its default and
    range are the field's own. Each number must be finite and not a bool,
    and an `int` field takes only an int (`model.check_number`).
    """

    base_path_mbps: float = field(default=22.0, metadata={"flag": "--base-path-mbps"})
    distance_decay_per_1000km: float = field(default=1.0, metadata={
        "flag": "--distance-decay", "help": "bandwidth decay per 1000 km of path distance"})
    noise_sigma: float = field(default=0.5, metadata={"flag": "--noise-sigma"})
    # -1.2 * NormalDist().inv_cdf(0.60): 60% of Wi-Fi uplinks fall below 1 Mbit/s.
    wifi_lognormal_mu: float = field(default=-0.30401652376295973, metadata={"flag": "--wifi-mu"})
    wifi_lognormal_sigma: float = field(default=1.2, metadata={"flag": "--wifi-sigma"})
    cellular_uplink_mbps_range: tuple[float, float] = field(default=(2.0, 8.0), metadata={
        "flag": "--cellular-range", "metavar": ("LOW", "HIGH")})
    direct_path_factor: float = field(default=1.0, metadata={
        "flag": "--direct-path-factor",
        "help": "multiplier on client-to-origin paths (below 1.0 throttles direct uploads)"})
    wifi_links_per_client: int = field(default=2, metadata={"flag": "--wifi-links"})
    cellular_links_per_client: int = field(default=1, metadata={"flag": "--cellular-links"})

    def __post_init__(self) -> None:
        check_number("base_path_mbps", self.base_path_mbps, above=True)
        check_number("distance_decay_per_1000km", self.distance_decay_per_1000km)
        check_number("noise_sigma", self.noise_sigma, 0, MAX_NOISE_SIGMA)
        check_number("wifi_lognormal_mu", self.wifi_lognormal_mu, -math.inf, above=True)
        check_number("wifi_lognormal_sigma", self.wifi_lognormal_sigma)
        pair = self.cellular_uplink_mbps_range
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise ValidationError(f"cellular_uplink_mbps_range must be a pair, got {pair!r}")
        low, high = pair
        object.__setattr__(self, "cellular_uplink_mbps_range", (low, high))
        check_number("cellular_uplink_mbps_range[0]", low)
        check_number("cellular_uplink_mbps_range[1]", high, low)
        check_number("direct_path_factor", self.direct_path_factor, above=True)
        wifi, cellular = self.wifi_links_per_client, self.cellular_links_per_client
        check_number("wifi_links_per_client", wifi, integer=True)
        check_number("cellular_links_per_client", cellular, integer=True)
        check_number("wifi_links_per_client + cellular_links_per_client", wifi + cellular,
                     1, MAX_LINKS_PER_CLIENT, integer=True)
        mu, sigma = self.wifi_lognormal_mu, self.wifi_lognormal_sigma
        if wifi > 0 and mu + _MAX_NORMAL_Z * sigma > _MAX_EXP_ARG:
            raise ValidationError(
                f"wifi_lognormal_mu + {_MAX_NORMAL_Z!r} * wifi_lognormal_sigma must be at most "
                f"{_MAX_EXP_ARG!r}, or a Wi-Fi uplink draw can overflow, got {mu!r} and {sigma!r}"
            )


@dataclass(frozen=True)
class Scenario:
    """A complete experiment topology. Immutable after construction.

    A simulation never writes it: relay loads derive from the plan in
    force, which the run's `AssignmentLedger` holds. The order of its
    clients, relays and origins does not change a run's output.
    """

    clients: tuple[BBoxClient, ...]
    agg_servers: tuple[AggregationServer, ...]
    origins: tuple[OriginServer, ...]
    net_params: NetModelParams
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "clients", tuple(self.clients))
        object.__setattr__(self, "agg_servers", tuple(self.agg_servers))
        object.__setattr__(self, "origins", tuple(self.origins))
        self.validate()

    def validate(self) -> None:
        check_number("seed", self.seed, 0, MAX_SEED, integer=True)
        if not self.origins:
            raise ValidationError("scenario needs at least one origin server")
        if not self.agg_servers:
            raise ValidationError("scenario needs at least one aggregation server")
        # Paths are cached by these ids and draw their noise under the tag
        # "{client}/{link}->{relay or origin}", so an id used twice (even by
        # two kinds) or holding a separator would share a value or a draw.
        entity_ids = [entity.id for entity in (*self.clients, *self.agg_servers, *self.origins)]
        for name in (*entity_ids, *(link.id for client in self.clients for link in client.links)):
            if type(name) is not str:
                raise ValidationError(f"an id must be a str, got {name!r}")
            if "/" in name or "->" in name:
                raise ValidationError(f"id {name!r} contains '/' or '->'")
        seen: set[str] = set()
        for name in entity_ids:
            if name in seen:
                raise ValidationError(f"duplicate id {name!r}")
            seen.add(name)
        origin_ids = {origin.id for origin in self.origins}
        for client in self.clients:
            if client.origin_id not in origin_ids:
                raise ValidationError(
                    f"client {client.id!r} references unknown origin {client.origin_id!r}"
                )


def geo_distance_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance via the haversine formula."""
    lat1 = math.radians(a.latitude)
    lat2 = math.radians(b.latitude)
    dlat = math.radians(b.latitude - a.latitude)
    dlon = math.radians(b.longitude - a.longitude)
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def decayed_bandwidth(src: GeoPoint, dst: GeoPoint, params: NetModelParams) -> float:
    """Noise-free wide-area path bandwidth: base / (1 + distance_km * decay / 1000)."""
    distance = geo_distance_km(src, dst)
    return params.base_path_mbps / (1.0 + distance * params.distance_decay_per_1000km / 1000.0)


def path_bandwidth(
    decayed_mbps: float,
    params: NetModelParams,
    noise: SeededStream,
    edge_tag: str,
) -> float:
    """Deterministic wide-area path bandwidth: the decay times a lognormal noise factor.

    The factor is exp(noise_sigma * z), with z the standard normal draw of
    `noise` for `edge_tag`; `noise` is a network's ``SeededStream(seed,
    "path-noise")``, so the same (seed, edge tag) always yields the same value.
    `NetModelParams` bounds `noise_sigma` so that the factor never overflows.
    """
    if params.noise_sigma == 0.0:
        return decayed_mbps
    return decayed_mbps * math.exp(params.noise_sigma * noise.normal(edge_tag))


@dataclass(slots=True)
class _ClientPaths:
    """What one client's position fixes, kept for its lifetime.

    `ranking` holds the relays nearest first by great-circle distance, ties
    by id, and `order` the client's link indices by uplink descending, ties
    by index. `decays` holds each path's noise-free decay and `links` its
    per-link values under the current noise epoch (None for a link not
    drawn yet), both keyed by destination id (a relay or the client's
    origin).
    """

    ranking: tuple[AggregationServer, ...]
    order: tuple[int, ...]
    decays: dict[str, float] = field(default_factory=dict)
    links: dict[str, list[float | None]] = field(default_factory=dict)


class DistanceDecayNetwork:
    """Path-bandwidth oracle over a scenario's geometry.

    Each path's noise-free decay is computed once per (source, destination)
    id pair and kept. A client's links are measured one at a time: link
    `i`'s value to a destination, its uplink capped by the decay times the
    noise factor, is drawn on a miss and cached by the same ids, so a
    caller that stops early draws only the links it read. The edge tag
    only labels the noise draw and is built on a miss. Until `remeasure`
    sets a noise epoch the whole network is static, which is the
    reproducibility default. A noise epoch is mixed into the tag, so each
    epoch re-measures fresh values. A client's relay ranking, link order,
    decays and link values are kept until `forget`.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.params = scenario.net_params
        self._servers = scenario.agg_servers
        self._locations = {e.id: e.location for e in (*scenario.agg_servers, *scenario.origins)}
        self._noise = SeededStream(scenario.seed, "path-noise")
        self._clients: dict[str, _ClientPaths] = {}
        self._relay_decays: dict[tuple[str, str], float] = {}
        self._relay_paths: dict[tuple[str, str], float] = {}
        self.remeasure(None)

    def remeasure(self, noise_epoch: int | None) -> None:
        """Re-draw path noise; values measured under other epochs are dropped."""
        self.noise_epoch = noise_epoch
        self._suffix = "" if noise_epoch is None else f"@{noise_epoch}"
        for client in self._clients.values():
            client.links.clear()
        self._relay_paths.clear()

    def forget(self, client_id: str) -> None:
        """Drop a departed client's entry with its paths; its id is never seen again."""
        self._clients.pop(client_id, None)

    def _add_client(self, client: BBoxClient) -> _ClientPaths:
        """Rank the relays and the links of a client seen for the first time
        and keep its entry."""
        ranking = sorted(
            self._servers, key=lambda s: (geo_distance_km(client.location, s.location), s.id)
        )
        links = client.links
        order = sorted(range(len(links)), key=lambda i: (-links[i].uplink_mbps, i))
        entry = self._clients[client.id] = _ClientPaths(tuple(ranking), tuple(order))
        return entry

    def ranking(self, client: BBoxClient) -> tuple[AggregationServer, ...]:
        """The relays nearest the client first; positions never move, so it is kept."""
        return (self._clients.get(client.id) or self._add_client(client)).ranking

    def link_order(self, client: BBoxClient) -> tuple[int, ...]:
        """The client's link indices by uplink descending, ties by index."""
        return (self._clients.get(client.id) or self._add_client(client)).order

    def link_bandwidth(self, client: BBoxClient, dest_id: str, i: int) -> float:
        """Link `i`'s min(uplink, factor × path) from the client to `dest_id`,
        drawn on a miss.

        `dest_id` is a relay (factor 1) or the client's origin (factor
        `direct_path_factor`).
        """
        entry = self._clients.get(client.id) or self._add_client(client)
        values = entry.links.get(dest_id)
        if values is None:
            values = entry.links[dest_id] = [None] * len(client.links)
        value = values[i]
        if value is None:
            decay = entry.decays.get(dest_id)
            if decay is None:
                decay = entry.decays[dest_id] = decayed_bandwidth(
                    client.location, self._locations[dest_id], self.params
                )
            link = client.links[i]
            factor = self.params.direct_path_factor if dest_id == client.origin_id else 1.0
            value = values[i] = min(
                link.uplink_mbps,
                factor * path_bandwidth(
                    decay, self.params, self._noise,
                    f"{client.id}/{link.id}->{dest_id}{self._suffix}",
                ),
            )
        return value

    def server_origin_bandwidth(self, server: AggregationServer, origin_id: str) -> float:
        key = (server.id, origin_id)
        value = self._relay_paths.get(key)
        if value is None:
            decay = self._relay_decays.get(key)
            if decay is None:
                decay = self._relay_decays[key] = decayed_bandwidth(
                    server.location, self._locations[origin_id], self.params
                )
            value = self._relay_paths[key] = path_bandwidth(
                decay, self.params, self._noise, f"{server.id}->{origin_id}{self._suffix}"
            )
        return value


def _sample_point(rng) -> GeoPoint:
    # Uniform on the sphere: latitude from arcsin, longitude uniform.
    lat = math.degrees(math.asin(rng.uniform(-1.0, 1.0)))
    lon = rng.uniform(-180.0, 180.0)
    return GeoPoint(latitude=lat, longitude=lon)


def sample_client(
    seed: int,
    index: int,
    params: NetModelParams,
    origin_ids: Sequence[str],
) -> BBoxClient:
    """Sample one client; a pure function of (seed, index) given fixed params.

    The per-entity sub-seed means client `index` is identical no matter how
    many other clients exist, which lets the simulator draw mid-run arrivals
    from the same population as the initial scenario.
    """
    rng = rng_for(seed, "client", index)
    client_id = f"c{index:04d}"
    location = _sample_point(rng)
    links = []
    for w in range(params.wifi_links_per_client):
        uplink = rng.lognormvariate(params.wifi_lognormal_mu, params.wifi_lognormal_sigma)
        links.append(EdgeLink(id=f"{client_id}-wifi{w}", kind="wifi", uplink_mbps=uplink))
    low, high = params.cellular_uplink_mbps_range
    for c in range(params.cellular_links_per_client):
        uplink = rng.uniform(low, high)
        links.append(EdgeLink(id=f"{client_id}-cell{c}", kind="cellular", uplink_mbps=uplink))
    origin_id = origin_ids[rng.randrange(len(origin_ids))]
    return BBoxClient(id=client_id, location=location, links=tuple(links), origin_id=origin_id)


def generate_scenario(
    n_clients: int,
    m_servers: int,
    k_origins: int,
    params: NetModelParams | None = None,
    seed: int = 0,
    *,
    server_capacity_mbps: float = DEFAULT_SERVER_CAPACITY_MBPS,
) -> Scenario:
    """Generate a deterministic synthetic scenario.

    Entities are placed uniformly on the sphere, each client gets Wi-Fi
    uplinks sampled from the calibrated lognormal plus cellular uplinks
    from the configured range, and is bound to a seeded-random origin.
    All servers start idle (remaining = total capacity).
    """
    for name, count in (("n_clients", n_clients), ("m_servers", m_servers), ("k_origins", k_origins)):
        check_number(name, count, 1, integer=True)
    check_number("server_capacity_mbps", server_capacity_mbps, above=True)
    # The draws below read the seed before `Scenario` checks it.
    check_number("seed", seed, 0, MAX_SEED, integer=True)
    params = params if params is not None else NetModelParams()

    origins = tuple(
        OriginServer(id=f"o{i:04d}", location=_sample_point(rng_for(seed, "origin", i)))
        for i in range(k_origins)
    )
    agg_servers = tuple(
        AggregationServer(
            id=f"s{j:04d}",
            location=_sample_point(rng_for(seed, "server", j)),
            total_capacity_mbps=float(server_capacity_mbps),
            remaining_capacity_mbps=float(server_capacity_mbps),
        )
        for j in range(m_servers)
    )
    origin_ids = [origin.id for origin in origins]
    clients = tuple(sample_client(seed, i, params, origin_ids) for i in range(n_clients))
    return Scenario(
        clients=clients, agg_servers=agg_servers, origins=origins, net_params=params, seed=seed
    )


def candidate_subset(
    client: BBoxClient, net: DistanceDecayNetwork, k: int, load_threshold: float,
    load_rates: Mapping[str, float],
) -> list[AggregationServer]:
    """Candidate relay servers for one client: the k nearest, load-filtered.

    Walks the client's ranking in `net` and returns the first k servers
    whose load rate (remaining/total, from `load_rates`) is at least
    `load_threshold` (possibly fewer; an empty list means no aggregation is
    available).
    """
    chosen: list[AggregationServer] = []
    for server in net.ranking(client):
        if load_rates[server.id] >= load_threshold:
            chosen.append(server)
            if len(chosen) == k:
                break
    return chosen


def save_scenario(scenario: Scenario, path) -> None:
    """Write a scenario as UTF-8 JSON. Deterministic byte output."""
    save_json(scenario, path)


def load_scenario(path) -> Scenario:
    """Load and type-check a scenario file. load(save(s)) == s, field for field."""
    return load_json(Scenario, path, "scenario", ScenarioFormatError)

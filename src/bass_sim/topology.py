"""Scenario construction: placement, synthetic path-bandwidth model, file I/O.

The wide-area path model is a multiplicative distance decay with per-edge
lognormal noise, the simplest monotone form that still produces the spread
seen in real uplink measurements. Every value is a pure function of
(seed, edge tag), so scenarios and simulations replay bit-for-bit.

Wi-Fi uplink capacities are sampled from a lognormal calibrated so that a
configurable fraction of links (default 60%) falls below 1 Mbit/s, matching
what large-scale hotspot measurements report for metropolitan areas.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Iterable, Mapping, Sequence

from .codec import encode, load_json
from .errors import ScenarioFormatError, ValidationError
from .model import (
    AggregationServer,
    BBoxClient,
    EdgeLink,
    GeoPoint,
    LinkKind,
    OriginServer,
)
from .seeding import SeededStream, rng_for

log = logging.getLogger(__name__)

EARTH_RADIUS_KM = 6371.0

# Fraction of sampled Wi-Fi uplinks that should fall below 1 Mbit/s.
WIFI_SUB_1MBPS_TARGET = 0.60
DEFAULT_WIFI_SIGMA = 1.2

DEFAULT_SERVER_CAPACITY_MBPS = 200.0
MAX_LINKS_PER_CLIENT = 64

__all__ = [
    "NetModelParams",
    "Scenario",
    "DistanceDecayNetwork",
    "geo_distance_km",
    "decayed_bandwidth",
    "path_bandwidth",
    "wifi_mu_for_sub_1mbps",
    "sample_client",
    "generate_scenario",
    "save_scenario",
    "load_scenario",
    "CandidateIndex",
    "candidate_subset",
    "DEFAULT_SERVER_CAPACITY_MBPS",
]


def wifi_mu_for_sub_1mbps(fraction: float, sigma: float) -> float:
    """Lognormal location parameter putting `fraction` of mass below 1 Mbit/s.

    P(X < 1) = Phi(-mu / sigma) for X = exp(mu + sigma Z), so
    mu = -sigma * Phi^-1(fraction).
    """
    if not 0.0 < fraction < 1.0:
        raise ValidationError(f"fraction must be in (0, 1), got {fraction!r}")
    if sigma <= 0:
        raise ValidationError(f"sigma must be positive, got {sigma!r}")
    return -sigma * NormalDist().inv_cdf(fraction)


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
    range check are the field's own.
    """

    base_path_mbps: float = field(default=22.0, metadata={"flag": "--base-path-mbps"})
    distance_decay_per_1000km: float = field(default=1.0, metadata={
        "flag": "--distance-decay", "help": "bandwidth decay per 1000 km of path distance"})
    noise_sigma: float = field(default=0.5, metadata={"flag": "--noise-sigma"})
    wifi_lognormal_mu: float = field(default=wifi_mu_for_sub_1mbps(
        WIFI_SUB_1MBPS_TARGET, DEFAULT_WIFI_SIGMA), metadata={"flag": "--wifi-mu"})
    wifi_lognormal_sigma: float = field(default=DEFAULT_WIFI_SIGMA, metadata={"flag": "--wifi-sigma"})
    cellular_uplink_mbps_range: tuple[float, float] = field(default=(2.0, 8.0), metadata={
        "flag": "--cellular-range", "metavar": ("LOW", "HIGH")})
    direct_path_factor: float = field(default=1.0, metadata={
        "flag": "--direct-path-factor",
        "help": "multiplier on client-to-origin paths (below 1.0 throttles direct uploads)"})
    wifi_links_per_client: int = field(default=2, metadata={"flag": "--wifi-links"})
    cellular_links_per_client: int = field(default=1, metadata={"flag": "--cellular-links"})

    def __post_init__(self) -> None:
        if not (math.isfinite(self.base_path_mbps) and self.base_path_mbps > 0):
            raise ValidationError(f"base_path_mbps must be positive, got {self.base_path_mbps!r}")
        if not (math.isfinite(self.distance_decay_per_1000km) and self.distance_decay_per_1000km >= 0):
            raise ValidationError(
                f"distance_decay_per_1000km must be non-negative, got {self.distance_decay_per_1000km!r}"
            )
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValidationError(f"noise_sigma must be non-negative, got {self.noise_sigma!r}")
        if not math.isfinite(self.wifi_lognormal_mu):
            raise ValidationError(f"wifi_lognormal_mu must be finite, got {self.wifi_lognormal_mu!r}")
        if not (math.isfinite(self.wifi_lognormal_sigma) and self.wifi_lognormal_sigma >= 0):
            raise ValidationError(
                f"wifi_lognormal_sigma must be non-negative, got {self.wifi_lognormal_sigma!r}"
            )
        object.__setattr__(
            self, "cellular_uplink_mbps_range", tuple(self.cellular_uplink_mbps_range)
        )
        low, high = self.cellular_uplink_mbps_range
        if not (math.isfinite(low) and math.isfinite(high) and 0 <= low <= high):
            raise ValidationError(
                f"cellular_uplink_mbps_range must satisfy 0 <= low <= high, got {(low, high)!r}"
            )
        if not (math.isfinite(self.direct_path_factor) and self.direct_path_factor > 0):
            raise ValidationError(
                f"direct_path_factor must be positive, got {self.direct_path_factor!r}"
            )
        wifi, cellular = self.wifi_links_per_client, self.cellular_links_per_client
        if not (all(isinstance(n, int) and n >= 0 for n in (wifi, cellular))
                and 1 <= wifi + cellular <= MAX_LINKS_PER_CLIENT):
            raise ValidationError(
                "wifi_links_per_client and cellular_links_per_client must be non-negative "
                f"integers with a sum in [1, {MAX_LINKS_PER_CLIENT}], got {wifi!r} and {cellular!r}"
            )


@dataclass(frozen=True)
class Scenario:
    """A complete experiment topology. Immutable after construction."""

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
        if not (0 <= self.seed < 2**64):
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not self.origins:
            raise ValidationError("scenario needs at least one origin server")
        if not self.agg_servers:
            raise ValidationError("scenario needs at least one aggregation server")
        # A path's tag is "{client}/{link}->{relay or origin}", so an id used
        # twice (even by two kinds) or holding a separator could share a tag.
        seen: set[str] = set()
        for entity in (*self.clients, *self.agg_servers, *self.origins):
            if entity.id in seen:
                raise ValidationError(f"duplicate id {entity.id!r}")
            seen.add(entity.id)
        for name in (*seen, *(link.id for client in self.clients for link in client.links)):
            if "/" in name or "->" in name:
                raise ValidationError(f"id {name!r} contains '/' or '->'")
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
    """
    if params.noise_sigma == 0.0:
        return decayed_mbps
    z = noise.normal(edge_tag)
    try:
        return decayed_mbps * math.exp(params.noise_sigma * z)
    except OverflowError:
        raise ValidationError(
            f"noise_sigma {params.noise_sigma!r} is too large: the noise factor "
            f"exp(noise_sigma * {z!r}) of path {edge_tag!r} overflows"
        ) from None


@dataclass(slots=True)
class _ClientPaths:
    """One client's measured paths, and its noise-free decays, kept for its lifetime.

    `decays` is keyed by relay id, and by None for the client's origin.
    """

    decays: dict[str | None, float] = field(default_factory=dict)
    paths: dict[str, float] = field(default_factory=dict)


class DistanceDecayNetwork:
    """Path-bandwidth oracle over a scenario's geometry.

    Each path's noise-free decay is computed once per (source, destination)
    pair and kept; its measured value, the decay times the noise factor, is
    cached per edge tag. With `noise_epoch` unset the whole network is
    static, which is the reproducibility default. Setting a noise epoch
    mixes it into the noise key so each epoch re-measures fresh values. A
    client's decays and paths are kept until `forget`.
    """

    def __init__(
        self,
        params: NetModelParams,
        seed: int,
        origins: Mapping[str, OriginServer],
        noise_epoch: int | None = None,
    ) -> None:
        self.params = params
        self._origins = dict(origins)
        self._noise = SeededStream(seed, "path-noise")
        self._clients: dict[str, _ClientPaths] = {}
        self._relay_decays: dict[tuple[str, str], float] = {}
        self._relay_paths: dict[str, float] = {}
        self.remeasure(noise_epoch)

    def remeasure(self, noise_epoch: int | None) -> None:
        """Re-draw path noise; paths measured under other epochs are never read again."""
        self.noise_epoch = noise_epoch
        self._suffix = "" if noise_epoch is None else f"@{noise_epoch}"
        for client in self._clients.values():
            client.paths.clear()
        self._relay_paths.clear()

    def forget(self, client_id: str) -> None:
        """Drop a departed client's decays and paths; its id is never measured again."""
        self._clients.pop(client_id, None)

    @classmethod
    def for_scenario(cls, scenario: Scenario) -> "DistanceDecayNetwork":
        return cls(scenario.net_params, scenario.seed, {o.id: o for o in scenario.origins})

    def _origin(self, origin_id: str) -> OriginServer:
        try:
            return self._origins[origin_id]
        except KeyError:
            raise ValidationError(f"unknown origin server {origin_id!r}") from None

    def _client(self, client_id: str) -> _ClientPaths:
        entry = self._clients.get(client_id)
        if entry is None:
            entry = self._clients[client_id] = _ClientPaths()
        return entry

    def _measured(
        self, paths: dict, tag: str, decays: dict, key, src: GeoPoint, dst: GeoPoint
    ) -> float:
        """The path's value under the current noise epoch, from its cached decay on a miss."""
        value = paths.get(tag)
        if value is None:
            decay = decays.get(key)
            if decay is None:
                decay = decays[key] = decayed_bandwidth(src, dst, self.params)
            value = paths[tag] = path_bandwidth(decay, self.params, self._noise, tag)
        return value

    def subflow_bandwidths(self, client: BBoxClient, server: AggregationServer) -> list[float]:
        """Per-link deliverable subflow bandwidth from client to server."""
        entry = self._client(client.id)
        return [
            min(
                link.uplink_mbps,
                self._measured(
                    entry.paths, f"{client.id}/{link.id}->{server.id}{self._suffix}",
                    entry.decays, server.id, client.location, server.location,
                ),
            )
            for link in client.links
        ]

    def server_origin_bandwidth(self, server: AggregationServer, origin_id: str) -> float:
        return self._measured(
            self._relay_paths, f"{server.id}->{origin_id}{self._suffix}",
            self._relay_decays, (server.id, origin_id),
            server.location, self._origin(origin_id).location,
        )

    def direct_link_bandwidths(self, client: BBoxClient) -> list[float]:
        """Per-link bandwidth on the client's own path to its origin."""
        entry = self._client(client.id)
        origin = self._origin(client.origin_id)
        factor = self.params.direct_path_factor
        return [
            min(
                link.uplink_mbps,
                factor
                * self._measured(
                    entry.paths, f"{client.id}/{link.id}->{client.origin_id}{self._suffix}",
                    entry.decays, None, client.location, origin.location,
                ),
            )
            for link in client.links
        ]


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
        try:
            uplink = rng.lognormvariate(params.wifi_lognormal_mu, params.wifi_lognormal_sigma)
        except OverflowError:
            raise ValidationError(
                f"a Wi-Fi uplink of client {client_id!r} overflows: exp(normal draw) with "
                f"wifi_lognormal_mu {params.wifi_lognormal_mu!r} and wifi_lognormal_sigma "
                f"{params.wifi_lognormal_sigma!r} is too large"
            ) from None
        links.append(EdgeLink(id=f"{client_id}-wifi{w}", kind=LinkKind.WIFI, uplink_mbps=uplink))
    low, high = params.cellular_uplink_mbps_range
    for c in range(params.cellular_links_per_client):
        uplink = rng.uniform(low, high)
        links.append(EdgeLink(id=f"{client_id}-cell{c}", kind=LinkKind.CELLULAR, uplink_mbps=uplink))
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
        if not isinstance(count, int) or count < 1:
            raise ValidationError(f"{name} must be a positive integer, got {count!r}")
    if not (math.isfinite(server_capacity_mbps) and server_capacity_mbps > 0):
        raise ValidationError(
            f"server_capacity_mbps must be positive, got {server_capacity_mbps!r}"
        )
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
    scenario = Scenario(
        clients=clients, agg_servers=agg_servers, origins=origins, net_params=params, seed=seed
    )
    log.info(
        "generated scenario: %d clients, %d servers, %d origins, seed=%d",
        n_clients, m_servers, k_origins, seed,
    )
    return scenario


class CandidateIndex:
    """Each client's relays ranked nearest first by great-circle distance, ties by id.

    Positions never move, so a client's ranking is computed the first time
    it is asked for and kept until `forget`. It holds the given server
    objects, so a walk down it reads their current loads.
    """

    def __init__(self, servers: Iterable[AggregationServer]) -> None:
        self._servers = tuple(servers)
        self._rankings: dict[str, tuple[AggregationServer, ...]] = {}

    def ranking(self, client: BBoxClient) -> tuple[AggregationServer, ...]:
        ranking = self._rankings.get(client.id)
        if ranking is None:
            ranking = self._rankings[client.id] = tuple(
                sorted(
                    self._servers,
                    key=lambda s: (geo_distance_km(client.location, s.location), s.id),
                )
            )
        return ranking

    def forget(self, client_id: str) -> None:
        """Drop a departed client's ranking; its id is never ranked again."""
        self._rankings.pop(client_id, None)


def candidate_subset(
    client: BBoxClient, index: CandidateIndex, k: int, load_threshold: float
) -> list[str]:
    """Candidate relay servers for one client: the k nearest, load-filtered.

    Walks the client's ranking in `index` and returns the ids of the first
    k servers whose load rate (remaining/total) is at least
    `load_threshold` (possibly fewer; an empty list means no aggregation is
    available).
    """
    chosen: list[str] = []
    for server in index.ranking(client):
        if server.load_rate >= load_threshold:
            chosen.append(server.id)
            if len(chosen) == k:
                break
    return chosen


def save_scenario(scenario: Scenario, path) -> None:
    """Write a scenario as UTF-8 JSON. Deterministic byte output."""
    payload = json.dumps(encode(scenario), indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)


def load_scenario(path) -> Scenario:
    """Load and type-check a scenario file. load(save(s)) == s, field for field."""
    return load_json(Scenario, path, "scenario", ScenarioFormatError)

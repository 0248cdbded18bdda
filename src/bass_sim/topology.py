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
from dataclasses import dataclass
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
from .seeding import rng_for

log = logging.getLogger(__name__)

EARTH_RADIUS_KM = 6371.0

# Fraction of sampled Wi-Fi uplinks that should fall below 1 Mbit/s.
WIFI_SUB_1MBPS_TARGET = 0.60
DEFAULT_WIFI_SIGMA = 1.2

DEFAULT_SERVER_CAPACITY_MBPS = 200.0
DEFAULT_K_CANDIDATES = 3
DEFAULT_LOAD_THRESHOLD = 0.1
DEFAULT_RESERVE_MBPS = 50.0

__all__ = [
    "NetModelParams",
    "Scenario",
    "DistanceDecayNetwork",
    "geo_distance_km",
    "path_bandwidth",
    "wifi_mu_for_sub_1mbps",
    "sample_client",
    "generate_scenario",
    "save_scenario",
    "load_scenario",
    "candidate_subset",
    "DEFAULT_K_CANDIDATES",
    "DEFAULT_LOAD_THRESHOLD",
    "DEFAULT_RESERVE_MBPS",
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
    Wi-Fi and `cellular_links_per_client` cellular uplinks.
    """

    base_path_mbps: float = 22.0
    distance_decay_per_1000km: float = 1.0
    noise_sigma: float = 0.5
    wifi_lognormal_mu: float = wifi_mu_for_sub_1mbps(WIFI_SUB_1MBPS_TARGET, DEFAULT_WIFI_SIGMA)
    wifi_lognormal_sigma: float = DEFAULT_WIFI_SIGMA
    cellular_uplink_mbps_range: tuple[float, float] = (2.0, 8.0)
    direct_path_factor: float = 1.0
    wifi_links_per_client: int = 2
    cellular_links_per_client: int = 1

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
        if not all(isinstance(n, int) and n >= 0 for n in (wifi, cellular)) or wifi + cellular < 1:
            raise ValidationError(
                "wifi_links_per_client and cellular_links_per_client must be non-negative "
                f"integers with a sum of at least 1, got {wifi!r} and {cellular!r}"
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
        for kind, entities in (
            ("client", self.clients),
            ("agg_server", self.agg_servers),
            ("origin", self.origins),
        ):
            seen: set[str] = set()
            for entity in entities:
                if entity.id in seen:
                    raise ValidationError(f"duplicate {kind} id {entity.id!r}")
                seen.add(entity.id)
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


def _lognormal_noise(params: NetModelParams, seed: int, edge_tag: str) -> float:
    if params.noise_sigma == 0.0:
        return 1.0
    z = rng_for(seed, "path-noise", edge_tag).normalvariate(0.0, 1.0)
    try:
        return math.exp(params.noise_sigma * z)
    except OverflowError:
        raise ValidationError(
            f"noise_sigma {params.noise_sigma!r} is too large: the noise factor "
            f"exp(noise_sigma * {z!r}) of path {edge_tag!r} overflows"
        ) from None


def path_bandwidth(
    src: GeoPoint,
    dst: GeoPoint,
    params: NetModelParams,
    seed: int,
    edge_tag: str,
) -> float:
    """Deterministic wide-area path bandwidth between two points.

    base / (1 + distance_km * decay / 1000), scaled by a lognormal noise
    term keyed on (seed, edge_tag). The same key always yields the same
    value.
    """
    distance = geo_distance_km(src, dst)
    decayed = params.base_path_mbps / (
        1.0 + distance * params.distance_decay_per_1000km / 1000.0
    )
    return decayed * _lognormal_noise(params, seed, edge_tag)


class DistanceDecayNetwork:
    """Path-bandwidth oracle over a scenario's geometry.

    Values are cached per edge tag; with `noise_epoch` unset the whole
    network is static, which is the reproducibility default. Setting a
    noise epoch mixes it into the noise key so each epoch re-measures
    fresh values.
    """

    def __init__(
        self,
        params: NetModelParams,
        seed: int,
        origins: Mapping[str, OriginServer],
        noise_epoch: int | None = None,
    ) -> None:
        self.params = params
        self.seed = seed
        self._origins = dict(origins)
        self.noise_epoch = noise_epoch
        self._cache: dict[str, float] = {}

    def remeasure(self, noise_epoch: int) -> None:
        """Re-draw path noise; paths cached for other epochs are never read again."""
        self.noise_epoch = noise_epoch
        self._cache.clear()

    @classmethod
    def for_scenario(cls, scenario: Scenario) -> "DistanceDecayNetwork":
        return cls(scenario.net_params, scenario.seed, {o.id: o for o in scenario.origins})

    def _origin(self, origin_id: str) -> OriginServer:
        try:
            return self._origins[origin_id]
        except KeyError:
            raise ValidationError(f"unknown origin server {origin_id!r}") from None

    def _tag(self, base_tag: str) -> str:
        if self.noise_epoch is None:
            return base_tag
        return f"{base_tag}@{self.noise_epoch}"

    def _path(self, src: GeoPoint, dst: GeoPoint, base_tag: str) -> float:
        tag = self._tag(base_tag)
        value = self._cache.get(tag)
        if value is None:
            value = path_bandwidth(src, dst, self.params, self.seed, tag)
            self._cache[tag] = value
        return value

    def subflow_bandwidths(self, client: BBoxClient, server: AggregationServer) -> list[float]:
        """Per-link deliverable subflow bandwidth from client to server."""
        return [
            min(
                link.uplink_mbps,
                self._path(client.location, server.location, f"{client.id}/{link.id}->{server.id}"),
            )
            for link in client.links
        ]

    def server_origin_bandwidth(self, server: AggregationServer, origin_id: str) -> float:
        origin = self._origin(origin_id)
        return self._path(server.location, origin.location, f"{server.id}->{origin_id}")

    def direct_link_bandwidths(self, client: BBoxClient) -> list[float]:
        """Per-link bandwidth on the client's own path to its origin."""
        origin = self._origin(client.origin_id)
        factor = self.params.direct_path_factor
        return [
            min(
                link.uplink_mbps,
                factor
                * self._path(
                    client.location, origin.location, f"{client.id}/{link.id}->{client.origin_id}"
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
        uplink = rng.lognormvariate(params.wifi_lognormal_mu, params.wifi_lognormal_sigma)
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


def candidate_subset(
    client: BBoxClient,
    servers: Iterable[AggregationServer],
    k: int = DEFAULT_K_CANDIDATES,
    load_threshold: float = DEFAULT_LOAD_THRESHOLD,
) -> list[str]:
    """Candidate relay servers for one client: the k nearest, load-filtered.

    Servers whose load rate (remaining/total) is below `load_threshold` are
    never offered. The rest are ranked by great-circle distance, ties broken
    by server id, and the nearest k ids returned (possibly fewer; an empty
    list means no aggregation is available).
    """
    eligible = [s for s in servers if s.load_rate >= load_threshold]
    eligible.sort(key=lambda s: (geo_distance_km(client.location, s.location), s.id))
    return [s.id for s in eligible[:k]]


def save_scenario(scenario: Scenario, path) -> None:
    """Write a scenario as UTF-8 JSON. Deterministic byte output."""
    payload = json.dumps(encode(scenario), indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)


def load_scenario(path) -> Scenario:
    """Load and type-check a scenario file. load(save(s)) == s, field for field."""
    return load_json(Scenario, path, "scenario", ScenarioFormatError)

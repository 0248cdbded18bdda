"""Every numeric setting and entity field is checked by one rule where it
enters: a finite int or float, never a bool, an int where the field is
`int`, within the field's range. A refusal is one `ValidationError` that
names the field and the value. A setting or field that takes one of a
fixed set of values, and the one pair, refuse any other value the same way."""

import dataclasses
import math
import re
import typing

import pytest

from bass_sim.errors import ValidationError
from bass_sim.model import AggregationServer, EdgeLink, GeoPoint, OriginServer
from bass_sim.sim import MAX_ARRIVAL_RATE, SimConfig
from bass_sim.topology import (
    MAX_LINKS_PER_CLIENT, MAX_NOISE_SIGMA, NetModelParams, Scenario, generate_scenario,
)

TINY = 5e-324  # the smallest positive float


def next_down(x):
    return math.nextafter(x, -math.inf)


def next_up(x):
    return math.nextafter(x, math.inf)


def _generate(**values):
    return generate_scenario(**{"n_clients": 1, "m_servers": 1, "k_origins": 1, **values})


def _server(**values):
    return AggregationServer(**{"id": "s", "location": GeoPoint(0.0, 0.0),
                                "total_capacity_mbps": 10.0, "remaining_capacity_mbps": 0.0,
                                **values})


def _scenario(seed):
    return Scenario(clients=(), agg_servers=(_server(),),
                    origins=(OriginServer("o", GeoPoint(0.0, 0.0)),),
                    net_params=NetModelParams(), seed=seed)


# (owner, field, build(value), in-range values at each bound, the first
# values outside each bound). Every field also refuses both bools, "1", NaN
# and ±inf: no field takes a bool, a string or a value that is not finite.
TABLE = [
    ("SimConfig", "epochs", lambda v: SimConfig(epochs=v), [0], [-1, 1.0]),
    ("SimConfig", "seed", lambda v: SimConfig(seed=v), [0, 2**64 - 1], [-1, 2**64, 1.0]),
    ("Scenario", "seed", _scenario, [0, 2**64 - 1], [-1, 2**64, 1.0]),
    ("SimConfig", "arrival_rate", lambda v: SimConfig(arrival_rate=v),
     [0, -0.0, MAX_ARRIVAL_RATE], [-TINY, next_up(MAX_ARRIVAL_RATE)]),
    ("SimConfig", "session_epochs_mean", lambda v: SimConfig(session_epochs_mean=v),
     [None, 1, 1e308], [next_down(1.0)]),
    ("SimConfig", "k_candidates", lambda v: SimConfig(k_candidates=v), [1], [0, 1.0]),
    ("SimConfig", "load_threshold", lambda v: SimConfig(load_threshold=v),
     [0, 1, 1.0], [-TINY, next_up(1.0)]),
    ("SimConfig", "reserve_mbps", lambda v: SimConfig(reserve_mbps=v), [0, -0.0, 1e308], [-TINY]),
    ("SimConfig", "exact_cap", lambda v: SimConfig(exact_cap=v), [1], [0, 1.0]),
    ("NetModelParams", "base_path_mbps", lambda v: NetModelParams(base_path_mbps=v),
     [TINY, 1e308], [0.0]),
    ("NetModelParams", "distance_decay_per_1000km",
     lambda v: NetModelParams(distance_decay_per_1000km=v), [0, 1e308], [-TINY]),
    ("NetModelParams", "noise_sigma", lambda v: NetModelParams(noise_sigma=v),
     [0, MAX_NOISE_SIGMA], [-TINY, next_up(MAX_NOISE_SIGMA)]),
    ("NetModelParams", "wifi_lognormal_mu", lambda v: NetModelParams(wifi_lognormal_mu=v),
     [-1e308, 1], []),
    ("NetModelParams", "wifi_lognormal_sigma", lambda v: NetModelParams(wifi_lognormal_sigma=v),
     [0, 1.2], [-TINY]),
    ("NetModelParams", "cellular_uplink_mbps_range[0]",
     lambda v: NetModelParams(cellular_uplink_mbps_range=(v, 8.0)), [0, 8.0], [-TINY]),
    ("NetModelParams", "cellular_uplink_mbps_range[1]",
     lambda v: NetModelParams(cellular_uplink_mbps_range=(2.0, v)),
     [2.0, 1e308], [next_down(2.0)]),
    ("NetModelParams", "direct_path_factor", lambda v: NetModelParams(direct_path_factor=v),
     [TINY, 1e308], [0.0]),
    ("NetModelParams", "wifi_links_per_client",
     lambda v: NetModelParams(wifi_links_per_client=v, cellular_links_per_client=1),
     [0, MAX_LINKS_PER_CLIENT - 1], [-1, 1.0]),
    ("NetModelParams", "cellular_links_per_client",
     lambda v: NetModelParams(wifi_links_per_client=0, cellular_links_per_client=v),
     [1, MAX_LINKS_PER_CLIENT], [-1, 1.0]),
    ("GeoPoint", "latitude", lambda v: GeoPoint(v, 0.0),
     [-90, 90.0], [next_down(-90.0), next_up(90.0)]),
    ("GeoPoint", "longitude", lambda v: GeoPoint(0.0, v),
     [-180.0, 180], [next_down(-180.0), next_up(180.0)]),
    ("EdgeLink", "uplink_mbps", lambda v: EdgeLink(id="l", kind="wifi", uplink_mbps=v),
     [0, -0.0, 1e308], [-TINY]),
    ("AggregationServer", "total_capacity_mbps", lambda v: _server(total_capacity_mbps=v),
     [TINY, 1e308], [0.0]),
    ("AggregationServer", "remaining_capacity_mbps",
     lambda v: _server(remaining_capacity_mbps=v), [0, -0.0, 10, 10.0], [-TINY, next_up(10.0)]),
    ("generate_scenario", "n_clients", lambda v: _generate(n_clients=v), [1], [0, 1.0]),
    ("generate_scenario", "m_servers", lambda v: _generate(m_servers=v), [1], [0, 1.0]),
    ("generate_scenario", "k_origins", lambda v: _generate(k_origins=v), [1], [0, 1.0]),
    ("generate_scenario", "seed", lambda v: _generate(seed=v), [0, 2**64 - 1], [-1, 2**64, 1.0]),
    ("generate_scenario", "server_capacity_mbps", lambda v: _generate(server_capacity_mbps=v),
     [TINY, 1e308, 200], [0.0]),
]
REFUSED_BY_EVERY_FIELD = [True, False, "1", math.nan, math.inf, -math.inf]

GOOD = [pytest.param(build, value, id=f"{owner}.{name}={value!r}")
        for owner, name, build, good, _ in TABLE for value in good]
BAD = [pytest.param(build, name, value, id=f"{owner}.{name}={value!r}")
       for owner, name, build, _, bad in TABLE for value in [*bad, *REFUSED_BY_EVERY_FIELD]]


@pytest.mark.parametrize("build, value", GOOD)
def test_a_value_at_a_bound_builds(build, value):
    build(value)


@pytest.mark.parametrize("build, name, value", BAD)
def test_a_value_outside_is_one_error_naming_the_field_and_the_value(build, name, value):
    with pytest.raises(ValidationError, match=re.escape(name)) as exc:
        build(value)
    assert str(exc.value).endswith(f"got {value!r}")


def _numeric(hint):
    return hint in (int, float) or float in typing.get_args(hint)


@pytest.mark.parametrize("owner", [SimConfig, NetModelParams, GeoPoint, EdgeLink,
                                   AggregationServer, Scenario, generate_scenario])
def test_every_numeric_field_is_in_the_table(owner):
    hints = typing.get_type_hints(owner)
    if dataclasses.is_dataclass(owner):
        names = {f.name for f in dataclasses.fields(owner) if f.init}
    else:
        names = set(hints) - {"return"}
    numeric = {name for name in names if _numeric(hints[name])}
    covered = {name.split("[")[0] for who, name, *_ in TABLE if who == owner.__name__}
    assert numeric and numeric == covered


class Label(str):
    """A str subclass: equal to its text, but not of the exact type `str`."""

    def __repr__(self):
        return f"Label({str(self)!r})"


# (field, build(value), accepted values, values that are not one of them,
# some only looking right).
TYPED = [
    ("remeasure_noise", lambda v: SimConfig(remeasure_noise=v), [False, True],
     ["no", 1, 0, "True", None]),
    ("policy", lambda v: SimConfig(policy=v), ["bass_exact", "bass_greedy", "random"],
     [[], 5, None, "Bass_greedy"]),
    ("kind", lambda v: EdgeLink(id="l", kind=v, uplink_mbps=1.0),
     ["wifi", "cellular"], ["bogus", "WIFI", " wifi", Label("wifi"), [], None]),
    ("cellular_uplink_mbps_range", lambda v: NetModelParams(cellular_uplink_mbps_range=v),
     [(1.0, 2.0), [1, 2]], [5, (1, 2, 3), (1.0,), "ab", None]),
]


@pytest.mark.parametrize("build, value", [
    pytest.param(build, value, id=f"{name}={value!r}")
    for name, build, good, _ in TYPED for value in good])
def test_a_value_of_the_field_type_builds(build, value):
    build(value)


@pytest.mark.parametrize("build, name, value", [
    pytest.param(build, name, value, id=f"{name}={value!r}")
    for name, build, _, bad in TYPED for value in bad])
def test_a_value_of_another_type_is_one_error_naming_the_field_and_the_value(build, name, value):
    with pytest.raises(ValidationError, match=re.escape(name)) as exc:
        build(value)
    assert str(exc.value).endswith(f"got {value!r}")

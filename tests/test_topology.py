import json
import math
import random
import re
from dataclasses import replace
from statistics import NormalDist

import pytest
from hypothesis import given, settings, strategies as st

from bass_sim.errors import ScenarioFormatError, ValidationError
from bass_sim.model import AggregationServer, BBoxClient, EdgeLink, GeoPoint, OriginServer
from bass_sim.scheduler import AssignmentLedger
from bass_sim.seeding import SeededStream, rng_for
from bass_sim.topology import (
    EARTH_RADIUS_KM,
    MAX_LINKS_PER_CLIENT,
    MAX_NOISE_SIGMA,
    DistanceDecayNetwork,
    NetModelParams,
    Scenario,
    candidate_subset,
    decayed_bandwidth,
    generate_scenario,
    geo_distance_km,
    load_scenario,
    path_bandwidth,
    save_scenario,
)

from oracles import encode, filtered_then_sorted_candidates

geo_points = st.builds(
    GeoPoint,
    latitude=st.floats(min_value=-90, max_value=90, allow_nan=False),
    longitude=st.floats(min_value=-180, max_value=180, allow_nan=False),
)


class TestGeoDistance:
    def test_identical_points(self):
        p = GeoPoint(48.2, 16.4)
        assert geo_distance_km(p, p) == 0.0

    def test_half_circumference(self):
        # Antipodal equator points span half the great circle: pi * R.
        d = geo_distance_km(GeoPoint(0, 0), GeoPoint(0, 180))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM, rel=1e-9)

    def test_quarter_circumference(self):
        d = geo_distance_km(GeoPoint(0, 0), GeoPoint(90, 0))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM / 2, rel=1e-9)

    @given(geo_points, geo_points)
    def test_symmetric(self, a, b):
        assert geo_distance_km(a, b) == geo_distance_km(b, a)

    @settings(max_examples=200)
    @given(geo_points, geo_points, geo_points)
    def test_triangle_inequality(self, a, b, c):
        direct = geo_distance_km(a, c)
        detour = geo_distance_km(a, b) + geo_distance_km(b, c)
        assert direct <= detour * (1 + 1e-6) + 1e-6


def measured(src, dst, params, seed, edge_tag):
    """One path as a network measures it on a cache miss."""
    noise = SeededStream(seed, "path-noise")
    return path_bandwidth(decayed_bandwidth(src, dst, params), params, noise, edge_tag)


class TestPathBandwidth:
    def test_no_decay_no_noise(self):
        params = NetModelParams(base_path_mbps=100.0, distance_decay_per_1000km=0.0, noise_sigma=0.0)
        p = GeoPoint(10, 10)
        assert measured(p, p, params, seed=1, edge_tag="a->b") == 100.0

    def test_decay_halves_at_1000km(self):
        params = NetModelParams(base_path_mbps=100.0, distance_decay_per_1000km=1.0, noise_sigma=0.0)
        # 1000 km along the equator.
        dst = GeoPoint(0, math.degrees(1000.0 / EARTH_RADIUS_KM))
        value = measured(GeoPoint(0, 0), dst, params, seed=1, edge_tag="a->b")
        assert value == pytest.approx(50.0, rel=1e-12)

    def test_deterministic_per_seed_and_tag(self):
        params = NetModelParams(noise_sigma=0.7)
        a, b = GeoPoint(1, 2), GeoPoint(3, 4)
        first = measured(a, b, params, seed=9, edge_tag="x")
        second = measured(a, b, params, seed=9, edge_tag="x")
        assert first == second
        assert measured(a, b, params, seed=9, edge_tag="y") != first
        assert measured(a, b, params, seed=10, edge_tag="x") != first

    def test_non_increasing_in_distance_without_noise(self):
        params = NetModelParams(base_path_mbps=40.0, distance_decay_per_1000km=2.0, noise_sigma=0.0)
        src = GeoPoint(0, 0)
        values = [
            measured(src, GeoPoint(0, lon), params, seed=0, edge_tag="t")
            for lon in (0, 10, 40, 90, 170)
        ]
        assert values == sorted(values, reverse=True)

    def test_noise_factor_is_the_rng_for_draw(self):
        params = NetModelParams(noise_sigma=0.7)
        a, b = GeoPoint(1, 2), GeoPoint(3, 4)
        z = rng_for(9, "path-noise", "x@3").normalvariate(0.0, 1.0)
        expected = decayed_bandwidth(a, b, params) * math.exp(0.7 * z)
        assert measured(a, b, params, seed=9, edge_tag="x@3") == expected


    def test_noise_sigma_is_capped_below_overflow(self):
        # `normalvariate` never draws |z| above 2·sqrt(53·ln 2); at the cap
        # the noise factor of such a draw is still finite.
        assert math.isfinite(math.exp(MAX_NOISE_SIGMA * 2.0 * math.sqrt(53.0 * math.log(2.0))))
        assert NetModelParams(noise_sigma=MAX_NOISE_SIGMA).noise_sigma == MAX_NOISE_SIGMA
        with pytest.raises(ValidationError, match="noise_sigma"):
            NetModelParams(noise_sigma=math.nextafter(MAX_NOISE_SIGMA, math.inf))


class TestWifiCalibration:
    def test_mu_formula_hits_target(self):
        params = NetModelParams()
        rng = random.Random(123)
        draws = [rng.lognormvariate(params.wifi_lognormal_mu, params.wifi_lognormal_sigma)
                 for _ in range(20000)]
        frac = sum(1 for d in draws if d < 1.0) / len(draws)
        assert abs(frac - 0.6) < 0.03

    def test_uplink_draw_is_capped_below_overflow(self):
        # exp(mu + sigma·z) stays finite for every draw when
        # mu + 12.13·sigma <= 709.78: accepted at that bound, rejected one
        # float above it, whether mu or sigma reaches it.
        for mu, sigma in [(709.78, 0.0), (0.0, MAX_NOISE_SIGMA)]:
            params = NetModelParams(wifi_lognormal_mu=mu, wifi_lognormal_sigma=sigma)
            assert (params.wifi_lognormal_mu, params.wifi_lognormal_sigma) == (mu, sigma)
        for mu, sigma in [(math.nextafter(709.78, math.inf), 0.0),
                          (0.0, math.nextafter(MAX_NOISE_SIGMA, math.inf))]:
            with pytest.raises(ValidationError, match="wifi_lognormal_mu.*wifi_lognormal_sigma"):
                NetModelParams(wifi_lognormal_mu=mu, wifi_lognormal_sigma=sigma)
        # With no Wi-Fi links no uplink is drawn: any finite mu is accepted.
        for mu in (1e308, -1e308):
            params = NetModelParams(wifi_lognormal_mu=mu, wifi_lognormal_sigma=400.0,
                                    wifi_links_per_client=0)
            assert params.wifi_lognormal_mu == mu

    def test_default_target_is_60_percent(self):
        # P(X < 1) = Phi(-mu / sigma) for X = exp(mu + sigma Z).
        params = NetModelParams()
        assert params.wifi_lognormal_mu == -params.wifi_lognormal_sigma * NormalDist().inv_cdf(0.60)


class TestGenerateScenario:
    def test_paper_scale_counts(self):
        scenario = generate_scenario(60, 8, 10, seed=42)
        assert len(scenario.clients) == 60
        assert len(scenario.agg_servers) == 8
        assert len(scenario.origins) == 10

    def test_servers_start_idle(self):
        scenario = generate_scenario(3, 2, 1, seed=0)
        for server in scenario.agg_servers:
            assert server.remaining_capacity_mbps == server.total_capacity_mbps

    def test_deterministic(self):
        a = generate_scenario(12, 4, 3, seed=7)
        b = generate_scenario(12, 4, 3, seed=7)
        assert a == b

    def test_seed_changes_output(self):
        a = generate_scenario(12, 4, 3, seed=7)
        b = generate_scenario(12, 4, 3, seed=8)
        assert a != b

    def test_rejects_zero_counts(self):
        with pytest.raises(ValidationError):
            generate_scenario(0, 1, 1, seed=0)
        with pytest.raises(ValidationError):
            generate_scenario(1, 0, 1, seed=0)

    @pytest.mark.parametrize("position", [0, 1, 2], ids=["n_clients", "m_servers", "k_origins"])
    def test_rejects_a_bool_count(self, position):
        # generate_scenario(True, True, True) once returned one client.
        counts = [3, 2, 2]
        counts[position] = True
        with pytest.raises(ValidationError, match=r"must be a positive integer, got True$"):
            generate_scenario(*counts, seed=0)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, -1, 2**64, "1"])
    def test_rejects_a_seed_that_is_not_a_64_bit_unsigned_int(self, seed):
        # A float seed once built seed 1's clients and saved a file that did not load.
        with pytest.raises(ValidationError,
                           match=re.escape("seed must be an integer in [0, 18446744073709551615]")):
            generate_scenario(3, 2, 2, seed=seed)

    def test_accepts_the_seed_range_ends(self):
        for seed in (0, 2**64 - 1):
            assert generate_scenario(3, 2, 2, seed=seed).seed == seed

    def test_client_sampling_is_per_index(self):
        # Client i does not depend on how many clients exist around it.
        small = generate_scenario(3, 2, 2, seed=5)
        large = generate_scenario(6, 2, 2, seed=5)
        assert small.clients == large.clients[:3]

    def test_link_mix(self):
        params = NetModelParams(wifi_links_per_client=3, cellular_links_per_client=2)
        scenario = generate_scenario(4, 2, 2, params, seed=1)
        for client in scenario.clients:
            kinds = [link.kind for link in client.links]
            assert kinds.count("wifi") == 3
            assert kinds.count("cellular") == 2

    def test_link_mix_needs_one_link(self):
        for wifi, cellular in ((0, 0), (-1, 2), (1, -1), (1.0, 0)):
            with pytest.raises(ValidationError, match="links_per_client"):
                NetModelParams(wifi_links_per_client=wifi, cellular_links_per_client=cellular)

    @pytest.mark.parametrize("field", ["wifi_links_per_client", "cellular_links_per_client"])
    def test_link_mix_rejects_a_bool(self, field):
        # With the other count at 0, True once built one link per client.
        other = ({"wifi_links_per_client", "cellular_links_per_client"} - {field}).pop()
        with pytest.raises(ValidationError, match="links_per_client"):
            NetModelParams(**{field: True, other: 0})

    def test_link_mix_is_capped(self):
        at_cap = NetModelParams(wifi_links_per_client=MAX_LINKS_PER_CLIENT - 1,
                                cellular_links_per_client=1)
        assert at_cap.wifi_links_per_client == MAX_LINKS_PER_CLIENT - 1
        with pytest.raises(ValidationError, match="links_per_client"):
            NetModelParams(wifi_links_per_client=MAX_LINKS_PER_CLIENT, cellular_links_per_client=1)

    def test_cellular_links_within_range(self):
        params = NetModelParams(cellular_uplink_mbps_range=(3.0, 4.0))
        scenario = generate_scenario(20, 2, 2, params, seed=2)
        for client in scenario.clients:
            for link in client.links:
                if link.kind == "cellular":
                    assert 3.0 <= link.uplink_mbps <= 4.0


class TestScenarioFiles:
    def test_round_trip(self, tmp_path):
        scenario = generate_scenario(10, 3, 2, seed=13)
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        assert load_scenario(path) == scenario

    def test_save_is_byte_deterministic(self, tmp_path):
        scenario = generate_scenario(5, 2, 2, seed=3)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_scenario(scenario, p1)
        save_scenario(scenario, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def _dump(self, tmp_path, data):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return path

    def test_duplicate_server_id_names_the_id(self, tmp_path):
        data = encode(generate_scenario(2, 2, 1, seed=0))
        data["agg_servers"][1]["id"] = data["agg_servers"][0]["id"]
        with pytest.raises(ScenarioFormatError, match="s0000"):
            load_scenario(self._dump(tmp_path, data))

    @pytest.mark.parametrize("bad_id", ["o0000", "c0001", "s/0", "s->0", 5, ["s0"]])
    def test_relay_id_shared_with_another_kind_or_holding_a_separator(self, bad_id):
        # A relay named like the origin would share the direct path's tag,
        # cached value and noise draw. An id that is not a str (only the API
        # can pass one) once raised a TypeError from the separator check.
        scenario = generate_scenario(2, 2, 1, seed=0)
        relays = (replace(scenario.agg_servers[0], id=bad_id), *scenario.agg_servers[1:])
        with pytest.raises(ValidationError, match="duplicate id|contains|must be a str") as exc:
            replace(scenario, agg_servers=relays)
        assert repr(bad_id) in str(exc.value)

    @pytest.mark.parametrize("bad_id", ["c0000/wifi0", 5])
    def test_link_id_holding_a_separator(self, bad_id):
        scenario = generate_scenario(2, 2, 1, seed=0)
        client = scenario.clients[0]
        links = (replace(client.links[0], id=bad_id), *client.links[1:])
        clients = (replace(client, links=links), *scenario.clients[1:])
        with pytest.raises(ValidationError, match="contains|must be a str") as exc:
            replace(scenario, clients=clients)
        assert repr(bad_id) in str(exc.value)

    def test_missing_origin_reference_named(self, tmp_path):
        data = encode(generate_scenario(2, 2, 1, seed=0))
        data["clients"][0]["origin_id"] = "o9999"
        with pytest.raises(ScenarioFormatError, match="o9999"):
            load_scenario(self._dump(tmp_path, data))

    def test_unknown_field_rejected(self, tmp_path):
        data = encode(generate_scenario(2, 2, 1, seed=0))
        data["agg_servers"][0]["favourite_color"] = "green"
        with pytest.raises(ScenarioFormatError, match="favourite_color"):
            load_scenario(self._dump(tmp_path, data))

    def test_invalid_capacity_names_entity(self, tmp_path):
        data = encode(generate_scenario(2, 2, 1, seed=0))
        data["agg_servers"][0]["remaining_capacity_mbps"] = 1e9
        with pytest.raises(ScenarioFormatError, match="s0000"):
            load_scenario(self._dump(tmp_path, data))

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioFormatError):
            load_scenario(path)


def _server(sid, lon, total=100.0, remaining=100.0):
    return AggregationServer(
        id=sid, location=GeoPoint(0, lon),
        total_capacity_mbps=total, remaining_capacity_mbps=remaining,
    )


def _network(servers):
    """A network over `servers` and one origin, `o1`."""
    origin = OriginServer(id="o1", location=GeoPoint(0, 0))
    return DistanceDecayNetwork(Scenario((), servers, (origin,), NetModelParams(), 0))


def _load_rates(servers):
    """Each server's load rate before any assignment."""
    return AssignmentLedger(servers, 0.0).load_rates()


class TestCandidateSubset:
    def setup_method(self):
        self.client = BBoxClient(
            id="c",
            location=GeoPoint(0, 0),
            links=(EdgeLink(id="c-l0", kind="wifi", uplink_mbps=1.0),),
            origin_id="o1",
        )

    def pick(self, servers, k, load_threshold):
        chosen = candidate_subset(
            self.client, _network(servers), k, load_threshold, _load_rates(servers)
        )
        return [s.id for s in chosen]

    def test_nearest_k(self):
        servers = [_server("far", 30), _server("near", 1), _server("mid", 10)]
        assert self.pick(servers, k=2, load_threshold=0.1) == ["near", "mid"]

    def test_threshold_filters_nearest(self):
        servers = [_server("near", 1, remaining=5.0), _server("mid", 10)]
        got = self.pick(servers, k=1, load_threshold=0.1)
        assert got == ["mid"]

    def test_all_below_threshold(self):
        servers = [_server("a", 1, remaining=0.0), _server("b", 2, remaining=1.0)]
        assert self.pick(servers, k=3, load_threshold=0.5) == []

    def test_distance_ties_break_by_id(self):
        servers = [_server("b", 5), _server("a", -5)]
        assert self.pick(servers, k=2, load_threshold=0.0) == ["a", "b"]

    def test_fewer_than_k(self):
        servers = [_server("only", 3)]
        assert self.pick(servers, k=5, load_threshold=0.0) == ["only"]

    def test_sorted_by_distance_property(self):
        rng = random.Random(99)
        servers = [_server(f"s{i:02d}", rng.uniform(-179, 179)) for i in range(12)]
        got = self.pick(servers, k=6, load_threshold=0.0)
        by_id = {s.id: s for s in servers}
        distances = [geo_distance_km(self.client.location, by_id[sid].location) for sid in got]
        assert len(got) <= 6
        assert distances == sorted(distances)

    @settings(max_examples=300)
    @given(st.data())
    def test_ranked_walk_equals_filter_then_sort(self, data):
        # Servers often share a position, and the client on the equator's
        # zero meridian sees mirrored servers at equal distances, so the id
        # tie-break is exercised.
        n = data.draw(st.integers(min_value=1, max_value=10))
        lons = data.draw(st.lists(st.sampled_from([-40.0, -5.0, 0.0, 5.0, 40.0, 170.0]),
                                  min_size=n, max_size=n))
        ids = data.draw(st.lists(st.text("abs0123", min_size=1, max_size=3),
                                 min_size=n, max_size=n, unique=True))
        servers = []
        for sid, lon in zip(ids, lons):
            total = data.draw(st.floats(min_value=1.0, max_value=500.0))
            remaining = data.draw(st.floats(min_value=0.0, max_value=1.0)) * total
            servers.append(_server(sid, lon, total=total, remaining=remaining))
        client = BBoxClient(
            id="c",
            location=data.draw(st.just(GeoPoint(0, 0)) | geo_points),
            links=(EdgeLink(id="c-l0", kind="wifi", uplink_mbps=1.0),),
            origin_id="o1",
        )
        k = data.draw(st.integers(min_value=1, max_value=n + 1))
        threshold = data.draw(st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0))
        net = _network(servers)
        load_rates = _load_rates(servers)
        net.ranking(client)
        # Loads change between epochs while the ranking is kept.
        for server in data.draw(st.permutations(servers))[: n // 2]:
            load_rates[server.id] = 0.0
        got = [s.id for s in candidate_subset(client, net, k, threshold, load_rates)]
        assert got == filtered_then_sorted_candidates(client, servers, k, threshold, load_rates)

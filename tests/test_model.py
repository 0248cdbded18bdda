import math
import random

import pytest
from hypothesis import given, strategies as st

from bass_sim.errors import ValidationError
from bass_sim.model import (
    AggregationServer,
    BBoxClient,
    EdgeLink,
    GainEntry,
    GeoPoint,
    OriginServer,
    baseline_bandwidth,
)
from bass_sim.scheduler import AssignmentLedger, measure_gains
from bass_sim.topology import DistanceDecayNetwork, NetModelParams, Scenario

from oracles import FakeNet, baseline_every_link, link_fuzz_scenario, links_drawn

bandwidths = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


def server(total, remaining):
    return AggregationServer(
        id="s", location=GeoPoint(0, 0),
        total_capacity_mbps=total, remaining_capacity_mbps=remaining,
    )


def load_rate(total, remaining):
    """A server's load rate as a ledger with no assignments derives it."""
    return AssignmentLedger([server(total, remaining)], 0.0).load_rates()["s"]


def client_with(uplinks, cid="c", origin_id="o"):
    links = tuple(EdgeLink(id=f"l{i}", kind="wifi", uplink_mbps=u) for i, u in enumerate(uplinks))
    return BBoxClient(id=cid, location=GeoPoint(0, 0), links=links, origin_id=origin_id)


def via(subflows, origin_leg):
    """The via-bandwidth `measure_gains` finds for one client whose links
    carry `subflows` uncapped, through one relay with leg `origin_leg`."""
    client = client_with(subflows)
    net = FakeNet({("c", "s"): subflows}, {("s", "o"): origin_leg})
    (entry,) = measure_gains(client, [server(100.0, 100.0)], net, 0.0)
    return entry.b_via_mbps


def baseline(values, uplinks=None):
    """`baseline_bandwidth` of a client whose direct-path link values are
    `values` (uncapped unless `uplinks` is given), and the links it read."""
    client = client_with(values if uplinks is None else uplinks)
    net = FakeNet({("c", "o"): values})
    return baseline_bandwidth(client, net), [i for _, _, i in net.draws]


class TestAggregatedPathBandwidth:
    """The via-bandwidth: the subflow sum capped by the relay's path to the origin."""

    def test_subflow_sum_binds(self):
        assert via([4.0, 4.0], 50.0) == 8

    def test_origin_path_binds(self):
        assert via([10.0, 10.0], 8.0) == 8

    def test_no_subflows(self):
        assert via([0.0], 100.0) == 0

    @given(st.lists(bandwidths, min_size=1, max_size=8), bandwidths)
    def test_bounded_by_both_arguments(self, xs, y):
        total = 0.0
        for x in xs:
            total += x
        result = via(xs, y)
        assert result <= total
        assert result <= y
        assert result == min(total, y)

    @given(st.lists(bandwidths, min_size=1, max_size=6), bandwidths, bandwidths)
    def test_monotone_in_subflows_and_origin(self, xs, y, bump):
        base = via(xs, y)
        grown = list(xs)
        grown[0] += bump
        assert via(grown, y) >= base
        assert via(xs, y + bump) >= base


class TestBaselineBandwidth:
    def test_max(self):
        assert baseline([3.0, 5.0, 1.0]) == (5.0, [1])

    def test_singleton(self):
        assert baseline([7.0]) == (7.0, [0])

    def test_all_dead_links(self):
        assert baseline([0.0, 0.0]) == (0.0, [0])

    def test_stops_once_no_link_left_can_beat_the_best(self):
        # Uplinks 2, 5, 3; link 1's path caps it at 1, link 2 reaches its
        # uplink 3, and link 0's uplink 2 cannot beat that.
        assert baseline([2.0, 1.0, 3.0], uplinks=[2.0, 5.0, 3.0]) == (3.0, [1, 2])

    def test_tied_uplinks_are_read_by_index(self):
        assert baseline([4.0, 4.0, 2.0], uplinks=[4.0, 4.0, 9.0]) == (4.0, [2, 0])

    def test_signed_zeros_keep_link_0(self):
        # Every value is a zero: `max` over link order returns link 0's,
        # although link 1's uplink is read first.
        value, read = baseline([-0.0, 0.0], uplinks=[-0.0, 5.0])
        assert math.copysign(1.0, value) == -1.0
        assert read == [1, 0]
        # So on a network: half the smallest path rounds to 0.0 on link 1,
        # and link 0's uplink is -0.0.
        params = NetModelParams(base_path_mbps=5e-324, distance_decay_per_1000km=0.0,
                                noise_sigma=0.0, direct_path_factor=0.5)
        client = client_with([-0.0, 5.0])
        scenario = Scenario((client,), (server(100.0, 100.0),),
                            (OriginServer("o", GeoPoint(0, 1)),), params, seed=0)
        expected = baseline_every_link(client, DistanceDecayNetwork(scenario))
        assert math.copysign(1.0, expected) == -1.0
        assert baseline_bandwidth(client, DistanceDecayNetwork(scenario)).hex() == expected.hex()

    @given(st.lists(st.tuples(bandwidths, bandwidths), min_size=1, max_size=8))
    def test_result_is_one_of_the_inputs(self, pairs):
        values = [min(value, uplink) for value, uplink in pairs]
        result, read = baseline(values, uplinks=[uplink for _, uplink in pairs])
        assert result in values
        assert result == max(values)
        assert len(read) == len(set(read))


    def test_lazy_walk_equals_every_link(self):
        # Bit for bit over random link mixes and noise epochs; the walk
        # leaves links undrawn.
        rng = random.Random(61)
        drawn = every = 0
        for case in range(300):
            scenario = link_fuzz_scenario(rng, many_links=case % 10 == 0)
            lazy, full = DistanceDecayNetwork(scenario), DistanceDecayNetwork(scenario)
            epoch = rng.choice([None, case])
            lazy.remeasure(epoch)
            full.remeasure(epoch)
            for client in scenario.clients:
                got = baseline_bandwidth(client, lazy)
                assert got.hex() == baseline_every_link(client, full).hex(), case
                drawn += links_drawn(lazy, client, client.origin_id)
                every += links_drawn(full, client, client.origin_id)
        assert drawn < 0.6 * every


class TestBandwidthGain:
    """GainEntry.gain_mbps: via-bandwidth minus the direct baseline."""

    def test_positive(self):
        assert GainEntry("c", "s", 8.0, 3.0).gain_mbps == 5

    def test_zero(self):
        assert GainEntry("c", "s", 5.0, 5.0).gain_mbps == 0

    def test_negative_detour(self):
        assert GainEntry("c", "s", 4.0, 6.0).gain_mbps == -2


class TestLoadRate:
    """AssignmentLedger.load_rates: remaining over total capacity."""

    def test_half(self):
        assert load_rate(10.0, 5.0) == 0.5

    def test_fully_loaded(self):
        assert load_rate(10.0, 0.0) == 0.0

    def test_idle(self):
        assert load_rate(10.0, 10.0) == 1.0

    def test_rejects_bad_total(self):
        with pytest.raises(ValidationError):
            server(0.0, 0.0)
        with pytest.raises(ValidationError):
            server(-2.0, 1.0)

    def test_rejects_remaining_above_total(self):
        # The ledger does not check; a rate above 1 cannot be built.
        with pytest.raises(ValidationError):
            server(10.0, 11.0)

    @given(st.floats(min_value=1e-9, max_value=1e6, allow_nan=False), st.floats(0.0, 1.0))
    def test_in_unit_interval(self, total, share):
        assert 0.0 <= load_rate(total, min(total, total * share)) <= 1.0


class TestGeoPoint:
    def test_range_validation(self):
        GeoPoint(90, -180)
        with pytest.raises(ValidationError):
            GeoPoint(91, 0)
        with pytest.raises(ValidationError):
            GeoPoint(0, 181)


class TestEdgeLink:
    def test_kind_coercion(self):
        # A kind is kept as the str it was given; nothing converts it.
        link = EdgeLink(id="l1", kind="wifi", uplink_mbps=1.5)
        assert type(link.kind) is str and link.kind == "wifi"

    def test_rejects_negative_uplink(self):
        with pytest.raises(ValidationError):
            EdgeLink(id="l1", kind="wifi", uplink_mbps=-0.1)

    def test_rejects_non_finite_uplink(self):
        for value in (float("inf"), float("nan")):
            with pytest.raises(ValidationError):
                EdgeLink(id="l1", kind="wifi", uplink_mbps=value)


class TestBBoxClient:
    def test_requires_a_link(self):
        with pytest.raises(ValidationError):
            BBoxClient(id="c", location=GeoPoint(0, 0), links=(), origin_id="o")

    def test_rejects_duplicate_link_ids(self):
        # The scenario checks every id, so the client itself hashes none.
        link = EdgeLink(id="l1", kind="wifi", uplink_mbps=1.0)
        client = BBoxClient(id="c", location=GeoPoint(0, 0), links=(link, link), origin_id="o")
        with pytest.raises(ValidationError, match="client 'c' has duplicate link ids"):
            Scenario((client,), (server(100.0, 100.0),), (OriginServer("o", GeoPoint(0, 1)),),
                     NetModelParams(), seed=0)


class TestAggregationServer:
    def test_remaining_bounded_by_total(self):
        with pytest.raises(ValidationError):
            AggregationServer(
                id="s", location=GeoPoint(0, 0),
                total_capacity_mbps=10.0, remaining_capacity_mbps=11.0,
            )

    def test_load_rate_property(self):
        assert load_rate(10.0, 2.5) == 0.25


class TestGainEntry:
    def test_derives_via_and_gain(self):
        entry = GainEntry("c", "s", 5.0, 3.0)
        assert entry.b_via_mbps == 5.0
        assert entry.gain_mbps == 2.0

    def test_negative_gain_allowed(self):
        entry = GainEntry("c", "s", 4.0, 6.0)
        assert entry.gain_mbps == -2.0

    def test_inconsistent_via_rejected(self):
        # An entry holds the measured via-bandwidth and no legs, so it cannot
        # state legs that disagree with it.
        with pytest.raises(TypeError):
            GainEntry(
                client_id="c", server_id="s",
                b_client_server_mbps=5.0, b_server_origin_mbps=50.0,
                b_via_mbps=6.0, b_baseline_mbps=3.0,
            )

    def test_inconsistent_gain_rejected(self):
        with pytest.raises(TypeError):
            GainEntry(
                client_id="c", server_id="s",
                b_via_mbps=5.0, b_baseline_mbps=3.0, gain_mbps=1.0,
            )

    @given(bandwidths, bandwidths)
    def test_reconstruction_is_exact(self, b_via, base):
        entry = GainEntry("c", "s", b_via, base)
        assert entry.gain_mbps == entry.b_via_mbps - entry.b_baseline_mbps

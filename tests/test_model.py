import pytest
from hypothesis import given, strategies as st

from bass_sim.errors import ValidationError
from bass_sim.model import (
    AggregationServer,
    BBoxClient,
    EdgeLink,
    GainEntry,
    GeoPoint,
    LinkKind,
    baseline_bandwidth,
)

bandwidths = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


def server(total, remaining):
    return AggregationServer(
        id="s", location=GeoPoint(0, 0),
        total_capacity_mbps=total, remaining_capacity_mbps=remaining,
    )


class TestAggregatedPathBandwidth:
    """GainEntry.b_via_mbps: the subflow sum capped by the relay's path to the origin."""

    def test_subflow_sum_binds(self):
        assert GainEntry("c", "s", 4.0 + 4.0, 50.0, 0.0).b_via_mbps == 8

    def test_origin_path_binds(self):
        assert GainEntry("c", "s", 10.0 + 10.0, 8.0, 0.0).b_via_mbps == 8

    def test_no_subflows(self):
        assert GainEntry("c", "s", 0.0, 100.0, 0.0).b_via_mbps == 0

    @given(st.lists(bandwidths, max_size=8), bandwidths)
    def test_bounded_by_both_arguments(self, xs, y):
        total = 0.0
        for x in xs:
            total += x
        result = GainEntry("c", "s", total, y, 0.0).b_via_mbps
        assert result <= total
        assert result <= y
        assert result == min(total, y)

    @given(st.lists(bandwidths, min_size=1, max_size=6), bandwidths, bandwidths)
    def test_monotone_in_subflows_and_origin(self, xs, y, bump):
        def via(subflows, origin):
            return GainEntry("c", "s", sum(subflows), origin, 0.0).b_via_mbps

        base = via(xs, y)
        grown = list(xs)
        grown[0] += bump
        assert via(grown, y) >= base
        assert via(xs, y + bump) >= base


class TestBaselineBandwidth:
    def test_max(self):
        assert baseline_bandwidth([3, 5, 1]) == 5

    def test_singleton(self):
        assert baseline_bandwidth([7]) == 7

    def test_all_dead_links(self):
        assert baseline_bandwidth([0, 0]) == 0

    def test_empty_is_invalid(self):
        with pytest.raises(ValidationError):
            baseline_bandwidth([])

    @given(st.lists(bandwidths, min_size=1, max_size=8))
    def test_result_is_one_of_the_inputs(self, xs):
        assert baseline_bandwidth(xs) in xs


class TestBandwidthGain:
    """GainEntry.gain_mbps: via-bandwidth minus the direct baseline."""

    def test_positive(self):
        assert GainEntry("c", "s", 8.0, 50.0, 3.0).gain_mbps == 5

    def test_zero(self):
        assert GainEntry("c", "s", 5.0, 50.0, 5.0).gain_mbps == 0

    def test_negative_detour(self):
        assert GainEntry("c", "s", 4.0, 50.0, 6.0).gain_mbps == -2


class TestLoadRate:
    """AggregationServer.load_rate: remaining over total capacity."""

    def test_half(self):
        assert server(10.0, 5.0).load_rate == 0.5

    def test_fully_loaded(self):
        assert server(10.0, 0.0).load_rate == 0.0

    def test_idle(self):
        assert server(10.0, 10.0).load_rate == 1.0

    def test_rejects_bad_total(self):
        with pytest.raises(ValidationError):
            server(0.0, 0.0)
        with pytest.raises(ValidationError):
            server(-2.0, 1.0)

    def test_rejects_remaining_above_total(self):
        # The property does not check; a rate above 1 cannot be built.
        with pytest.raises(ValidationError):
            server(10.0, 11.0)

    @given(st.floats(min_value=1e-9, max_value=1e6, allow_nan=False), st.floats(0.0, 1.0))
    def test_in_unit_interval(self, total, share):
        assert 0.0 <= server(total, min(total, total * share)).load_rate <= 1.0


class TestGeoPoint:
    def test_range_validation(self):
        GeoPoint(90, -180)
        with pytest.raises(ValidationError):
            GeoPoint(91, 0)
        with pytest.raises(ValidationError):
            GeoPoint(0, 181)


class TestEdgeLink:
    def test_kind_coercion(self):
        link = EdgeLink(id="l1", kind="wifi", uplink_mbps=1.5)
        assert link.kind is LinkKind.WIFI

    def test_rejects_negative_uplink(self):
        with pytest.raises(ValidationError):
            EdgeLink(id="l1", kind=LinkKind.WIFI, uplink_mbps=-0.1)

    def test_rejects_non_finite_uplink(self):
        for value in (float("inf"), float("nan")):
            with pytest.raises(ValidationError):
                EdgeLink(id="l1", kind=LinkKind.WIFI, uplink_mbps=value)


class TestBBoxClient:
    def test_requires_a_link(self):
        with pytest.raises(ValidationError):
            BBoxClient(id="c", location=GeoPoint(0, 0), links=(), origin_id="o")

    def test_rejects_duplicate_link_ids(self):
        link = EdgeLink(id="l1", kind=LinkKind.WIFI, uplink_mbps=1.0)
        with pytest.raises(ValidationError):
            BBoxClient(id="c", location=GeoPoint(0, 0), links=(link, link), origin_id="o")


class TestAggregationServer:
    def test_remaining_bounded_by_total(self):
        with pytest.raises(ValidationError):
            AggregationServer(
                id="s", location=GeoPoint(0, 0),
                total_capacity_mbps=10.0, remaining_capacity_mbps=11.0,
            )

    def test_load_rate_property(self):
        server = AggregationServer(
            id="s", location=GeoPoint(0, 0),
            total_capacity_mbps=10.0, remaining_capacity_mbps=2.5,
        )
        assert server.load_rate == 0.25


class TestGainEntry:
    def test_derives_via_and_gain(self):
        entry = GainEntry("c", "s", 5.0, 50.0, 3.0)
        assert entry.b_via_mbps == 5.0
        assert entry.gain_mbps == 2.0

    def test_negative_gain_allowed(self):
        entry = GainEntry("c", "s", 4.0, 50.0, 6.0)
        assert entry.gain_mbps == -2.0

    def test_inconsistent_via_rejected(self):
        # The derived fields are not constructor arguments, so no entry can
        # state a via-bandwidth that disagrees with its legs.
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
                b_client_server_mbps=5.0, b_server_origin_mbps=50.0,
                b_baseline_mbps=3.0, gain_mbps=1.0,
            )

    @given(bandwidths, bandwidths, bandwidths)
    def test_reconstruction_is_exact(self, b_cs, b_so, base):
        entry = GainEntry("c", "s", b_cs, b_so, base)
        assert entry.b_via_mbps == min(entry.b_client_server_mbps, entry.b_server_origin_mbps)
        assert entry.gain_mbps == entry.b_via_mbps - entry.b_baseline_mbps

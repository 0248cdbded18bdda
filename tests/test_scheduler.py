import random
from dataclasses import FrozenInstanceError

import pytest

from bass_sim.errors import BatchTooLargeError, CapacityConflictError, ValidationError
from bass_sim.model import (
    AggregationServer,
    BBoxClient,
    EdgeLink,
    GainEntry,
    GeoPoint,
)
from bass_sim.scheduler import (
    AllocationPlan,
    Assignment,
    AssignmentLedger,
    RequestBatch,
    _capacity_prices,
    _usable_capacity,
    measure_gains,
    solve_exact,
    solve_greedy,
)

from bass_sim.topology import generate_scenario

from oracles import brute_force_optimum, contended_batch, lagrangian_bound, random_batch


def entry(cid, sid, b_cs, b_so, baseline):
    return GainEntry(cid, sid, b_cs, b_so, baseline)


def batch_of(*entries):
    grouped = {}
    for e in entries:
        grouped.setdefault(e.client_id, []).append(e)
    return RequestBatch.build(grouped)


class FakeNet:
    """Path oracle with fixed tables, for hand-computed cases."""

    def __init__(self, subflows, server_origin):
        self._subflows = subflows          # (client_id, server_id) -> list
        self._server_origin = server_origin  # (server_id, origin_id) -> value

    def subflow_bandwidths(self, client, server):
        return list(self._subflows[(client.id, server.id)])

    def server_origin_bandwidth(self, server, origin_id):
        return self._server_origin[(server.id, origin_id)]


def make_client(cid="c1", uplinks=(2.0, 3.0), origin_id="o1"):
    links = tuple(
        EdgeLink(id=f"{cid}-l{i}", kind="wifi", uplink_mbps=u) for i, u in enumerate(uplinks)
    )
    return BBoxClient(id=cid, location=GeoPoint(0, 0), links=links, origin_id=origin_id)


def make_server(sid, total=100.0, remaining=None):
    return AggregationServer(
        id=sid, location=GeoPoint(0, 10),
        total_capacity_mbps=total,
        remaining_capacity_mbps=total if remaining is None else remaining,
    )


class TestRequestBatch:
    def test_build_sorts_by_gain_then_server(self):
        batch = batch_of(
            entry("c1", "s2", 6, 50, 1),   # gain 5
            entry("c1", "s1", 9, 50, 1),   # gain 8
            entry("c1", "s3", 9, 50, 1),   # gain 8, tie with s1
        )
        assert [e.server_id for e in batch.entries["c1"]] == ["s1", "s3", "s2"]

    def test_constructor_sorts_clients_and_candidates(self):
        entries = {
            "c2": (entry("c2", "s1", 2, 50, 1),),
            "c1": (entry("c1", "s1", 2, 50, 1), entry("c1", "s2", 9, 50, 1)),
        }
        batch = RequestBatch(entries=entries)
        assert list(batch.entries) == ["c1", "c2"]
        assert [e.server_id for e in batch.entries["c1"]] == ["s2", "s1"]

    def test_rejects_entry_filed_under_another_client(self):
        with pytest.raises(ValidationError, match="filed under"):
            RequestBatch(entries={"c1": (entry("c2", "s1", 2, 50, 1),)})

    def test_rejects_duplicate_server(self):
        with pytest.raises(ValidationError):
            batch_of(entry("c1", "s1", 2, 50, 1), entry("c1", "s1", 3, 50, 1))

    def test_counts(self):
        batch = batch_of(
            entry("c1", "s1", 2, 50, 1),
            entry("c1", "s2", 2, 50, 1),
            entry("c2", "s2", 2, 50, 1),
        )
        assert batch.n == 2


class TestMeasureGains:
    def test_hand_computed_uncapped(self):
        # Links 2 and 3, paths to the server uncapped, origin leg 50,
        # best direct link 3: B = 5, via = 5, gain = 2. The subflow sum binds.
        client = make_client()
        server = make_server("s1")
        net = FakeNet(
            subflows={("c1", "s1"): [2.0, 3.0]},
            server_origin={("s1", "o1"): 50.0},
        )
        (got,) = measure_gains(client, [server], net, baseline=3.0)
        assert got.b_client_server_mbps == 5.0
        assert got.b_via_mbps == 5.0
        assert got.b_baseline_mbps == 3.0
        assert got.gain_mbps == 2.0

    def test_origin_leg_binds(self):
        client = make_client()
        server = make_server("s1")
        net = FakeNet(
            subflows={("c1", "s1"): [2.0, 3.0]},
            server_origin={("s1", "o1"): 4.0},
        )
        (got,) = measure_gains(client, [server], net, baseline=3.0)
        assert got.b_via_mbps == 4.0
        assert got.gain_mbps == 1.0

    def test_zero_gain_when_equal_to_direct(self):
        client = make_client(uplinks=(3.0,))
        server = make_server("s1")
        net = FakeNet(
            subflows={("c1", "s1"): [3.0]},
            server_origin={("s1", "o1"): 50.0},
        )
        (got,) = measure_gains(client, [server], net, baseline=3.0)
        assert got.gain_mbps == 0.0

    def test_sorted_by_gain_descending(self):
        client = make_client()
        servers = [make_server("s1"), make_server("s2")]
        net = FakeNet(
            subflows={("c1", "s1"): [2.0, 3.0], ("c1", "s2"): [2.0, 3.0]},
            server_origin={("s1", "o1"): 4.0, ("s2", "o1"): 50.0},
        )
        batch = RequestBatch.build({"c1": measure_gains(client, servers, net, baseline=3.0)})
        assert [e.server_id for e in batch.entries["c1"]] == ["s2", "s1"]

    def test_unknown_origin_propagates(self):
        client = make_client(origin_id="nowhere")
        server = make_server("s1")
        net = FakeNet(subflows={("c1", "s1"): [1.0]}, server_origin={})
        with pytest.raises(KeyError):
            measure_gains(client, [server], net, baseline=1.0)

    def test_empty_candidates_invalid(self):
        with pytest.raises(ValidationError):
            measure_gains(make_client(), [], FakeNet({}, {}), baseline=1.0)


class TestSolveExact:
    def test_capacity_forces_single_assignment(self):
        # Demands 8 and 6 against capacity 10: only the gain-5 client fits.
        batch = batch_of(
            entry("c1", "s1", 8, 50, 3),   # via 8, gain 5
            entry("c2", "s1", 6, 50, 2),   # via 6, gain 4
        )
        plan = solve_exact(batch, {"s1": 10.0}, reserve_mbps=0.0)
        assert plan.assignments == {"c1": Assignment("s1", 8.0, 5.0)}
        assert plan.objective_mbps == 5.0

    def test_two_by_two(self):
        batch = batch_of(
            entry("c1", "s1", 8, 50, 3),   # gain 5
            entry("c1", "s2", 6, 50, 3),   # gain 3
            entry("c2", "s1", 8, 50, 4),   # gain 4
            entry("c2", "s2", 8, 50, 4),   # gain 4
        )
        plan = solve_exact(batch, {"s1": 10.0, "s2": 10.0}, reserve_mbps=0.0)
        assert {c: a.server_id for c, a in plan.assignments.items()} == {"c1": "s1", "c2": "s2"}
        assert plan.objective_mbps == 9.0

    def test_negative_gain_left_unassigned(self):
        batch = batch_of(entry("c1", "s1", 4, 50, 5))
        plan = solve_exact(batch, {"s1": 10.0}, reserve_mbps=0.0)
        assert plan.assignments == {}
        assert plan.objective_mbps == 0.0

    def test_cap_enforced(self):
        entries = [entry(f"c{i:02d}", "s1", 2, 50, 1) for i in range(5)]
        batch = batch_of(*entries)
        with pytest.raises(BatchTooLargeError):
            solve_exact(batch, {"s1": 100.0}, reserve_mbps=0.0, client_cap=4)

    def test_tie_breaks_prefer_smallest_vector(self):
        # Both servers give the same gain; s1 sorts first.
        batch = batch_of(
            entry("c1", "s2", 8, 50, 3),
            entry("c1", "s1", 8, 50, 3),
        )
        plan = solve_exact(batch, {"s1": 100.0, "s2": 100.0}, reserve_mbps=0.0)
        assert plan.assignments["c1"].server_id == "s1"

    def test_matches_brute_force_on_seeded_batches(self):
        rng = random.Random(2024)
        for _ in range(150):
            batch, capacities, reserve = random_batch(rng)
            expected_obj, expected_assign = brute_force_optimum(batch, capacities, reserve)
            plan = solve_exact(batch, capacities, reserve)
            assert plan.objective_mbps == expected_obj
            assert {c: a.server_id for c, a in plan.assignments.items()} == expected_assign

    def test_adding_a_server_never_hurts(self):
        rng = random.Random(55)
        for _ in range(60):
            batch, capacities, reserve = random_batch(rng, n_max=3, m_max=3)
            base = solve_exact(batch, capacities, reserve).objective_mbps
            extended = {
                cid: list(group) + [entry(cid, "s_extra", rng.uniform(0, 20), rng.uniform(0, 20),
                                          group[0].b_baseline_mbps)]
                for cid, group in batch.entries.items()
            }
            if not extended:
                continue
            bigger = RequestBatch.build(extended)
            capacities2 = dict(capacities, s_extra=rng.uniform(1.0, 30.0))
            assert solve_exact(bigger, capacities2, reserve).objective_mbps >= base


def root_prices(batch, capacities, reserve):
    """The capacity prices that solve_exact computes."""
    usable = _usable_capacity(batch, capacities, reserve)
    options = [[e for e in group if e.gain_mbps > 0.0] for group in batch.entries.values()]
    incumbent = solve_greedy(batch, capacities, reserve).objective_mbps
    return _capacity_prices(options, usable, incumbent)


def rounding(objective):
    """What summing the same gains in another order can move an objective by."""
    return 1e-9 * (1.0 + abs(objective))


class TestCapacityPrices:
    def test_exact_matches_brute_force_where_prices_bind(self):
        # The acceptance batches have at most 4 clients, where prices rarely
        # bite; these fill 3 relays of about 20 Mbit/s, so the Lagrangian
        # bound does the pruning.
        rng = random.Random(1981)
        priced = 0
        for _ in range(30):
            batch, capacities, reserve = contended_batch(rng, rng.randint(6, 8))
            prices = root_prices(batch, capacities, reserve)
            priced += any(price > 0.0 for price in prices.values())
            expected_obj, expected_assign = brute_force_optimum(batch, capacities, reserve)
            plan = solve_exact(batch, capacities, reserve)
            assert plan.objective_mbps == expected_obj
            assert {c: a.server_id for c, a in plan.assignments.items()} == expected_assign
        assert priced >= 24  # 29 of 30 here: some relay is priced in most batches

    def test_root_bound_is_an_upper_bound(self):
        rng = random.Random(1975)
        for k in range(200):
            if k % 2:
                batch, capacities, reserve = random_batch(rng, n_max=6, m_max=4)
            else:
                batch, capacities, reserve = contended_batch(rng, rng.randint(1, 10))
            prices = root_prices(batch, capacities, reserve)
            assert all(price >= 0.0 for price in prices.values())
            bound = lagrangian_bound(batch, capacities, reserve, prices)
            optimum = solve_exact(batch, capacities, reserve).objective_mbps
            assert bound >= optimum - rounding(optimum)

    def test_root_bound_is_above_the_milp_optimum(self):
        np = pytest.importorskip("numpy")
        optimize = pytest.importorskip("scipy.optimize")
        rng = random.Random(1971)
        for _ in range(8):
            batch, capacities, reserve = contended_batch(rng, rng.randint(10, 14))
            client_ids = list(batch.entries)
            server_ids = sorted(capacities)
            pairs = [e for group in batch.entries.values() for e in group]
            rows = np.zeros((len(client_ids) + len(server_ids), len(pairs)))
            for j, e in enumerate(pairs):
                rows[client_ids.index(e.client_id), j] = 1.0
                rows[len(client_ids) + server_ids.index(e.server_id), j] = e.b_via_mbps
            upper = [1.0] * len(client_ids) + [capacities[s] - reserve for s in server_ids]
            result = optimize.milp(
                -np.array([e.gain_mbps for e in pairs]),
                constraints=optimize.LinearConstraint(rows, -np.inf, upper),
                integrality=np.ones(len(pairs)),
                bounds=optimize.Bounds(0.0, 1.0),
                options={"mip_rel_gap": 0.0},
            )
            assert result.status == 0
            optimum = -result.fun
            prices = root_prices(batch, capacities, reserve)
            bound = lagrangian_bound(batch, capacities, reserve, prices)
            assert bound >= optimum - rounding(optimum)
            exact = solve_exact(batch, capacities, reserve, client_cap=14).objective_mbps
            assert exact == pytest.approx(optimum, rel=1e-9, abs=1e-9)


class TestSolveGreedy:
    def test_hand_trace_single_server(self):
        # Gain 5 (demand 8) is taken first; demand 6 no longer fits in 2.
        batch = batch_of(
            entry("c1", "s1", 8, 50, 3),
            entry("c2", "s1", 6, 50, 2),
        )
        plan = solve_greedy(batch, {"s1": 10.0}, reserve_mbps=0.0)
        exact = solve_exact(batch, {"s1": 10.0}, reserve_mbps=0.0)
        assert plan == exact

    def test_all_gains_nonpositive(self):
        batch = batch_of(
            entry("c1", "s1", 4, 50, 5),
            entry("c2", "s1", 3, 50, 3),
        )
        plan = solve_greedy(batch, {"s1": 100.0}, reserve_mbps=0.0)
        assert plan.assignments == {}
        assert plan.objective_mbps == 0.0

    def test_never_beats_exact(self):
        rng = random.Random(77)
        for _ in range(200):
            batch, capacities, reserve = random_batch(rng)
            greedy = solve_greedy(batch, capacities, reserve)
            exact = solve_exact(batch, capacities, reserve)
            assert greedy.objective_mbps <= exact.objective_mbps
            assert greedy.objective_mbps >= 0.0

    def test_greedy_can_be_suboptimal(self):
        # Greedy grabs the gain-10 client whose demand 20 blocks the pair
        # (16 + 12 = 28) worth 14 in total.
        batch = batch_of(
            entry("cA", "s1", 20, 50, 10),   # gain 10, demand 20
            entry("cB", "s1", 16, 50, 8),    # gain 8, demand 16
            entry("cC", "s1", 12, 50, 6),    # gain 6, demand 12
        )
        greedy = solve_greedy(batch, {"s1": 30.0}, reserve_mbps=0.0)
        exact = solve_exact(batch, {"s1": 30.0}, reserve_mbps=0.0)
        assert greedy.objective_mbps == 10.0
        assert exact.objective_mbps == 14.0

    def test_deterministic(self):
        rng = random.Random(31)
        batch, capacities, reserve = random_batch(rng)
        assert solve_greedy(batch, capacities, reserve) == solve_greedy(batch, capacities, reserve)

    def test_gain_ties_break_by_client_then_server(self):
        # Identical gains; capacity fits one demand only.
        batch = batch_of(
            entry("c2", "s1", 8, 50, 3),
            entry("c1", "s1", 8, 50, 3),
        )
        plan = solve_greedy(batch, {"s1": 8.0}, reserve_mbps=0.0)
        assert list(plan.assignments) == ["c1"]


class TestPlanInvariants:
    def test_objective_recomputable_from_batch(self):
        rng = random.Random(5)
        for _ in range(50):
            batch, capacities, reserve = random_batch(rng)
            plan = solve_greedy(batch, capacities, reserve)
            lookup = {
                (e.client_id, e.server_id): e.gain_mbps
                for group in batch.entries.values()
                for e in group
            }
            total = 0.0
            for cid in sorted(plan.assignments):
                total += lookup[(cid, plan.assignments[cid].server_id)]
            assert total == plan.objective_mbps

    def test_one_server_per_client(self):
        rng = random.Random(6)
        for _ in range(50):
            batch, capacities, reserve = random_batch(rng)
            plan = solve_exact(batch, capacities, reserve)
            assert len(plan.assignments) == len(set(plan.assignments))
            for cid, assignment in plan.assignments.items():
                candidate_servers = {e.server_id for e in batch.entries[cid]}
                assert assignment.server_id in candidate_servers

    def test_feasibility_of_both_solvers(self):
        rng = random.Random(7)
        for _ in range(100):
            batch, capacities, reserve = random_batch(rng)
            for solver in (solve_exact, solve_greedy):
                plan = solver(batch, capacities, reserve)
                per_server = {}
                for a in plan.assignments.values():
                    per_server.setdefault(a.server_id, []).append(a.demand_mbps)
                for sid, demands in per_server.items():
                    assert sum(demands) <= capacities[sid] - reserve + 1e-9


class TestLedger:
    def test_apply_decrements(self):
        server = make_server("s1", total=10.0)
        ledger = AssignmentLedger([server], reserve_mbps=0.0)
        plan = AllocationPlan({"c1": Assignment("s1", 8.0, 5.0)})
        ledger.apply(plan)
        assert ledger.remaining()["s1"] == 2.0

    def test_empty_plan_no_change(self):
        server = make_server("s1", total=10.0)
        ledger = AssignmentLedger([server], reserve_mbps=0.0)
        ledger.apply(AllocationPlan({}))
        assert ledger.remaining()["s1"] == 10.0

    def test_reserve_boundary_accepted_at_equality(self):
        # Two demands of 10 and 6 against remaining 20 with reserve 4:
        # 16 == 20 - 4 sits exactly on the boundary and is accepted.
        server = make_server("s1", total=20.0)
        ledger = AssignmentLedger([server], reserve_mbps=4.0)
        plan = AllocationPlan({
            "c1": Assignment("s1", 10.0, 1.0),
            "c2": Assignment("s1", 6.0, 1.0),
        })
        ledger.apply(plan)
        assert ledger.remaining()["s1"] == 4.0

    def test_reserve_boundary_rejected_above(self):
        server = make_server("s1", total=20.0)
        ledger = AssignmentLedger([server], reserve_mbps=4.0)
        plan = AllocationPlan({
            "c1": Assignment("s1", 10.0, 1.0),
            "c2": Assignment("s1", 7.0, 1.0),
        })
        with pytest.raises(CapacityConflictError):
            ledger.apply(plan)
        # No partial application.
        assert ledger.remaining()["s1"] == 20.0
        assert ledger.assignment_of("c1") is None and ledger.assignment_of("c2") is None

    def test_release_restores_exactly(self):
        server = make_server("s1", total=10.0, remaining=9.3)
        ledger = AssignmentLedger([server], reserve_mbps=0.0)
        plan = AllocationPlan({
            "c1": Assignment("s1", 3.7, 1.0),
            "c2": Assignment("s1", 2.2, 1.0),
        })
        ledger.apply(plan)
        ledger.release("c1")
        ledger.release("c2")
        assert ledger.remaining()["s1"] == 9.3

    def test_double_release_errors(self):
        server = make_server("s1", total=10.0)
        ledger = AssignmentLedger([server], reserve_mbps=0.0)
        ledger.apply(AllocationPlan({"c1": Assignment("s1", 1.0, 1.0)}))
        ledger.release("c1")
        with pytest.raises(ValidationError):
            ledger.release("c1")

    def test_release_unassigned_errors(self):
        ledger = AssignmentLedger([make_server("s1")], reserve_mbps=0.0)
        with pytest.raises(ValidationError):
            ledger.release("ghost")

    def test_double_assignment_conflicts(self):
        ledger = AssignmentLedger([make_server("s1")], reserve_mbps=0.0)
        plan = AllocationPlan({"c1": Assignment("s1", 1.0, 1.0)})
        ledger.apply(plan)
        with pytest.raises(CapacityConflictError):
            ledger.apply(plan)

    def test_stale_plan_conflicts(self):
        server = make_server("s1", total=10.0)
        ledger = AssignmentLedger([server], reserve_mbps=0.0)
        ledger.apply(AllocationPlan({"c1": Assignment("s1", 9.0, 1.0)}))
        stale = AllocationPlan({"c2": Assignment("s1", 5.0, 1.0)})
        with pytest.raises(CapacityConflictError):
            ledger.apply(stale)

    def test_random_apply_release_round_trips(self):
        rng = random.Random(404)
        for _ in range(50):
            batch, capacities, reserve = random_batch(rng)
            servers = [
                make_server(sid, total=max(cap, 1e-6), remaining=max(cap, 1e-6) if cap > 0 else 0.0)
                for sid, cap in capacities.items()
            ]
            initial = {s.id: s.remaining_capacity_mbps for s in servers}
            ledger = AssignmentLedger(servers, reserve)
            plan = solve_greedy(batch, ledger.capacities, reserve)
            ledger.apply(plan)
            for cid in sorted(plan.assignments):
                ledger.release(cid)
            assert ledger.remaining() == initial

    def test_leaves_scenario_servers_unchanged(self):
        # A run derives loads from its ledger; the scenario's relays keep
        # their starting capacity.
        scenario = generate_scenario(2, 2, 1, seed=0)
        servers = scenario.agg_servers
        ledger = AssignmentLedger(servers, reserve_mbps=0.0)
        ledger.apply(AllocationPlan({"c0000": Assignment("s0000", 7.5, 1.0)}))
        assert [s.remaining_capacity_mbps for s in servers] == [200.0, 200.0]
        assert ledger.remaining() == {"s0000": 192.5, "s0001": 200.0}
        ledger.release("c0000")
        assert [s.remaining_capacity_mbps for s in servers] == [200.0, 200.0]
        with pytest.raises(FrozenInstanceError):
            scenario.agg_servers[0].remaining_capacity_mbps = 0.0

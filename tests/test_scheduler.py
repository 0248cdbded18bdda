import random
from dataclasses import FrozenInstanceError

import pytest

from bass_sim.errors import BatchTooLargeError, CapacityConflictError
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
    measure_gains,
    random_policy,
    solve_exact,
    solve_greedy,
)

from bass_sim.sim import POLICIES, SimConfig
from bass_sim.topology import DistanceDecayNetwork, generate_scenario

from oracles import (
    FakeNet,
    baseline_every_link,
    brute_force_optimum,
    contended_batch,
    lagrangian_bound,
    link_fuzz_scenario,
    links_drawn,
    measure_every_link,
    random_batch,
    random_instance,
)


def entry(cid, sid, b_via, baseline):
    return GainEntry(cid, sid, b_via, baseline)


def batch_of(*entries):
    grouped = {}
    for e in entries:
        grouped.setdefault(e.client_id, []).append(e)
    return RequestBatch.build(grouped)


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
    def test_constructor_sorts_clients_and_candidates(self):
        # Only the clients are sorted; each solver orders the candidates it walks.
        entries = {
            "c2": (entry("c2", "s1", 2, 1),),
            "c1": (entry("c1", "s1", 2, 1), entry("c1", "s2", 9, 1)),
        }
        batch = RequestBatch(entries=entries)
        assert list(batch.entries) == ["c1", "c2"]
        assert batch.entries["c1"] == entries["c1"]

    def test_counts(self):
        batch = batch_of(
            entry("c1", "s1", 2, 1),
            entry("c1", "s2", 2, 1),
            entry("c2", "s2", 2, 1),
        )
        assert batch.n == 2

    def test_empty_group_is_kept_and_counted(self):
        # A client whose every candidate measure_gains left out still requested.
        batch = RequestBatch(entries={"c2": (entry("c2", "s1", 2, 1),), "c1": ()})
        assert batch.entries == {"c1": (), "c2": (entry("c2", "s1", 2, 1),)}
        assert batch.n == 2


def entry_bits(entries):
    """Entries with every float as its exact bits."""
    return [(e.client_id, e.server_id, e.b_via_mbps.hex(), e.b_baseline_mbps.hex(),
             e.gain_mbps.hex()) for e in entries]


class TestMeasureGains:
    def test_hand_computed_uncapped(self):
        # Links 2 and 3, paths to the server uncapped, origin leg 50,
        # best direct link 3: B = 5, via = 5, gain = 2. The subflow sum binds.
        client = make_client()
        server = make_server("s1")
        net = FakeNet({("c1", "s1"): [2.0, 3.0]}, {("s1", "o1"): 50.0})
        (got,) = measure_gains(client, [server], net, baseline=3.0)
        assert got.b_via_mbps == 5.0
        assert got.b_baseline_mbps == 3.0
        assert got.gain_mbps == 2.0
        # Both links drawn, the larger uplink first.
        assert net.draws == [("c1", "s1", 1), ("c1", "s1", 0)]

    def test_origin_leg_binds(self):
        client = make_client()
        server = make_server("s1")
        net = FakeNet({("c1", "s1"): [2.0, 3.0]}, {("s1", "o1"): 4.0})
        (got,) = measure_gains(client, [server], net, baseline=3.0)
        assert got.b_via_mbps == 4.0
        assert got.gain_mbps == 1.0

    def test_stops_drawing_once_the_drawn_links_reach_the_leg(self):
        # Link 1 alone carries 3 >= the leg 2.5, so the via-bandwidth is
        # the leg, whatever link 0 carries; it is never drawn.
        net = FakeNet({("c1", "s1"): [2.0, 3.0]}, {("s1", "o1"): 2.5})
        (got,) = measure_gains(make_client(), [make_server("s1")], net, baseline=1.0)
        assert got.b_via_mbps == 2.5
        assert net.draws == [("c1", "s1", 1)]

    def test_zero_gain_when_equal_to_direct(self):
        client = make_client(uplinks=(3.0,))
        server = make_server("s1")
        net = FakeNet({("c1", "s1"): [3.0]}, {("s1", "o1"): 50.0})
        (got,) = measure_gains(client, [server], net, baseline=3.0)
        assert got.gain_mbps == 0.0

    def test_keeps_the_candidates_order(self):
        # s1 gains 1 and s2 gains 2: the entries come in the order offered,
        # not by gain.
        client = make_client()
        servers = [make_server("s1"), make_server("s2")]
        net = FakeNet(
            {("c1", "s1"): [2.0, 3.0], ("c1", "s2"): [2.0, 3.0]},
            {("s1", "o1"): 4.0, ("s2", "o1"): 50.0},
        )
        for offered in (servers, servers[::-1]):
            got = measure_gains(client, offered, net, baseline=3.0)
            assert [e.server_id for e in got] == [s.id for s in offered]
        assert [e.gain_mbps for e in got] == [2.0, 1.0]

    def test_unknown_origin_propagates(self):
        client = make_client(origin_id="nowhere")
        server = make_server("s1")
        net = FakeNet({("c1", "s1"): [1.0, 1.0]})
        with pytest.raises(KeyError):
            measure_gains(client, [server], net, baseline=1.0)

    @staticmethod
    def two_candidates(s1_origin_leg, s1_links=(2.0, 3.0)):
        # s2's origin leg 50 beats the baseline 3; s1's leg is the parameter.
        net = FakeNet(
            {("c1", "s1"): list(s1_links), ("c1", "s2"): [2.0, 3.0]},
            {("s1", "o1"): s1_origin_leg, ("s2", "o1"): 50.0},
        )
        return [make_server("s1"), make_server("s2")], net

    @pytest.mark.parametrize("leg", [2.0, 3.0], ids=["below", "equal"])
    def test_skips_a_candidate_whose_origin_leg_rules_out_a_gain(self, leg):
        # Leg at most the baseline 3 and the usable 10: gain <= 0 and it fits,
        # whatever the subflows, so none is drawn.
        servers, net = self.two_candidates(leg)
        got = measure_gains(make_client(), servers, net, 3.0, {"s1": 10.0, "s2": 10.0})
        assert [e.server_id for e in got] == ["s2"]
        assert net.draws == [("c1", "s2", 1), ("c1", "s2", 0)]

    def test_skips_once_the_drawn_links_rule_out_a_gain(self):
        # Link 1 carries 0.5 of its uplink 3, so the sum is at most
        # 2 + 0.5 <= the baseline 3, whatever link 0 carries.
        servers, net = self.two_candidates(50.0, s1_links=(2.0, 0.5))
        got = measure_gains(make_client(), servers, net, 3.0, {"s1": 10.0, "s2": 10.0})
        assert [e.server_id for e in got] == ["s2"]
        assert net.draws == [("c1", "s1", 1), ("c1", "s2", 1), ("c1", "s2", 0)]

    @pytest.mark.parametrize(
        "leg, usable, s1_draws",
        [(3.5, 10.0, [1, 0]), (2.0, 1.5, [1]), (2.0, -5.0, [1])],
        ids=["leg-above-baseline", "leg-above-usable", "reserve-above-capacity"],
    )
    def test_keeps_a_candidate_that_can_gain_or_may_not_fit(self, leg, usable, s1_draws):
        servers, net = self.two_candidates(leg)
        got = measure_gains(make_client(), servers, net, 3.0, {"s1": usable, "s2": 10.0})
        assert [e.server_id for e in got] == ["s1", "s2"]
        assert got[0].b_via_mbps == leg
        assert net.draws == [("c1", "s1", i) for i in s1_draws] + [("c1", "s2", 1), ("c1", "s2", 0)]

    def test_without_usable_measures_every_candidate(self):
        # How a run measures for a policy that reads entries that cannot gain.
        servers, net = self.two_candidates(2.0)
        got = measure_gains(make_client(), servers, net, 3.0)
        assert [(e.server_id, e.gain_mbps) for e in got] == [("s1", -1.0), ("s2", 2.0)]
        assert net.draws == [("c1", "s1", 1), ("c1", "s2", 1), ("c1", "s2", 0)]

    @pytest.mark.parametrize(
        "links, leg, baseline",
        [
            ((0.1, 0.2), 0.1 + 0.2, 0.0),
            # Drawn largest first, 0.3 + 0.2 + 0.1 == 0.6 is below the leg;
            # in link order the sum reaches it.
            ((0.1, 0.2, 0.3), 0.1 + 0.2 + 0.3, 0.0),
            ((0.3, 0.2, 0.1), 0.1 + 0.2 + 0.3, 0.0),
            # The sum 0.1 + 0.2 is one ulp above the baseline 0.3: a gain.
            ((0.1, 0.2), 1.0, 0.3),
            ((0.1, 0.2), 1.0, 0.1 + 0.2),
        ],
    )
    def test_float_boundaries_match_every_link(self, links, leg, baseline):
        client = make_client(uplinks=links)
        tables = {("c1", "s1"): list(links)}, {("s1", "o1"): leg}
        expected = measure_every_link(client, [make_server("s1")], FakeNet(*tables), baseline)
        got = measure_gains(client, [make_server("s1")], FakeNet(*tables), baseline)
        assert entry_bits(got) == entry_bits(expected)
        kept = [e for e in expected if e.gain_mbps > 0.0]
        got = measure_gains(client, [make_server("s1")], FakeNet(*tables), baseline, {"s1": 10.0})
        assert entry_bits(got) == entry_bits(kept)

    def test_lazy_via_equals_every_link(self):
        # Bit for bit over random link mixes, with and without `usable`;
        # the lazy reads leave links undrawn.
        rng = random.Random(62)
        drawn = {"every": 0, "all entries": 0, "within usable": 0}
        left_out = 0
        for case in range(300):
            scenario = link_fuzz_scenario(rng, many_links=case % 10 == 0)
            full, lazy, lazy_usable = (DistanceDecayNetwork(scenario) for _ in range(3))
            servers = scenario.agg_servers
            for client in scenario.clients:
                baseline = baseline_every_link(client, full)
                expected = measure_every_link(client, servers, full, baseline)
                got = measure_gains(client, servers, lazy, baseline)
                assert entry_bits(got) == entry_bits(expected), case
                usable = {s.id: rng.choice([-1.0, rng.uniform(0.0, 20.0), 1e9]) for s in servers}
                kept = [e for e in expected
                        if e.gain_mbps > 0.0 or e.b_via_mbps > usable[e.server_id]]
                got = measure_gains(client, servers, lazy_usable, baseline, usable)
                assert entry_bits(got) == entry_bits(kept), case
                left_out += len(expected) - len(kept)
                for name, net in (("every", full), ("all entries", lazy),
                                  ("within usable", lazy_usable)):
                    drawn[name] += sum(links_drawn(net, client, s.id) for s in servers)
        assert drawn["all entries"] < 0.5 * drawn["every"]
        assert drawn["within usable"] < 0.85 * drawn["all entries"]
        assert left_out > 500


class TestSolveExact:
    def test_capacity_forces_single_assignment(self):
        # Demands 8 and 6 against capacity 10: only the gain-5 client fits.
        batch = batch_of(
            entry("c1", "s1", 8, 3),   # via 8, gain 5
            entry("c2", "s1", 6, 2),   # via 6, gain 4
        )
        plan = solve_exact(batch, {"s1": 10.0})
        assert plan.assignments == {"c1": Assignment("s1", 8.0, 5.0)}
        assert plan.objective_mbps == 5.0

    def test_two_by_two(self):
        batch = batch_of(
            entry("c1", "s1", 8, 3),   # gain 5
            entry("c1", "s2", 6, 3),   # gain 3
            entry("c2", "s1", 8, 4),   # gain 4
            entry("c2", "s2", 8, 4),   # gain 4
        )
        plan = solve_exact(batch, {"s1": 10.0, "s2": 10.0})
        assert {c: a.server_id for c, a in plan.assignments.items()} == {"c1": "s1", "c2": "s2"}
        assert plan.objective_mbps == 9.0

    def test_negative_gain_left_unassigned(self):
        batch = batch_of(entry("c1", "s1", 4, 5))
        plan = solve_exact(batch, {"s1": 10.0})
        assert plan.assignments == {}
        assert plan.objective_mbps == 0.0

    def test_cap_enforced(self):
        entries = [entry(f"c{i:02d}", "s1", 2, 1) for i in range(5)]
        batch = batch_of(*entries)
        with pytest.raises(BatchTooLargeError):
            solve_exact(batch, {"s1": 100.0}, client_cap=4)

    def test_tie_breaks_prefer_smallest_vector(self):
        # Both servers give the same gain; s1 sorts first.
        batch = batch_of(
            entry("c1", "s2", 8, 3),
            entry("c1", "s1", 8, 3),
        )
        plan = solve_exact(batch, {"s1": 100.0, "s2": 100.0})
        assert plan.assignments["c1"].server_id == "s1"

    def test_matches_brute_force_on_seeded_batches(self):
        rng = random.Random(2024)
        for _ in range(150):
            batch, usable = random_batch(rng)
            expected_obj, expected_assign = brute_force_optimum(batch, usable)
            plan = solve_exact(batch, usable)
            assert plan.objective_mbps == expected_obj
            assert {c: a.server_id for c, a in plan.assignments.items()} == expected_assign

    def test_matches_brute_force_on_tie_heavy_batches(self):
        # Small integer bandwidths make equal-objective optima common, so
        # the smallest-vector tie-break is exercised across many clients.
        for i in range(2000):
            rng = random.Random(i)
            server_ids = [f"s{j}" for j in range(rng.randint(2, 3))]
            usable = {sid: float(rng.randint(0, 12)) for sid in server_ids}
            entries = {}
            for c in range(rng.randint(3, 8)):
                cid = f"c{c}"
                baseline = rng.randint(0, 3)
                entries[cid] = [
                    entry(cid, sid, min(rng.randint(0, 6), rng.randint(0, 6)), baseline)
                    for sid in rng.sample(server_ids, rng.randint(1, len(server_ids)))
                ]
            batch = RequestBatch.build(entries)
            expected_obj, expected_assign = brute_force_optimum(batch, usable)
            plan = solve_exact(batch, usable)
            assert plan.objective_mbps == expected_obj
            assert {c: a.server_id for c, a in plan.assignments.items()} == expected_assign

    def test_adding_a_server_never_hurts(self):
        rng = random.Random(55)
        for _ in range(60):
            batch, capacities, reserve = random_instance(rng, n_max=3, m_max=3)
            usable = {sid: cap - reserve for sid, cap in capacities.items()}
            base = solve_exact(batch, usable).objective_mbps
            extended = {
                cid: list(group) + [entry(cid, "s_extra", min(rng.uniform(0, 20), rng.uniform(0, 20)),
                                          group[0].b_baseline_mbps)]
                for cid, group in batch.entries.items()
            }
            if not extended:
                continue
            bigger = RequestBatch.build(extended)
            usable2 = dict(usable, s_extra=rng.uniform(1.0, 30.0) - reserve)
            assert solve_exact(bigger, usable2).objective_mbps >= base


def root_prices(batch, usable):
    """The capacity prices that solve_exact computes."""
    options = [[e for e in group if e.gain_mbps > 0.0] for group in batch.entries.values()]
    incumbent = solve_greedy(batch, usable).objective_mbps
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
            batch, usable = contended_batch(rng, rng.randint(6, 8))
            prices = root_prices(batch, usable)
            priced += any(price > 0.0 for price in prices.values())
            expected_obj, expected_assign = brute_force_optimum(batch, usable)
            plan = solve_exact(batch, usable)
            assert plan.objective_mbps == expected_obj
            assert {c: a.server_id for c, a in plan.assignments.items()} == expected_assign
        assert priced >= 24  # 29 of 30 here: some relay is priced in most batches

    def test_root_bound_is_an_upper_bound(self):
        rng = random.Random(1975)
        for k in range(200):
            if k % 2:
                batch, usable = random_batch(rng, n_max=6, m_max=4)
            else:
                batch, usable = contended_batch(rng, rng.randint(1, 10))
            prices = root_prices(batch, usable)
            assert all(price >= 0.0 for price in prices.values())
            bound = lagrangian_bound(batch, usable, prices)
            optimum = solve_exact(batch, usable).objective_mbps
            assert bound >= optimum - rounding(optimum)

    def test_root_bound_is_above_the_milp_optimum(self):
        np = pytest.importorskip("numpy")
        optimize = pytest.importorskip("scipy.optimize")
        rng = random.Random(1971)
        for _ in range(8):
            batch, usable = contended_batch(rng, rng.randint(10, 14))
            client_ids = list(batch.entries)
            server_ids = sorted(usable)
            pairs = [e for group in batch.entries.values() for e in group]
            rows = np.zeros((len(client_ids) + len(server_ids), len(pairs)))
            for j, e in enumerate(pairs):
                rows[client_ids.index(e.client_id), j] = 1.0
                rows[len(client_ids) + server_ids.index(e.server_id), j] = e.b_via_mbps
            upper = [1.0] * len(client_ids) + [usable[s] for s in server_ids]
            result = optimize.milp(
                -np.array([e.gain_mbps for e in pairs]),
                constraints=optimize.LinearConstraint(rows, -np.inf, upper),
                integrality=np.ones(len(pairs)),
                bounds=optimize.Bounds(0.0, 1.0),
                options={"mip_rel_gap": 0.0},
            )
            assert result.status == 0
            optimum = -result.fun
            prices = root_prices(batch, usable)
            bound = lagrangian_bound(batch, usable, prices)
            assert bound >= optimum - rounding(optimum)
            exact = solve_exact(batch, usable, client_cap=14).objective_mbps
            assert exact == pytest.approx(optimum, rel=1e-9, abs=1e-9)


class TestSolveGreedy:
    def test_hand_trace_single_server(self):
        # Gain 5 (demand 8) is taken first; demand 6 no longer fits in 2.
        batch = batch_of(
            entry("c1", "s1", 8, 3),
            entry("c2", "s1", 6, 2),
        )
        plan = solve_greedy(batch, {"s1": 10.0})
        exact = solve_exact(batch, {"s1": 10.0})
        assert plan == exact

    def test_all_gains_nonpositive(self):
        batch = batch_of(
            entry("c1", "s1", 4, 5),
            entry("c2", "s1", 3, 3),
        )
        plan = solve_greedy(batch, {"s1": 100.0})
        assert plan.assignments == {}
        assert plan.objective_mbps == 0.0

    def test_never_beats_exact(self):
        rng = random.Random(77)
        for _ in range(200):
            batch, usable = random_batch(rng)
            greedy = solve_greedy(batch, usable)
            exact = solve_exact(batch, usable)
            assert greedy.objective_mbps <= exact.objective_mbps
            assert greedy.objective_mbps >= 0.0

    def test_greedy_can_be_suboptimal(self):
        # Greedy grabs the gain-10 client whose demand 20 blocks the pair
        # (16 + 12 = 28) worth 14 in total.
        batch = batch_of(
            entry("cA", "s1", 20, 10),   # gain 10, demand 20
            entry("cB", "s1", 16, 8),    # gain 8, demand 16
            entry("cC", "s1", 12, 6),    # gain 6, demand 12
        )
        greedy = solve_greedy(batch, {"s1": 30.0})
        exact = solve_exact(batch, {"s1": 30.0})
        assert greedy.objective_mbps == 10.0
        assert exact.objective_mbps == 14.0

    def test_deterministic(self):
        rng = random.Random(31)
        batch, usable = random_batch(rng)
        assert solve_greedy(batch, usable) == solve_greedy(batch, usable)

    def test_gain_ties_break_by_client_then_server(self):
        # Identical gains; capacity fits one demand only.
        batch = batch_of(
            entry("c2", "s1", 8, 3),
            entry("c1", "s1", 8, 3),
        )
        plan = solve_greedy(batch, {"s1": 8.0})
        assert list(plan.assignments) == ["c1"]


class TestPlanInvariants:
    def test_objective_recomputable_from_batch(self):
        rng = random.Random(5)
        for _ in range(50):
            batch, usable = random_batch(rng)
            plan = solve_greedy(batch, usable)
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
            batch, usable = random_batch(rng)
            plan = solve_exact(batch, usable)
            assert len(plan.assignments) == len(set(plan.assignments))
            for cid, assignment in plan.assignments.items():
                candidate_servers = {e.server_id for e in batch.entries[cid]}
                assert assignment.server_id in candidate_servers

    def test_feasibility_of_both_solvers(self):
        rng = random.Random(7)
        for _ in range(100):
            batch, usable = random_batch(rng)
            for solver in (solve_exact, solve_greedy):
                plan = solver(batch, usable)
                per_server = {}
                for a in plan.assignments.values():
                    per_server.setdefault(a.server_id, []).append(a.demand_mbps)
                for sid, demands in per_server.items():
                    assert sum(demands) <= usable[sid] + 1e-9

    def test_plans_do_not_depend_on_the_order_within_a_group(self):
        # The batch keeps each group as given; each solver orders what it walks.
        rng = random.Random(19)
        instances = [random_batch(rng) for _ in range(300)]
        instances += [contended_batch(rng, rng.randint(4, 9)) for _ in range(30)]
        reordered = 0
        for batch, usable in instances:
            shuffled = {}
            for cid, group in batch.entries.items():
                shuffled[cid] = rng.sample(group, len(group))
                reordered += shuffled[cid] != list(group)
            other = RequestBatch.build(shuffled)
            assert solve_greedy(other, usable) == solve_greedy(batch, usable)
            assert solve_exact(other, usable) == solve_exact(batch, usable)
            for seed in range(5):
                assert random_policy(other, usable, seed) == random_policy(batch, usable, seed)
        assert reordered > 300


def without_entries_that_cannot_gain(batch, usable):
    """The batch less every entry with gain <= 0 that fits its server."""
    return RequestBatch({
        cid: tuple(e for e in group if e.gain_mbps > 0.0 or e.b_via_mbps > usable[e.server_id])
        for cid, group in batch.entries.items()
    })


class TestEntriesThatCannotGain:
    """What measure_gains may leave out for the BASS solvers, and why not for random."""

    def test_dropping_them_changes_no_bass_plan(self):
        rng = random.Random(17)
        instances = [random_batch(rng) for _ in range(300)]
        instances += [contended_batch(rng, rng.randint(4, 9)) for _ in range(30)]
        dropped = random_changed = 0
        for batch, usable in instances:
            smaller = without_entries_that_cannot_gain(batch, usable)
            dropped += sum(map(len, batch.entries.values())) - sum(map(len, smaller.entries.values()))
            assert solve_greedy(smaller, usable) == solve_greedy(batch, usable)
            assert solve_exact(smaller, usable) == solve_exact(batch, usable)
            random_changed += random_policy(smaller, usable, 3) != random_policy(batch, usable, 3)
        assert dropped > 100
        # random draws among every entry that fits, so it must see them all.
        assert random_changed > 10

    def test_only_random_reads_every_entry(self):
        assert {name for name, p in POLICIES.items() if p.reads_every_entry} == {"random"}

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_every_solver_leaves_an_empty_group_unassigned(self, policy):
        batch = RequestBatch({"c1": (), "c2": (entry("c2", "s1", 8, 3),)})
        plan = POLICIES[policy].solve(batch, {"s1": 10.0}, SimConfig(policy=policy), 0)
        assert plan.assignments == {"c2": Assignment("s1", 8.0, 5.0)}


class TestLedger:
    def test_apply_decrements(self):
        server = make_server("s1", total=10.0)
        ledger = AssignmentLedger([server], reserve_mbps=0.0)
        plan = AllocationPlan({"c1": Assignment("s1", 8.0, 5.0)})
        ledger.apply(plan)
        assert ledger.held == plan.assignments
        assert ledger.load_rates() == {"s1": 2.0 / 10.0}

    def test_empty_plan_no_change(self):
        server = make_server("s1", total=10.0)
        ledger = AssignmentLedger([server], reserve_mbps=0.0)
        ledger.apply(AllocationPlan({}))
        assert ledger.held == {}
        assert ledger.load_rates() == {"s1": 1.0}

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
        assert ledger.held == plan.assignments
        assert ledger.load_rates() == {"s1": 4.0 / 20.0}

    def test_reserve_boundary_rejected_above(self):
        server = make_server("s1", total=20.0)
        ledger = AssignmentLedger([server], reserve_mbps=4.0)
        plan = AllocationPlan({
            "c1": Assignment("s1", 10.0, 1.0),
            "c2": Assignment("s1", 7.0, 1.0),
        })
        with pytest.raises(CapacityConflictError):
            ledger.apply(plan)
        # Nothing of a refused plan is held.
        assert ledger.held == {}
        assert ledger.load_rates() == {"s1": 1.0}

    def test_exact_fill_of_a_greedy_plan_is_accepted(self):
        # Greedy takes these in gain order and they fill the relay exactly;
        # summed in client order they land within an ulp of its capacity.
        batch = batch_of(
            entry("c2", "s1", 4.7, 0.0),
            entry("c3", "s1", 2.7, 0.0),
            entry("c1", "s1", 12.600000000000001, 10.0),
        )
        ledger = AssignmentLedger([make_server("s1", total=20.0)], reserve_mbps=0.0)
        plan = solve_greedy(batch, ledger.usable)
        assert set(plan.assignments) == {"c1", "c2", "c3"}
        ledger.apply(plan)
        assert ledger.held == plan.assignments

    def test_exact_fill_of_a_large_relay_is_accepted(self):
        # The same at 1e9 Mbit/s, where one ulp is about 1.2e-7: an absolute
        # slack of 1e-9 refused this plan.
        batch = batch_of(
            entry("c3", "s1", 228307507.1709431, 0.0),
            entry("c0", "s1", 315339571.9344271, 0.0),
            entry("c1", "s1", 147440001.68154132, 0.0),
            entry("c2", "s1", 308912919.2130885, 0.0),
        )
        ledger = AssignmentLedger([make_server("s1", total=1e9)], reserve_mbps=0.0)
        plan = solve_greedy(batch, ledger.usable)
        assert set(plan.assignments) == {"c0", "c1", "c2", "c3"}
        ledger.apply(plan)
        assert ledger.held == plan.assignments

    def test_release_restores_exactly(self):
        server = make_server("s1", total=10.0, remaining=9.3)
        ledger = AssignmentLedger([server], reserve_mbps=0.0)
        start = ledger.load_rates()
        plan = AllocationPlan({
            "c1": Assignment("s1", 3.7, 1.0),
            "c2": Assignment("s1", 2.2, 1.0),
        })
        ledger.apply(plan)
        ledger.release("c1")
        assert ledger.held == {"c2": plan.assignments["c2"]}
        ledger.release("c2")
        assert ledger.load_rates() == start

    def test_release_unassigned_is_a_noop(self):
        ledger = AssignmentLedger([make_server("s1", total=10.0)], reserve_mbps=0.0)
        plan = AllocationPlan({"c1": Assignment("s1", 1.0, 1.0)})
        ledger.apply(plan)
        rates = ledger.load_rates()
        ledger.release("ghost")
        assert ledger.held == plan.assignments
        assert ledger.load_rates() == rates

    def test_random_apply_release_round_trips(self):
        # Every policy's plan on the ledger's usable map fits it, and
        # releasing each client brings the load rates back bit for bit.
        rng = random.Random(404)
        instances = []
        for _ in range(40):
            batch, capacities, reserve = random_instance(rng)
            servers = [
                make_server(sid, total=max(cap, 1e-6), remaining=max(cap, 1e-6) if cap > 0 else 0.0)
                for sid, cap in capacities.items()
            ]
            instances.append((batch, servers, reserve))
        for _ in range(20):
            batch, usable = contended_batch(rng, rng.randint(1, 8))
            instances.append((batch, [make_server(sid, total=cap) for sid, cap in usable.items()], 0.0))
        for name in POLICIES:
            config = SimConfig(policy=name, seed=11)
            for t, (batch, servers, reserve) in enumerate(instances):
                ledger = AssignmentLedger(servers, reserve)
                start = ledger.load_rates()
                plan = POLICIES[name].solve(batch, ledger.usable, config, t)
                ledger.apply(plan)
                assert ledger.held == plan.assignments
                for cid in sorted(plan.assignments, key=lambda _: rng.random()):
                    ledger.release(cid)
                assert ledger.held == {}
                assert ledger.load_rates() == start

    def test_leaves_scenario_servers_unchanged(self):
        # A run derives loads from its ledger; the scenario's relays keep
        # their starting capacity.
        scenario = generate_scenario(2, 2, 1, seed=0)
        servers = scenario.agg_servers
        ledger = AssignmentLedger(servers, reserve_mbps=0.0)
        ledger.apply(AllocationPlan({"c0000": Assignment("s0000", 7.5, 1.0)}))
        assert [s.remaining_capacity_mbps for s in servers] == [200.0, 200.0]
        assert ledger.load_rates() == {"s0000": 192.5 / 200.0, "s0001": 1.0}
        ledger.release("c0000")
        assert [s.remaining_capacity_mbps for s in servers] == [200.0, 200.0]
        with pytest.raises(FrozenInstanceError):
            scenario.agg_servers[0].remaining_capacity_mbps = 0.0

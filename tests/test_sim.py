import math
import random
import re
from collections import Counter
from dataclasses import fields, replace
from types import MappingProxyType

import pytest

from bass_sim import sim, topology
from bass_sim.codec import decode
from bass_sim.errors import BatchTooLargeError, RecordsFormatError, ValidationError
from bass_sim.model import (
    AggregationServer,
    BBoxClient,
    EdgeLink,
    GainEntry,
    GeoPoint,
    OriginServer,
    baseline_bandwidth,
)
from bass_sim.metrics import save_records
from bass_sim.scheduler import (
    Assignment,
    RequestBatch,
    measure_gains,
    random_policy,
    solve_greedy,
)
from bass_sim.seeding import rng_for
from bass_sim.sim import (
    MAX_ARRIVAL_RATE,
    POLICIES,
    ClientEpochRecord,
    EpochRecord,
    SimConfig,
    _poisson,
    new_state,
    run_epoch,
    run_simulation,
)
from bass_sim.topology import (
    DistanceDecayNetwork,
    NetModelParams,
    Scenario,
    generate_scenario,
    path_bandwidth,
)

from oracles import (
    baseline_every_link,
    brute_force_optimum,
    contended_batch,
    encode,
    measure_every_link,
)


def flat_params(base=100.0, direct_factor=1.0):
    # No decay, no noise: every wide-area path is exactly `base`.
    return NetModelParams(
        base_path_mbps=base,
        distance_decay_per_1000km=0.0,
        noise_sigma=0.0,
        direct_path_factor=direct_factor,
    )


def client_with_links(cid, uplinks, origin_id="o0"):
    links = tuple(
        EdgeLink(id=f"{cid}-l{i}", kind="wifi", uplink_mbps=u) for i, u in enumerate(uplinks)
    )
    return BBoxClient(id=cid, location=GeoPoint(0, 0), links=links, origin_id=origin_id)


def one_server_scenario(clients, total_mbps, params=None, seed=0):
    return Scenario(
        clients=tuple(clients),
        agg_servers=(
            AggregationServer(
                id="s0", location=GeoPoint(0, 1),
                total_capacity_mbps=total_mbps, remaining_capacity_mbps=total_mbps,
            ),
        ),
        origins=(OriginServer(id="o0", location=GeoPoint(0, 2)),),
        net_params=params or flat_params(),
        seed=seed,
    )


def _cached_values(net):
    """How many measured values a network holds: each drawn link value and relay path."""
    links = sum(value is not None for client in net._clients.values()
                for values in client.links.values() for value in values)
    return links + len(net._relay_paths)


def _assert_cache_is_fresh(state, scenario):
    """Every drawn link value and relay path equals what a new network of
    `scenario` measures now."""
    net = state.net
    fresh = DistanceDecayNetwork(scenario)
    fresh.remeasure(net.noise_epoch)
    servers = state.ledger.servers
    for client_id, paths in net._clients.items():
        client = state.active[client_id]
        for dest_id, values in paths.links.items():
            assert dest_id == client.origin_id or dest_id in servers
            assert len(values) == len(client.links)
            for i, value in enumerate(values):
                if value is not None:
                    assert value == fresh.link_bandwidth(client, dest_id, i)
    for (server_id, origin_id), value in net._relay_paths.items():
        assert value == fresh.server_origin_bandwidth(servers[server_id], origin_id)


class TestSimConfig:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValidationError, match="bass_greedy"):
            SimConfig(epochs=1, policy="oracle")

    def test_rejects_negative_rates(self):
        with pytest.raises(ValidationError):
            SimConfig(epochs=1, arrival_rate=-0.5)
        with pytest.raises(ValidationError):
            SimConfig(epochs=1, session_epochs_mean=0.5)

    def test_rejects_bad_candidate_and_reserve_settings(self):
        for bad in (dict(k_candidates=0), dict(load_threshold=1.5), dict(reserve_mbps=-1.0),
                    dict(exact_cap=0)):
            with pytest.raises(ValidationError):
                SimConfig(epochs=1, **bad)

    def test_arrival_rate_is_capped(self):
        # Never run at such a rate: constructing the config is the test.
        assert SimConfig(arrival_rate=MAX_ARRIVAL_RATE).arrival_rate == MAX_ARRIVAL_RATE
        for bad in (math.nextafter(MAX_ARRIVAL_RATE, math.inf), 1e300, math.inf, math.nan):
            with pytest.raises(ValidationError, match="arrival_rate"):
                SimConfig(arrival_rate=bad)

    @pytest.mark.parametrize("seed", [2.7, 3.0, False, -1, 2**64, "2"])
    def test_rejects_a_seed_that_is_not_a_64_bit_unsigned_int(self, seed):
        # A float seed once ran as the integer below it.
        with pytest.raises(ValidationError, match="seed must be a 64-bit unsigned integer"):
            SimConfig(seed=seed)

    def test_accepts_the_seed_range_ends(self):
        assert [SimConfig(seed=s).seed for s in (0, 2**64 - 1)] == [0, 2**64 - 1]

    @pytest.mark.parametrize("field", ["epochs", "k_candidates", "exact_cap"])
    def test_rejects_a_bool_count(self, field):
        # True == 1 and isinstance(True, int), yet no count is a switch.
        with pytest.raises(ValidationError, match=rf"^{field} must be .*got True$"):
            SimConfig(**{field: True})

    def test_epochs_zero_allowed(self):
        assert SimConfig(epochs=0).epochs == 0


def client_record(client_id="c1", **changes):
    """A scored record of a client that achieved 6 of a best 8 Mbit/s."""
    values = dict(client_id=client_id, server_id="s1", candidate_count=2, feasible_count=1,
                  b_baseline_mbps=4.0, b_best_mbps=8.0, b_achieved_mbps=6.0)
    return ClientEpochRecord(**{**values, **changes})


def _decoded(cls, record, **changes):
    """`record` encoded, with `changes` made to the data, decoded as a `cls`."""
    return decode(cls, {**encode(record), **changes}, "record", RecordsFormatError)


class TestClientEpochRecord:
    @pytest.mark.parametrize("changes, derived", [
        (dict(b_achieved_mbps=5e-324), (5e-324 - 4.0, 0.0, False)),
        (dict(b_achieved_mbps=8.0), (4.0, 1.0, True)),
        (dict(candidate_count=0, feasible_count=0), (2.0, None, None)),
        (dict(b_baseline_mbps=0.0, b_best_mbps=0.0, b_achieved_mbps=0.0), (0.0, None, None)),
        ({}, (2.0, 0.75, False)),
        (dict(server_id=None, b_achieved_mbps=4.0), (0.0, 0.5, False)),
    ], ids=["gamma-underflowed", "best", "no-candidate", "no-bandwidth", "scored", "direct"])
    def test_accepts_the_boundaries(self, changes, derived):
        record = client_record(**changes)
        assert (record.gain_mbps, record.gamma, record.chose_best) == derived
        assert _decoded(ClientEpochRecord, record) == record

    # Each case changes the file copy of `client_record()`: a measured
    # field the record refuses, or a derived one off its rule.
    @pytest.mark.parametrize("changes, field", [
        (dict(candidate_count=-5), "candidate_count"),
        (dict(feasible_count=3), "feasible_count"),
        (dict(feasible_count=-1), "feasible_count"),
        (dict(b_baseline_mbps=-1.0), "b_baseline_mbps"),
        (dict(b_baseline_mbps=math.nan), "b_baseline_mbps"),
        (dict(b_baseline_mbps=9.0), "b_baseline_mbps"),
        (dict(b_best_mbps=math.inf), "b_best_mbps"),
        (dict(b_best_mbps=math.nan), "b_best_mbps"),
        (dict(b_achieved_mbps=-0.5), "b_achieved_mbps"),
        (dict(b_achieved_mbps=8.5), "b_achieved_mbps"),
        (dict(chose_best=None), "chose_best"),
        (dict(gamma=None), "gamma"),
        (dict(gamma=5.0), "gamma"),
        (dict(gamma=-1.0), "gamma"),
        (dict(gamma=math.nan), "gamma"),
        (dict(gamma=0.5), "gamma"),
        (dict(b_achieved_mbps=8.0, gain_mbps=4.0, gamma=1.0, chose_best=False), "chose_best"),
        (dict(chose_best=True), "chose_best"),
        (dict(candidate_count=0, feasible_count=0), "gamma"),
        (dict(gamma=None, chose_best=None), "gamma"),
        (dict(gain_mbps=2.5), "gain_mbps"),
    ])
    def test_rejects_a_broken_invariant_naming_its_field(self, changes, field):
        with pytest.raises(RecordsFormatError, match=rf"^record: .*{field}|^record\.{field}: "):
            _decoded(ClientEpochRecord, client_record(), **changes)

    def test_derived_fields_are_not_constructor_arguments(self):
        for name in ("gain_mbps", "gamma", "chose_best"):
            with pytest.raises(TypeError):
                client_record(**{name: 0.0})


class TestEpochRecord:
    def _epoch(self, *client_ids, **changes):
        values = dict(epoch_t=0, clients=tuple(map(client_record, client_ids)),
                      server_load_rates={})
        return EpochRecord(**{**values, **changes})

    def test_accepts_ascending_clients(self):
        assert len(self._epoch("c1", "c2", "c3").clients) == 3

    def test_derives_the_plan_from_its_records(self):
        clients = (client_record("c1", b_achieved_mbps=8.0), client_record("c2", server_id=None,
                   b_achieved_mbps=4.0), client_record("c3", server_id="s2"))
        epoch = self._epoch(clients=clients)
        assert epoch.assignments == {"c1": Assignment("s1", 8.0, 4.0),
                                     "c3": Assignment("s2", 6.0, 2.0)}
        assert epoch.objective_mbps == 6.0 and epoch.n_active == 3
        assert _decoded(EpochRecord, epoch) == epoch

    @pytest.mark.parametrize("client_ids", [("c2", "c1"), ("c1", "c3", "c3")])
    def test_rejects_clients_out_of_order_or_twice(self, client_ids):
        with pytest.raises(ValidationError, match="client ids must ascend strictly"):
            self._epoch(*client_ids)

    def test_rejects_an_n_active_that_is_not_the_client_count(self):
        with pytest.raises(RecordsFormatError,
                           match=r"^record\.n_active: expected 2 from the other fields, got 3$"):
            _decoded(EpochRecord, self._epoch("c1", "c2"), n_active=3)

    def test_rejects_an_objective_that_is_not_the_sum_of_gains(self):
        with pytest.raises(RecordsFormatError, match=r"^record\.objective_mbps: expected 4\.0 "):
            _decoded(EpochRecord, self._epoch("c1", "c2"), objective_mbps=5.0)

    @pytest.mark.parametrize("assignments, where", [
        ({"c1": Assignment("s1", 6.0, 2.0)}, "['c2']"),
        ({"c1": Assignment("s1", 6.0, 2.0), "c2": Assignment("s2", 6.0, 2.0)},
         "['c2'].server_id"),
        ({"c1": Assignment("s1", 6.0, 2.0), "c2": Assignment("s1", 6.0, 2.0),
          "c3": Assignment("s1", 6.0, 2.0)}, "['c3']"),
        ({"c1": Assignment("s1", 6.0, 2.0), "c2": Assignment("s1", 7.0, 2.0)},
         "['c2'].demand_mbps"),
        ({"c1": Assignment("s1", 6.0, 2.5), "c2": Assignment("s1", 6.0, 2.0)},
         "['c1'].gain_mbps"),
    ], ids=["one-left-out", "another-server", "one-too-many", "another-demand", "another-gain"])
    def test_rejects_assignments_that_are_not_the_records_servers(self, assignments, where):
        # Where both are assignments, the first field that differs is named.
        with pytest.raises(RecordsFormatError,
                           match=rf"^record\.assignments{re.escape(where)}: expected "):
            _decoded(EpochRecord, self._epoch("c1", "c2"), assignments=encode(assignments))


def three_candidate_batch():
    entries = {
        "c1": [
            GainEntry("c1", sid, b_via, 1.0)
            for sid, b_via in (("s1", 5.0), ("s2", 4.0), ("s3", 3.0))
        ]
    }
    return RequestBatch.build(entries)


class TestRandomPolicy:
    def test_reproducible(self):
        batch = three_candidate_batch()
        caps = {"s1": 50.0, "s2": 50.0, "s3": 50.0}
        assert random_policy(batch, caps, seed=5) == random_policy(batch, caps, seed=5)

    def test_single_candidate_matches_greedy(self):
        entries = {
            "c1": [GainEntry("c1", "s1", 5.0, 1.0)],
            "c2": [GainEntry("c2", "s1", 4.0, 1.0)],
        }
        batch = RequestBatch.build(entries)
        caps = {"s1": 50.0}
        assert random_policy(batch, caps, seed=3) == solve_greedy(batch, caps)

    def test_uniform_over_candidates(self):
        batch = three_candidate_batch()
        caps = {"s1": 50.0, "s2": 50.0, "s3": 50.0}
        counts = {"s1": 0, "s2": 0, "s3": 0}
        trials = 10_000
        for seed in range(trials):
            plan = random_policy(batch, caps, seed=seed)
            counts[plan.assignments["c1"].server_id] += 1
        for sid in counts:
            assert abs(counts[sid] / trials - 1 / 3) < 0.05

    def test_skips_choices_that_do_not_fit(self):
        entries = {
            "c1": [
                GainEntry("c1", "s1", 40.0, 1.0),
                GainEntry("c1", "s2", 5.0, 1.0),
            ]
        }
        batch = RequestBatch.build(entries)
        caps = {"s1": 10.0, "s2": 10.0}
        for seed in range(50):
            plan = random_policy(batch, caps, seed=seed)
            assert plan.assignments["c1"].server_id == "s2"

    def test_no_feasible_candidate_leaves_unassigned(self):
        entries = {"c1": [GainEntry("c1", "s1", 40.0, 1.0)]}
        batch = RequestBatch.build(entries)
        plan = random_policy(batch, {"s1": 10.0}, seed=0)
        assert plan.assignments == {}


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_policies_leave_the_usable_map_unchanged(policy):
    # A run hands every epoch's solve the ledger's one usable map, so a
    # solver that wrote into it would shrink the capacity of later epochs.
    batch, usable = contended_batch(random.Random(16), 8)
    before = dict(usable)
    config = SimConfig(policy=policy, reserve_mbps=0.0)
    plan = POLICIES[policy].solve(batch, usable, config, 0)
    assert plan.assignments
    assert usable == before
    # Nor is it written and restored on the way: a read-only view solves the same.
    assert POLICIES[policy].solve(batch, MappingProxyType(usable), config, 0) == plan


class TestPoisson:
    def test_mean_holds_above_the_underflow_rate(self):
        # The standard error of a mean of 200 draws at rate 2000 is about 3.2.
        draws = [_poisson(rng_for(7, "poisson-test", i), 2000.0) for i in range(200)]
        assert abs(sum(draws) / len(draws) - 2000.0) <= 16.0


class TestRunEpoch:
    def test_single_client_positive_gain_assigned(self):
        # Links 2 and 3, all paths flat 100: via = 5, baseline = 3, gain = 2.
        scenario = one_server_scenario([client_with_links("c0", (2.0, 3.0))], total_mbps=50.0)
        config = SimConfig(epochs=1, policy="bass_greedy", reserve_mbps=0.0, seed=0)
        (record,) = run_simulation(scenario, config)
        assert record.objective_mbps == 2.0
        (client_record,) = record.clients
        assert client_record.server_id == "s0"
        assert client_record.b_baseline_mbps == 3.0
        assert client_record.b_achieved_mbps == 5.0
        assert client_record.gamma == 1.0

    def test_fixed_point_without_churn(self):
        scenario = generate_scenario(6, 3, 2, seed=21, server_capacity_mbps=500.0)
        config = SimConfig(epochs=4, policy="bass_greedy", seed=21)
        records = run_simulation(scenario, config)
        plans = [(r.objective_mbps, r.assignments) for r in records]
        assert all(plan == plans[0] for plan in plans[1:])

    def test_competition_leaves_weakest_on_direct_path(self):
        # Server fits 16 + 12 but not 20: the optimal plan assigns the two
        # smaller clients and leaves the gain-10 client on its direct path,
        # scored against the best bandwidth it could have had (via = 20).
        clients = [
            client_with_links("cA", (10.0, 10.0)),
            client_with_links("cB", (8.0, 8.0)),
            client_with_links("cC", (6.0, 6.0)),
        ]
        scenario = one_server_scenario(clients, total_mbps=30.0, params=flat_params(base=1000.0))
        config = SimConfig(epochs=1, policy="bass_exact", reserve_mbps=0.0, seed=0)
        (record,) = run_simulation(scenario, config)
        assert {c: a.server_id for c, a in record.assignments.items()} == {
            "cB": "s0", "cC": "s0",
        }
        assert record.objective_mbps == 14.0
        by_id = {c.client_id: c for c in record.clients}
        assert by_id["cA"].server_id is None
        assert by_id["cA"].b_achieved_mbps == 10.0
        assert by_id["cA"].b_best_mbps == 20.0
        assert by_id["cA"].gamma == 0.5
        assert by_id["cB"].gamma == 1.0

    def test_all_candidates_filtered_by_load(self):
        # The only server sits below the load threshold, so no candidates
        # are offered and the client keeps its direct path (hit rate n/a).
        scenario = Scenario(
            clients=(client_with_links("c0", (2.0, 3.0)),),
            agg_servers=(
                AggregationServer(
                    id="s0", location=GeoPoint(0, 1),
                    total_capacity_mbps=100.0, remaining_capacity_mbps=5.0,
                ),
            ),
            origins=(OriginServer(id="o0", location=GeoPoint(0, 2)),),
            net_params=flat_params(),
            seed=0,
        )
        config = SimConfig(epochs=1, policy="bass_greedy", reserve_mbps=0.0, seed=0)
        (record,) = run_simulation(scenario, config)
        (client_record,) = record.clients
        assert client_record.candidate_count == 0
        assert client_record.gamma is None
        assert client_record.b_achieved_mbps == 3.0
        assert record.assignments == {}

    def test_epoch_protocol_matches_exact_solver(self):
        # The epoch's applied plan must equal what the exact solver (checked
        # against the enumerator) produces for the epoch's own batch.
        scenario = generate_scenario(4, 3, 2, seed=33, server_capacity_mbps=20.0)
        config = SimConfig(epochs=1, policy="bass_exact", reserve_mbps=4.0, seed=33)
        state = new_state(scenario, config)
        record = run_epoch(state)
        # Rebuild the same batch the epoch solved (static network, so the
        # measurements are reproducible).
        state2 = new_state(scenario, config)
        from bass_sim.scheduler import measure_gains
        from bass_sim.topology import candidate_subset

        entries = {}
        for cid in sorted(state2.active):
            client = state2.active[cid]
            cand = candidate_subset(client, state2.net, config.k_candidates,
                                    config.load_threshold, state2.ledger.load_rates())
            if cand:
                baseline = baseline_bandwidth(client, state2.net)
                entries[cid] = measure_gains(client, cand, state2.net, baseline)
        batch = RequestBatch.build(entries)
        usable = {
            sid: s.total_capacity_mbps - config.reserve_mbps
            for sid, s in state2.ledger.servers.items()
        }
        expected_obj, expected_assign = brute_force_optimum(batch, usable)
        assert record.objective_mbps == expected_obj
        assert {c: a.server_id for c, a in record.assignments.items()} == expected_assign


class TestRunSimulation:
    def test_zero_epochs(self):
        scenario = generate_scenario(3, 2, 1, seed=1)
        assert run_simulation(scenario, SimConfig(epochs=0)) == []

    def test_deterministic_with_churn(self):
        scenario = generate_scenario(8, 3, 2, seed=17, server_capacity_mbps=80.0)
        config = SimConfig(
            epochs=12, policy="bass_greedy", seed=4,
            arrival_rate=0.8, session_epochs_mean=4.0, reserve_mbps=10.0,
        )
        assert run_simulation(scenario, config) == run_simulation(scenario, config)

    def test_policies_share_workload_stream(self):
        # Arrivals and departures derive from the config seed, not the
        # policy, so paired comparisons see identical populations.
        scenario = generate_scenario(6, 3, 2, seed=2, server_capacity_mbps=80.0)
        runs = {}
        for policy in ("bass_greedy", "random"):
            config = SimConfig(
                epochs=8, policy=policy, seed=11,
                arrival_rate=1.0, session_epochs_mean=3.0, reserve_mbps=10.0,
            )
            runs[policy] = run_simulation(scenario, config)
        for rec_a, rec_b in zip(runs["bass_greedy"], runs["random"]):
            assert [c.client_id for c in rec_a.clients] == [c.client_id for c in rec_b.clients]

    def test_remeasure_noise_changes_epochs_deterministically(self):
        scenario = generate_scenario(5, 3, 2, seed=3)
        config = SimConfig(epochs=3, policy="bass_greedy", seed=3, remeasure_noise=True)
        records = run_simulation(scenario, config)
        again = run_simulation(scenario, config)
        assert records == again
        gains_per_epoch = [
            tuple(c.gain_mbps for c in record.clients) for record in records
        ]
        assert gains_per_epoch[0] != gains_per_epoch[1]

    def test_path_cache_stays_flat_when_noise_is_remeasured(self):
        scenario = generate_scenario(10, 3, 2, seed=8)
        config = SimConfig(
            epochs=1000, seed=8, arrival_rate=0.5, session_epochs_mean=20.0, remeasure_noise=True,
        )
        state = new_state(scenario, config)
        sizes = []
        for t in range(config.epochs):
            record = run_epoch(state)
            assert state.net.noise_epoch == t
            _assert_cache_is_fresh(state, scenario)
            # 3 links per client: one direct path each plus one per candidate,
            # and one path per server-origin pair.
            size = _cached_values(state.net)
            assert size <= record.n_active * 3 * (1 + config.k_candidates) + 3 * 2
            sizes.append(size)
        assert max(sizes[500:]) <= 2 * max(sizes[:100])

    @pytest.mark.parametrize("remeasure_noise", [False, True])
    def test_per_client_caches_hold_only_active_clients(self, remeasure_noise):
        # Rankings, decays and a static network's paths are kept per client
        # across epochs; a departure must drop them, or they grow with every
        # client ever seen.
        scenario = generate_scenario(10, 3, 2, seed=8)
        config = SimConfig(
            epochs=1000, seed=8, arrival_rate=0.5, session_epochs_mean=20.0,
            remeasure_noise=remeasure_noise,
        )
        state = new_state(scenario, config)
        clients_seen = set(state.active)
        for _ in range(config.epochs):
            record = run_epoch(state)
            clients_seen |= set(state.active)
            assert set(state.net._clients) == set(state.active)
            for entry in state.net._clients.values():
                assert sorted(s.id for s in entry.ranking) == sorted(state.ledger.servers)
            assert _cached_values(state.net) <= record.n_active * 3 * (1 + 3) + 3 * 2
        assert len(clients_seen) > 5 * len(state.active)

    def test_state_holds_only_active_clients_and_the_scenario(self):
        # Over a long churn run, no store in the state may grow with the
        # number of clients that ever arrived.
        scenario = generate_scenario(10, 3, 2, seed=8)
        config = SimConfig(epochs=1000, seed=8, arrival_rate=0.5, session_epochs_mean=20.0)
        state = new_state(scenario, config)
        for _ in range(config.epochs):
            run_epoch(state)
        entities = len(scenario.clients) + len(scenario.agg_servers) + len(scenario.origins)
        bound = len(state.active) + entities
        sizes = {
            name: len(value) for name, value in vars(state).items()
            if isinstance(value, (dict, set, list))
        }
        assert "active" in sizes
        assert all(size <= bound for size in sizes.values()), (sizes, bound)

    def test_no_client_departs_in_the_epoch_it_joins(self):
        # A mean session of one epoch makes every client leave at its first
        # chance: the epoch after it joined. So the scenario's clients stay
        # through epoch 0, and each epoch's clients are all new.
        scenario = generate_scenario(6, 3, 2, seed=9)
        config = SimConfig(epochs=40, seed=9, arrival_rate=2.0, session_epochs_mean=1.0)
        seen = [{c.client_id for c in record.clients} for record in run_simulation(scenario, config)]
        assert {c.id for c in scenario.clients} <= seen[0]
        for before, now in zip(seen, seen[1:]):
            assert not before & now
        assert sum(1 for clients in seen[1:] if clients) >= 30

    def test_arrivals_get_the_scenario_link_mix(self):
        params = NetModelParams(wifi_links_per_client=1, cellular_links_per_client=0)
        scenario = generate_scenario(4, 2, 2, params, seed=5)
        state = new_state(scenario, SimConfig(epochs=3, seed=5, arrival_rate=2.0))
        for _ in range(3):
            run_epoch(state)
        assert len(state.active) > len(scenario.clients)
        assert {len(client.links) for client in state.active.values()} == {1}

    def test_arrivals_never_take_a_relay_or_origin_id(self):
        # The next generated ids are c0003, c0004, ...; a loaded file may
        # already use them for a relay or an origin.
        scenario = generate_scenario(3, 2, 1, seed=5)
        scenario = replace(
            scenario,
            agg_servers=(replace(scenario.agg_servers[0], id="c0003"), *scenario.agg_servers[1:]),
            origins=(OriginServer(id="c0004", location=GeoPoint(0, 0)),),
            clients=tuple(replace(c, origin_id="c0004") for c in scenario.clients),
        )
        state = new_state(scenario, SimConfig(epochs=1, seed=5, arrival_rate=5.0))
        run_epoch(state)
        assert len(state.active) > len(scenario.clients)
        assert not {"c0003", "c0004"} & set(state.active)

    def test_gamma_in_unit_interval_with_candidates(self):
        scenario = generate_scenario(30, 4, 3, seed=6, server_capacity_mbps=60.0)
        config = SimConfig(
            epochs=10, policy="random", seed=6,
            arrival_rate=0.5, session_epochs_mean=5.0, reserve_mbps=10.0,
        )
        for record in run_simulation(scenario, config):
            for c in record.clients:
                if c.gamma is not None:
                    assert 0.0 < c.gamma <= 1.0
                if c.chose_best:
                    assert c.gamma == 1.0

    def test_capacity_conservation_and_feasibility(self):
        scenario = generate_scenario(10, 3, 2, seed=14, server_capacity_mbps=25.0)
        config = SimConfig(
            epochs=300, policy="bass_greedy", seed=14,
            arrival_rate=1.0, session_epochs_mean=5.0, reserve_mbps=4.0,
        )
        capacities = {s.id: s.remaining_capacity_mbps for s in scenario.agg_servers}
        totals = {s.id: s.total_capacity_mbps for s in scenario.agg_servers}
        state = new_state(scenario, config)
        for _ in range(config.epochs):
            record = run_epoch(state)
            # Exact conservation: replaying the epoch's demands from the
            # starting capacity, in client-id order, reproduces each recorded
            # load rate bit-for-bit.
            remaining = dict(capacities)
            for client_id in sorted(record.assignments):
                assignment = record.assignments[client_id]
                remaining[assignment.server_id] -= assignment.demand_mbps
            assert record.server_load_rates.keys() == remaining.keys()
            for sid, value in remaining.items():
                assert record.server_load_rates[sid] == value / totals[sid]
                assert 0.0 <= value <= totals[sid]
            # Feasibility of the applied plan against solve-time capacity.
            per_server = {}
            for a in record.assignments.values():
                per_server.setdefault(a.server_id, []).append(a.demand_mbps)
            for sid, demands in per_server.items():
                bound = capacities[sid] - config.reserve_mbps
                assert math.fsum(demands) <= bound + 1e-9


def record_measurements(monkeypatch):
    """Wrap `sim.measure_gains`; the list gets (candidates offered, entries
    built) for each call."""
    measured = []

    def recording(client, candidates, net, baseline, usable=None):
        entries = measure_gains(client, candidates, net, baseline, usable)
        measured.append((len(candidates), len(entries)))
        return entries

    monkeypatch.setattr(sim, "measure_gains", recording)
    return measured


def fuzzed_run(rng):
    """A small scenario and config under any policy, with 0-4 Wi-Fi and 0-3
    cellular links per client (cellular uplinks possibly 0), capacities from
    tight to loose and reserves up to above capacity, so that relay legs
    above the usable capacity occur next to those below it."""
    policy = rng.choice(sorted(POLICIES))
    wifi = rng.randint(0, 4)
    params = NetModelParams(
        wifi_links_per_client=wifi,
        cellular_links_per_client=rng.randint(0 if wifi else 1, 3),
        cellular_uplink_mbps_range=rng.choice([(2.0, 8.0), (0.0, 4.0), (0.0, 0.0)]),
        direct_path_factor=rng.choice([0.3, 1.0, 1.8]),
    )
    capacity = rng.choice([rng.uniform(1.0, 10.0), rng.uniform(10.0, 60.0), rng.uniform(100.0, 400.0)])
    scenario = generate_scenario(
        rng.randint(1, 5 if policy == "bass_exact" else 12), rng.randint(1, 5), rng.randint(1, 3),
        params, seed=rng.randrange(1000), server_capacity_mbps=capacity,
    )
    config = SimConfig(
        epochs=rng.randint(1, 6),
        policy=policy,
        seed=rng.randrange(1000),
        arrival_rate=rng.choice([0.0, 0.5, 1.0] if policy == "bass_exact" else [0.0, 1.0, 3.0]),
        session_epochs_mean=rng.choice([None, rng.uniform(1.0, 5.0)]),
        k_candidates=rng.randint(1, 4),
        load_threshold=rng.choice([0.0, rng.uniform(0.0, 1.0)]),
        reserve_mbps=rng.choice([0.0, rng.uniform(0.0, capacity), capacity + rng.uniform(0.0, 20.0)]),
        remeasure_noise=rng.random() < 0.5,
        exact_cap=8,
    )
    return scenario, config


def run_outcome(scenario, config):
    """The run's records, or the message of the BatchTooLargeError that ended it."""
    try:
        return run_simulation(scenario, config)
    except BatchTooLargeError as error:
        return str(error)


class TestLeftOutEntries:
    """`baseline_bandwidth` and `measure_gains` draw only the links that can
    change a value, and for a BASS policy `measure_gains` leaves out each
    candidate that cannot gain and fits; no record may tell."""

    def test_records_match_measuring_every_candidate(self, monkeypatch, tmp_path):
        counts = Counter()
        drawn = Counter()

        def counting_path_bandwidth(decayed_mbps, params, noise, edge_tag):
            drawn["/" in edge_tag] += 1
            return path_bandwidth(decayed_mbps, params, noise, edge_tag)

        def measure_every_candidate(client, candidates, net, baseline, usable=None):
            # As for a policy that reads every entry, with every link drawn.
            entries = measure_every_link(client, candidates, net, baseline)
            if usable is not None:
                counts["kept for not fitting"] += sum(
                    net.server_origin_bandwidth(s, client.origin_id) <= baseline
                    and e.b_via_mbps > usable[e.server_id]
                    for s, e in zip(candidates, entries)
                )
            return entries

        monkeypatch.setattr(topology, "path_bandwidth", counting_path_bandwidth)
        rng = random.Random(20)
        for case in range(400):
            scenario, config = fuzzed_run(rng)
            measured = record_measurements(monkeypatch)
            monkeypatch.setattr(sim, "baseline_bandwidth", baseline_bandwidth)
            drawn.clear()
            left_out = run_outcome(scenario, config)
            links_read = drawn[True]
            counts["left out"] += sum(offered - got for offered, got in measured)
            monkeypatch.setattr(sim, "measure_gains", measure_every_candidate)
            monkeypatch.setattr(sim, "baseline_bandwidth", baseline_every_link)
            drawn.clear()
            every = run_outcome(scenario, config)
            assert links_read <= drawn[True], case
            counts[f"links not drawn, {config.policy}"] += drawn[True] - links_read
            if isinstance(left_out, str):
                assert every == left_out, case
                continue
            counts["runs"] += 1
            assert len(left_out) == len(every), case
            for ours, theirs in zip(left_out, every):
                for f in fields(EpochRecord):
                    assert getattr(ours, f.name) == getattr(theirs, f.name), (case, f.name)
            save_records(config.policy, left_out, tmp_path / "left_out.json")
            save_records(config.policy, every, tmp_path / "every.json")
            assert (tmp_path / "left_out.json").read_bytes() == (tmp_path / "every.json").read_bytes()
        assert counts["runs"] > 350
        assert counts["left out"] > 2000
        assert counts["kept for not fitting"] > 1000
        for policy in POLICIES:
            assert counts[f"links not drawn, {policy}"] > 3000, policy

    def test_random_measures_every_candidate(self, monkeypatch):
        measured = record_measurements(monkeypatch)
        scenario = generate_scenario(12, 4, 2, seed=5)
        run_simulation(scenario, SimConfig(epochs=3, policy="random", seed=5))
        assert measured and all(offered == got for offered, got in measured)
        # Under greedy, the same run leaves some candidates out.
        measured.clear()
        run_simulation(scenario, SimConfig(epochs=3, policy="bass_greedy", seed=5))
        assert any(offered > got for offered, got in measured)

    def test_a_client_with_every_candidate_left_out(self, monkeypatch):
        # Uplinks of 150 over flat 100 Mbit/s paths: the baseline is 100, the
        # relay leg equals it and fits, so no subflow is measured.
        clients = [client_with_links(f"c{i}", (150.0,)) for i in range(3)]
        scenario = one_server_scenario(clients, total_mbps=500.0)
        measured = record_measurements(monkeypatch)
        config = SimConfig(epochs=1, policy="bass_greedy", reserve_mbps=0.0)
        (record,) = run_simulation(scenario, config)
        assert measured == [(1, 0)] * 3
        assert record.assignments == {}
        for client in record.clients:
            assert (client.candidate_count, client.feasible_count) == (1, 1)
            assert (client.b_best_mbps, client.gamma, client.chose_best) == (100.0, 1.0, True)
        # The exact cap still counts each requesting client.
        with pytest.raises(BatchTooLargeError, match="3 clients"):
            run_simulation(scenario, replace(config, policy="bass_exact", exact_cap=2))
        assert measured == [(1, 0)] * 6


def test_run_epoch_hands_the_scheduler_values_it_need_not_check(monkeypatch):
    """`measure_gains` and `RequestBatch` trust `run_epoch`: it never asks
    for the gains of no candidates, and it files each client's entries
    under its own id, clients in id order, with no relay twice."""
    seen = Counter()

    def measuring(client, candidates, net, baseline, usable=None):
        assert candidates, client.id
        seen["measured"] += 1
        return measure_gains(client, candidates, net, baseline, usable)

    def building(cls, entries):
        assert list(entries) == sorted(entries)
        for client_id, group in entries.items():
            assert {e.client_id for e in group} <= {client_id}
            assert len({e.server_id for e in group}) == len(group)
            seen["groups of two or more"] += len(group) > 1
        batch = build(entries)
        assert list(batch.entries) == sorted(batch.entries)
        return batch

    build = RequestBatch.build
    monkeypatch.setattr(sim, "measure_gains", measuring)
    monkeypatch.setattr(RequestBatch, "build", classmethod(building))
    rng = random.Random(21)
    for _ in range(200):
        scenario, config = fuzzed_run(rng)
        run_outcome(scenario, config)
        churn = config.arrival_rate > 0.0 or config.session_epochs_mean is not None
        seen[config.policy, churn, config.remeasure_noise] += 1
    assert all(seen[policy, churn, remeasure] > 0 for policy in POLICIES
               for churn in (False, True) for remeasure in (False, True))
    assert seen["measured"] > 3000 and seen["groups of two or more"] > 1000

import math
from dataclasses import replace

import pytest

from bass_sim.errors import ValidationError
from bass_sim.model import AggregationServer, BBoxClient, EdgeLink, GainEntry, GeoPoint, OriginServer
from bass_sim.scheduler import RequestBatch, random_policy, solve_greedy
from bass_sim.seeding import rng_for
from bass_sim.sim import (
    MAX_ARRIVAL_RATE,
    SimConfig,
    _poisson,
    hit_rate,
    new_state,
    run_epoch,
    run_simulation,
)
from bass_sim.topology import DistanceDecayNetwork, NetModelParams, Scenario, generate_scenario

from oracles import brute_force_optimum


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
    """How many measured values a network holds: each cached link value and relay path."""
    links = sum(len(values) for client in net._clients.values() for values in client.links.values())
    return links + len(net._relay_paths)


def _assert_cache_is_fresh(state):
    """Every cached link tuple and relay path equals what a new network measures now."""
    scenario, net = state.scenario, state.net
    fresh = DistanceDecayNetwork.for_scenario(scenario)
    fresh.remeasure(net.noise_epoch)
    servers = state.ledger.servers
    for client_id, paths in net._clients.items():
        client = state.active[client_id]
        for dest_id, values in paths.links.items():
            if dest_id == client.origin_id:
                assert values == fresh.direct_link_bandwidths(client)
            else:
                assert values == fresh.subflow_bandwidths(client, servers[dest_id])
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

    def test_epochs_zero_allowed(self):
        assert SimConfig(epochs=0).epochs == 0


class TestHitRate:
    def test_perfect(self):
        assert hit_rate(9.0, 9.0) == 1.0

    def test_half(self):
        assert hit_rate(4.5, 9.0) == 0.5

    def test_rejects_nonpositive_best(self):
        with pytest.raises(ValidationError):
            hit_rate(1.0, 0.0)

    def test_rejects_achieved_above_best(self):
        with pytest.raises(ValidationError):
            hit_rate(2.0, 1.0)

    def test_rejects_zero_achieved(self):
        with pytest.raises(ValidationError):
            hit_rate(0.0, 1.0)


def three_candidate_batch():
    entries = {
        "c1": [
            GainEntry("c1", sid, b_cs, 100.0, 1.0)
            for sid, b_cs in (("s1", 5.0), ("s2", 4.0), ("s3", 3.0))
        ]
    }
    return RequestBatch.build(entries)


class TestRandomPolicy:
    def test_reproducible(self):
        batch = three_candidate_batch()
        caps = {"s1": 50.0, "s2": 50.0, "s3": 50.0}
        assert random_policy(batch, caps, seed=5, reserve_mbps=0.0) == random_policy(
            batch, caps, seed=5, reserve_mbps=0.0
        )

    def test_single_candidate_matches_greedy(self):
        entries = {
            "c1": [GainEntry("c1", "s1", 5.0, 100.0, 1.0)],
            "c2": [GainEntry("c2", "s1", 4.0, 100.0, 1.0)],
        }
        batch = RequestBatch.build(entries)
        caps = {"s1": 50.0}
        assert random_policy(batch, caps, seed=3, reserve_mbps=0.0) == solve_greedy(
            batch, caps, reserve_mbps=0.0
        )

    def test_uniform_over_candidates(self):
        batch = three_candidate_batch()
        caps = {"s1": 50.0, "s2": 50.0, "s3": 50.0}
        counts = {"s1": 0, "s2": 0, "s3": 0}
        trials = 10_000
        for seed in range(trials):
            plan = random_policy(batch, caps, seed=seed, reserve_mbps=0.0)
            counts[plan.assignments["c1"].server_id] += 1
        for sid in counts:
            assert abs(counts[sid] / trials - 1 / 3) < 0.05

    def test_skips_choices_that_do_not_fit(self):
        entries = {
            "c1": [
                GainEntry("c1", "s1", 40.0, 100.0, 1.0),
                GainEntry("c1", "s2", 5.0, 100.0, 1.0),
            ]
        }
        batch = RequestBatch.build(entries)
        caps = {"s1": 10.0, "s2": 10.0}
        for seed in range(50):
            plan = random_policy(batch, caps, seed=seed, reserve_mbps=0.0)
            assert plan.assignments["c1"].server_id == "s2"

    def test_no_feasible_candidate_leaves_unassigned(self):
        entries = {"c1": [GainEntry("c1", "s1", 40.0, 100.0, 1.0)]}
        batch = RequestBatch.build(entries)
        plan = random_policy(batch, {"s1": 10.0}, seed=0, reserve_mbps=0.0)
        assert plan.assignments == {}


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
        from bass_sim.model import baseline_bandwidth
        from bass_sim.scheduler import measure_gains
        from bass_sim.topology import candidate_subset

        entries = {}
        for cid in sorted(state2.active):
            client = state2.active[cid]
            cand = candidate_subset(client, state2.candidates, config.k_candidates,
                                    config.load_threshold, state2.ledger.load_rates())
            if cand:
                baseline = baseline_bandwidth(state2.net.direct_link_bandwidths(client))
                entries[cid] = measure_gains(
                    client, [state2.ledger.servers[s] for s in cand], state2.net, baseline
                )
        batch = RequestBatch.build(entries)
        capacities = {sid: s.total_capacity_mbps for sid, s in state2.ledger.servers.items()}
        expected_obj, expected_assign = brute_force_optimum(batch, capacities, config.reserve_mbps)
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
            _assert_cache_is_fresh(state)
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
            assert set(state.candidates._rankings) == set(state.active)
            assert set(state.net._clients) == set(state.active)
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

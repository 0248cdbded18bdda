"""Acceptance suite.

Each test enforces one release criterion at its stated tolerance and prints
one PASS/FAIL line (visible even under pytest's capture). Tolerances are
pinned here, not configurable:

  1  exact solver == independent enumerator on 1,000 batches, 0 tolerance, < 10 s
  2  greedy <= exact and greedy >= 0 on 10,000 batches; mean ratio reported
  3  10,000-epoch fuzz: per-server demand sums within remaining - reserve
     (1e-9 summation slack) and exact capacity-conservation replay
  4  20-seed paper-scale sweep: bass fraction(hit rate = 1) >= 0.70 and
     strictly above random on every seed, < 60 s
  5  two 8 Mbit/s links, non-binding origin leg: via bandwidth exactly 16,
     multiplier exactly 2.0
  6  multipliers >= 1.0 always; mean multiplier > 3.0 when direct paths are
     throttled to 10-20% of the aggregation path
  7  repeated CLI invocations produce byte-identical output files
  8  100,000 sampled Wi-Fi uplinks: fraction below 1 Mbit/s within +/- 2
     points of the 60% target
"""

import math
import random
import time
from contextlib import contextmanager

from bass_sim.cli import main
from bass_sim.metrics import summarize
from bass_sim.scheduler import solve_exact, solve_greedy
from bass_sim.sim import SimConfig, new_state, run_epoch, run_simulation
from bass_sim.topology import (
    WIFI_SUB_1MBPS_TARGET,
    NetModelParams,
    generate_scenario,
    sample_client,
    wifi_mu_for_sub_1mbps,
)

from oracles import brute_force_optimum, random_batch


def _emit(capsys, line):
    with capsys.disabled():
        print(line)


@contextmanager
def criterion(capsys, label):
    try:
        yield
    except BaseException:
        _emit(capsys, f"ACCEPTANCE FAIL  {label}")
        raise
    _emit(capsys, f"ACCEPTANCE PASS  {label}")


def test_criterion_1_oracle_equivalence(capsys):
    with criterion(capsys, "1 exact solver matches brute-force enumerator (1000 batches)"):
        rng = random.Random(0xBA55)
        started = time.monotonic()
        for _ in range(1000):
            batch, usable = random_batch(rng)
            expected_obj, expected_assign = brute_force_optimum(batch, usable)
            plan = solve_exact(batch, usable)
            assert plan.objective_mbps == expected_obj
            assert {c: a.server_id for c, a in plan.assignments.items()} == expected_assign
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.1f} s, budget is 10 s"


def test_criterion_2_heuristic_dominance(capsys):
    with criterion(capsys, "2 greedy never beats exact on 10000 batches"):
        rng = random.Random(0x6EED)
        ratios = []
        for _ in range(10_000):
            batch, usable = random_batch(rng)
            greedy = solve_greedy(batch, usable).objective_mbps
            exact = solve_exact(batch, usable).objective_mbps
            assert greedy <= exact
            assert greedy >= 0.0
            ratios.append(greedy / exact if exact > 0 else 1.0)
        mean_ratio = sum(ratios) / len(ratios)
        _emit(capsys, f"  info: mean greedy/exact optimality ratio {mean_ratio:.4f}")
        assert 0.0 < mean_ratio <= 1.0


def test_criterion_3_feasibility_and_conservation(capsys):
    with criterion(capsys, "3 10000-epoch fuzz keeps feasibility and exact conservation"):
        scenario = generate_scenario(12, 3, 2, seed=0xFE, server_capacity_mbps=15.0)
        config = SimConfig(
            epochs=0, policy="bass_greedy", seed=0xFE,
            arrival_rate=1.2, session_epochs_mean=6.0, reserve_mbps=3.0,
        )
        capacities = {s.id: s.remaining_capacity_mbps for s in scenario.agg_servers}
        totals = {s.id: s.total_capacity_mbps for s in scenario.agg_servers}
        state = new_state(scenario, config)
        for _ in range(10_000):
            record = run_epoch(state)
            per_server: dict[str, list[float]] = {}
            for a in record.assignments.values():
                per_server.setdefault(a.server_id, []).append(a.demand_mbps)
            for sid, demands in per_server.items():
                bound = capacities[sid] - config.reserve_mbps
                assert math.fsum(demands) <= bound + 1e-9
            # Conservation: replaying the epoch's demands from the starting
            # capacity, in client-id order, reproduces each recorded load
            # rate bit-for-bit.
            remaining = dict(capacities)
            for client_id in sorted(record.assignments):
                assignment = record.assignments[client_id]
                remaining[assignment.server_id] -= assignment.demand_mbps
            assert record.server_load_rates.keys() == remaining.keys()
            for sid, value in remaining.items():
                assert record.server_load_rates[sid] == value / totals[sid]
                assert 0.0 <= value <= totals[sid]


def test_criterion_4_hit_rate_replication(capsys):
    with criterion(capsys, "4 bass fraction(hit rate=1) >= 0.70 and beats random on 20 seeds"):
        started = time.monotonic()
        bass_fractions = []
        for seed in range(20):
            scenario = generate_scenario(60, 8, 10, seed=seed)
            fractions = {}
            for policy in ("bass_greedy", "random"):
                config = SimConfig(epochs=2, policy=policy, seed=seed)
                report = summarize(policy, run_simulation(scenario, config))
                fractions[policy] = report.gamma_fraction_one
            assert fractions["bass_greedy"] >= 0.70, f"seed {seed}: {fractions}"
            assert fractions["bass_greedy"] > fractions["random"], f"seed {seed}: {fractions}"
            bass_fractions.append(fractions["bass_greedy"])
        elapsed = time.monotonic() - started
        _emit(
            capsys,
            f"  info: bass fraction(gamma=1) min {min(bass_fractions):.3f} "
            f"mean {sum(bass_fractions) / len(bass_fractions):.3f} in {elapsed:.1f} s",
        )
        assert elapsed < 60.0, f"took {elapsed:.1f} s, budget is 60 s"


def test_criterion_5_aggregation_algebra(capsys):
    with criterion(capsys, "5 two 8 Mbit/s links aggregate to exactly 16 (2.0x)"):
        from bass_sim.model import AggregationServer, BBoxClient, EdgeLink, GeoPoint, OriginServer
        from bass_sim.topology import Scenario

        client = BBoxClient(
            id="c0",
            location=GeoPoint(0, 0),
            links=(
                EdgeLink(id="c0-l0", kind="wifi", uplink_mbps=8.0),
                EdgeLink(id="c0-l1", kind="wifi", uplink_mbps=8.0),
            ),
            origin_id="o0",
        )
        scenario = Scenario(
            clients=(client,),
            agg_servers=(
                AggregationServer(
                    id="s0", location=GeoPoint(0, 1),
                    total_capacity_mbps=100.0, remaining_capacity_mbps=100.0,
                ),
            ),
            origins=(OriginServer(id="o0", location=GeoPoint(0, 2)),),
            net_params=NetModelParams(
                base_path_mbps=1000.0, distance_decay_per_1000km=0.0, noise_sigma=0.0,
            ),
            seed=0,
        )
        config = SimConfig(epochs=1, policy="bass_greedy", reserve_mbps=0.0, seed=0)
        (record,) = run_simulation(scenario, config)
        (client_record,) = record.clients
        assert client_record.b_achieved_mbps == 16.0
        assert client_record.b_baseline_mbps == 8.0
        assert summarize("bass_greedy", [record]).multiplier_mean == 2.0


def test_criterion_6_gain_multiplier_direction(capsys):
    with criterion(capsys, "6 multipliers >= 1.0; throttled direct paths push mean above 3.0"):
        # Part 1: the default scenario never reports a sub-1.0 multiplier.
        scenario = generate_scenario(60, 8, 10, seed=60)
        config = SimConfig(epochs=3, policy="bass_greedy", seed=60)
        report = summarize("bass_greedy", run_simulation(scenario, config))
        assert report.multiplier_min >= 1.0
        assert report.multiplier_cdf[0][0] >= 1.0

        # Part 2: two ~4 Mbit/s links per client, wide-area legs flat at 100,
        # direct paths scaled to 1.2 Mbit/s = 15% of the 8 Mbit/s via path.
        throttled = NetModelParams(
            base_path_mbps=100.0,
            distance_decay_per_1000km=0.0,
            noise_sigma=0.0,
            wifi_lognormal_mu=math.log(4.0),
            wifi_lognormal_sigma=0.0,
            direct_path_factor=0.012,
            cellular_links_per_client=0,
        )
        scenario = generate_scenario(60, 8, 10, throttled, seed=61)
        config = SimConfig(epochs=1, policy="bass_greedy", seed=61)
        report = summarize("bass_greedy", run_simulation(scenario, config))
        _emit(
            capsys,
            f"  info: throttled-direct multiplier min {report.multiplier_min:.2f} "
            f"mean {report.multiplier_mean:.2f} max {report.multiplier_max:.2f}",
        )
        assert report.multiplier_min >= 1.0
        assert report.multiplier_mean > 3.0


def test_criterion_7_cli_determinism(capsys, tmp_path):
    with criterion(capsys, "7 repeated CLI invocations are byte-identical"):
        scenario_a = tmp_path / "a.json"
        scenario_b = tmp_path / "b.json"
        for path in (scenario_a, scenario_b):
            assert main(
                ["generate", "--clients", "30", "--servers", "6", "--origins", "4",
                 "--seed", "3", "--out", str(path)]
            ) == 0
        assert scenario_a.read_bytes() == scenario_b.read_bytes()

        outputs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            assert main(
                ["run", "--scenario", str(scenario_a), "--policy", "bass_greedy",
                 "--epochs", "4", "--seed", "11", "--arrival-rate", "0.5",
                 "--session-mean", "6", "--out", str(out)]
            ) == 0
            outputs.append(out)
        for filename in ("records.json", "per_client.csv", "summary.json"):
            assert (outputs[0] / filename).read_bytes() == (outputs[1] / filename).read_bytes(), filename


def test_criterion_8_sampler_calibration(capsys):
    with criterion(capsys, "8 sampled Wi-Fi uplinks hit the sub-1 Mbit/s target within 2 points"):
        params = NetModelParams(wifi_links_per_client=2, cellular_links_per_client=0)
        assert params.wifi_lognormal_mu == wifi_mu_for_sub_1mbps(
            WIFI_SUB_1MBPS_TARGET, params.wifi_lognormal_sigma
        )
        below = 0
        total = 0
        # 50,000 sampled clients with two Wi-Fi links each.
        for index in range(50_000):
            client = sample_client(1234, index, params, ["o0"])
            for link in client.links:
                total += 1
                if link.uplink_mbps < 1.0:
                    below += 1
        assert total == 100_000
        fraction = below / total
        _emit(capsys, f"  info: sub-1 Mbit/s fraction {fraction:.4f} (target {WIFI_SUB_1MBPS_TARGET})")
        assert abs(fraction - WIFI_SUB_1MBPS_TARGET) <= 0.02

"""Whole-run relations: two runs whose inputs differ in a way that must not
matter, or that differ only in length, and what their outputs must share.

Unlike the pinned digests these check values, not fixed bytes, so they hold
for any scenario and config they are given.
"""

import json
import random
from dataclasses import replace

import pytest

from bass_sim import sim
from bass_sim.cli import main
from bass_sim.scheduler import solve_greedy
from bass_sim.sim import POLICIES, SimConfig, run_simulation
from bass_sim.topology import generate_scenario

OUTPUTS = ("records.json", "per_client.csv", "summary.json")


def _scenario_file(tmp_path, seed):
    """A small contended scenario, with two relays at one location so that
    the relay ranking has distance ties to break."""
    path = tmp_path / f"scenario{seed}.json"
    assert main(["generate", "--clients", "8", "--servers", "4", "--origins", "4",
                 "--server-capacity-mbps", "30", "--seed", str(seed), "--out", str(path)]) == 0
    data = json.loads(path.read_text(encoding="utf-8"))
    data["agg_servers"][1]["location"] = data["agg_servers"][0]["location"]
    path.write_text(json.dumps(data), encoding="utf-8")
    return path, data


def _run(scenario, out, policy):
    assert main(["run", "--scenario", str(scenario), "--policy", policy, "--epochs", "8",
                 "--seed", "2", "--arrival-rate", "2", "--session-mean", "4",
                 "--remeasure-noise", "--reserve-mbps", "0", "--exact-cap", "40",
                 "--out", str(out)]) == 0
    return [(out / name).read_bytes() for name in OUTPUTS]


@pytest.mark.parametrize("array", ["clients", "agg_servers", "origins"])
@pytest.mark.parametrize("policy", list(POLICIES))
def test_entity_order_leaves_every_output_byte(tmp_path, policy, array):
    rng = random.Random(f"{policy}/{array}")
    for seed in range(2):
        path, data = _scenario_file(tmp_path, seed)
        items = data[array]
        shuffled = list(items)
        while shuffled == items:
            rng.shuffle(shuffled)
        moved = tmp_path / f"moved{seed}.json"
        moved.write_text(json.dumps({**data, array: shuffled}), encoding="utf-8")
        assert _run(moved, tmp_path / "b", policy) == _run(path, tmp_path / "a", policy)


@pytest.mark.parametrize("policy", list(POLICIES))
def test_an_epoch_prefix_is_the_shorter_run(policy):
    for seed in range(3):
        scenario = generate_scenario(10, 3, 2, seed=seed, server_capacity_mbps=25.0)
        config = SimConfig(epochs=9, policy=policy, seed=seed, arrival_rate=1.5,
                           session_epochs_mean=4.0, remeasure_noise=True, reserve_mbps=0.0,
                           exact_cap=40)
        records = run_simulation(scenario, config)
        for m in (0, 1, 5):
            assert run_simulation(scenario, replace(config, epochs=m)) == records[:m]


def test_greedy_never_beats_exact_at_the_paper_scale(monkeypatch):
    # A `generate --seed 3` scenario: 60 clients, 8 relays, with churn.
    scenario = generate_scenario(60, 8, 10, seed=3)
    config = SimConfig(epochs=10, policy="bass_exact", seed=1, arrival_rate=3.0,
                       session_epochs_mean=20.0, remeasure_noise=True, exact_cap=200)
    solve_exact = sim.solve_exact
    sizes = []

    def exact_against_greedy(batch, usable, **kw):
        plan = solve_exact(batch, usable, **kw)
        assert plan.objective_mbps >= solve_greedy(batch, usable).objective_mbps
        sizes.append(batch.n)
        return plan

    monkeypatch.setattr(sim, "solve_exact", exact_against_greedy)
    exact = run_simulation(scenario, config)
    greedy = run_simulation(scenario, replace(config, policy="bass_greedy"))
    assert len(sizes) == 10 and min(sizes) > 12
    for e, g in zip(exact, greedy, strict=True):
        assert e.objective_mbps >= g.objective_mbps

"""Smoke tests of the benchmark itself, on workloads shrunk to a few epochs."""

import dataclasses
import json

import pytest

import checks
import run
import spans
from bass_sim import cli, scheduler, sim, topology

SMOKE = {
    "paper-churn": dict(epochs=4, instances=2),
    "large-static": dict(clients=60, servers=10, epochs=2, instances=2),
    "contended-exact": dict(clients=6, epochs=3, instances=2),
}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def smoke(name):
    return dataclasses.replace(run.WORKLOADS[name], **SMOKE[name])


def test_smoke_sizes_cover_every_workload():
    assert set(SMOKE) == set(run.WORKLOADS) >= {w["name"] for w in BENCHMARK["workloads"]}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    bench = run.Bench(smoke(name), 7, tmp_path)
    metrics = run.end_to_end(bench, 0, [])
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())
    assert bench.attempted >= 4 and bench.failed == 0, bench.failures


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    bench = run.Bench(smoke(name), 7, tmp_path)
    report = []
    metrics, recorded = run.per_layer(bench, 0, report)
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    # per_layer counts a traced run whose digests differ from its untraced twin as failed.
    assert bench.attempted >= 5 and bench.failed == 0, bench.failures
    assert any(line.startswith("dominant layer: ") for line in report)
    names = {s[spans.NAME] for s in recorded["instance-0"]}
    assert names >= {"cli.main", "sim.run_epoch", "scheduler.solve"}


def test_traced_and_untraced_outputs_match_and_wrappers_are_removed(tmp_path):
    before = [sim.run_epoch, sim.measure_gains, topology.path_bandwidth, cli.save_records,
              scheduler.RequestBatch.__dict__["build"], scheduler.AssignmentLedger.apply]
    w = smoke("contended-exact")
    inst = run.set_up(w, 3, 0, tmp_path, None)
    plain = run.run_once(w, inst, tmp_path / "plain", traced=False)
    traced = run.run_once(w, inst, tmp_path / "traced", traced=True)
    assert plain.error is None and traced.error is None
    assert plain.digests == traced.digests
    assert len(plain.epoch_s) == len(traced.epoch_s) == w.epochs
    epochs = {s[spans.EPOCH] for s in traced.tracer.spans if s[spans.NAME] == "scheduler.solve"}
    assert epochs == set(range(w.epochs))
    after = [sim.run_epoch, sim.measure_gains, topology.path_bandwidth, cli.save_records,
             scheduler.RequestBatch.__dict__["build"], scheduler.AssignmentLedger.apply]
    assert after == before


def test_self_time_is_span_minus_children():
    recorded = [
        ["sim.run_epoch", 0, 100, -1, 0],
        ["scheduler.ledger", 10, 40, 0, 0],
        ["scheduler.ledger", 20, 30, 1, 0],
        ["scheduler.solve", 50, 70, 0, 0],
    ]
    totals, in_epoch = spans.layer_times(recorded)
    assert totals["scheduler.ledger"] == pytest.approx(30e-9)
    assert totals["sim.self"] == pytest.approx(50e-9)
    assert sum(in_epoch.values()) == pytest.approx(totals["sim.run_epoch"])


def test_seed_changes_generated_inputs(tmp_path):
    w = smoke("paper-churn")
    dirs = [tmp_path / name for name in "abc"]
    for d in dirs:
        d.mkdir()
    a, b, c = (run.set_up(w, seed, 0, d, None) for seed, d in zip((1, 1, 2), dirs))
    assert a.scenario.read_bytes() == b.scenario.read_bytes() and a.sim_seed == b.sim_seed
    assert a.scenario.read_bytes() != c.scenario.read_bytes() and a.sim_seed != c.sim_seed


def test_invariant_check_catches_a_broken_record(tmp_path):
    w = smoke("contended-exact")
    inst = run.set_up(w, 5, 0, tmp_path, None)
    result = run.run_once(w, inst, tmp_path / "out", traced=False)
    path = tmp_path / "out" / "records.json"
    args = (inst.initial_mbps, w.reserve_mbps, inst.initial_clients)
    assert checks.check_records(path, *args)[0] == []

    data = json.loads(path.read_text())
    epoch = next(e for e in data["epochs"] if e["assignments"])
    epoch["objective_mbps"] += 1.0
    epoch["clients"][0]["gamma"] = 1.5
    path.write_text(json.dumps(data))
    violations = checks.check_records(path, *args)[0]
    assert any("objective" in v for v in violations)
    assert any("gamma" in v for v in violations)
    assert result.error is None


def test_golden_gate_fails_when_the_workload_definition_changed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "fingerprint", lambda w: "edited")
    bench = run.Bench(run.WORKLOADS["paper-churn"], 0, tmp_path)
    bench.check_golden()
    assert bench.golden.startswith("MISMATCH") and bench.failures


def test_golden_gate_says_when_a_seed_has_no_recorded_digests(tmp_path):
    bench = run.Bench(run.WORKLOADS["paper-churn"], 10_000, tmp_path)
    bench.check_golden()
    assert bench.golden.startswith("NOT CHECKED") and not bench.failures

"""The benchmark's spans wrap public names of the package from outside it.

A renamed or moved target silently drops its layer from every traced
benchmark run, so each one must still be found where the benchmark looks,
and still be called there: a name that exists but that nothing calls any
more records no spans either.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from bass_sim.sim import SimConfig, run_simulation
from bass_sim.topology import generate_scenario

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# `scheduler` no longer imports `baseline_bandwidth`, but the benchmark
# still names it; only a change to the benchmark can drop the target.
KNOWN_STALE = {"bass_sim.scheduler.baseline_bandwidth"}


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_span_target_is_found():
    tracer = _spans_module().Tracer()
    with tracer.installed():
        pass
    assert set(tracer.missing) - KNOWN_STALE == set(), tracer.missing


@pytest.mark.parametrize("policy", ["bass_greedy", "bass_exact"])
def test_every_epoch_layer_records_spans(policy):
    spans = _spans_module()
    scenario = generate_scenario(8, 3, 2, seed=4)
    tracer = spans.Tracer()
    with tracer.installed():
        run_simulation(scenario, SimConfig(epochs=2, policy=policy))
    solves = Counter(span[spans.EPOCH] for span in tracer.spans
                     if span[spans.NAME] == "scheduler.solve")
    assert solves == {0: 1, 1: 1}
    layers = {"scheduler.measure_gains", "scheduler.batch_build", "scheduler.ledger",
              "topology.candidate_subset", "model.baseline_bandwidth"}
    assert layers - {span[spans.NAME] for span in tracer.spans} == set()

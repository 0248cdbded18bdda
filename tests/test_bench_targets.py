"""The benchmark's spans wrap public names of the package from outside it.

A renamed or moved target silently drops its layer from every traced
benchmark run, so each one must still be found where the benchmark looks.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# `scheduler` no longer imports `baseline_bandwidth`, but the benchmark
# still names it; only a change to the benchmark can drop the target.
KNOWN_STALE = {"bass_sim.scheduler.baseline_bandwidth"}


def test_every_span_target_is_found():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    with tracer.installed():
        pass
    assert set(tracer.missing) - KNOWN_STALE == set(), tracer.missing

"""Spans recorded from outside the simulator, around the calls into each layer.

A `Tracer` wraps public names where their callers look them up (module
globals such as `bass_sim.sim.measure_gains`, or class attributes such as
`AssignmentLedger.apply`) and records one span per call: name, start and
end in `perf_counter_ns`, the index of the enclosing span, and the epoch
the call belongs to (-1 outside `run_epoch`). Spans stay in memory; the
caller writes them out when the benchmark ends. Nothing under `src/` is
edited, and every wrapper is removed again when `Tracer.installed()` exits.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter_ns

from bass_sim import cli, scheduler, sim, topology

# (owner, attribute, span name). Owners are where the callers look the
# name up: `sim.run_epoch` calls `candidate_subset` through the sim
# module's globals, `DistanceDecayNetwork._path` calls `path_bandwidth`
# through topology's, `cmd_run` calls the metrics functions through cli's.
# `baseline_bandwidth` is called from both sim and `scheduler.measure_gains`.
# `solve_exact` seeds its incumbent with `scheduler.solve_greedy`, which is
# not wrapped, so that call stays inside the solve span.
_TARGETS = (
    (cli, "load_scenario", "topology.load_scenario"),
    (sim, "candidate_subset", "topology.candidate_subset"),
    (topology, "path_bandwidth", "topology.path_bandwidth"),
    (sim, "baseline_bandwidth", "model.baseline_bandwidth"),
    (scheduler, "baseline_bandwidth", "model.baseline_bandwidth"),
    (sim, "measure_gains", "scheduler.measure_gains"),
    (scheduler.RequestBatch, "build", "scheduler.batch_build"),
    (sim, "solve_greedy", "scheduler.solve"),
    (sim, "solve_exact", "scheduler.solve"),
    (scheduler.AssignmentLedger, "apply", "scheduler.ledger"),
    (scheduler.AssignmentLedger, "release", "scheduler.ledger"),
    (scheduler.AssignmentLedger, "release_all", "scheduler.ledger"),
    (cli, "summarize", "metrics.summarize"),
    (cli, "save_records", "metrics.save_records"),
    (cli, "per_client_rows", "metrics.per_client_csv"),
    (cli, "write_rows_csv", "metrics.per_client_csv"),
    (cli, "emit_report", "metrics.emit_report"),
)

NAME, START, END, PARENT, EPOCH = range(5)


class Tracer:
    """Records spans and the few counts that are cheapest to take at a call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.epoch = -1
        self.gain_entries = 0
        self.solves: list[tuple] = []  # (batch, plan), counted after the run
        self.missing: list[str] = []  # targets a refactor has moved away
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, self.epoch]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = perf_counter_ns()
                stack.pop()

        return wrapper

    def _wrapped(self, name: str, original):
        if isinstance(original, classmethod):
            return classmethod(self.wrap(name, original.__func__))
        span = self.wrap(name, original)
        if name == "scheduler.measure_gains":
            def counted(*args, **kwargs):
                entries = span(*args, **kwargs)
                self.gain_entries += len(entries)
                return entries
            return counted
        if name == "scheduler.solve":
            def kept(batch, *args, **kwargs):
                plan = span(batch, *args, **kwargs)
                self.solves.append((batch, plan))
                return plan
            return kept
        return span

    def _run_epoch(self):
        span = self.wrap("sim.run_epoch", sim.run_epoch)

        def run_epoch(state):
            self.epoch = state.epoch
            try:
                return span(state)
            finally:
                self.epoch = -1

        return run_epoch

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it."""
        saved = [(sim, "run_epoch", sim.run_epoch)]
        replacements = [(sim, "run_epoch", self._run_epoch())]
        for owner, attr, name in _TARGETS:
            # vars() of a class holds the classmethod object itself.
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            saved.append((owner, attr, original))
            replacements.append((owner, attr, self._wrapped(name, original)))
        try:
            for owner, attr, value in replacements:
                setattr(owner, attr, value)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


@contextlib.contextmanager
def epoch_timer(durations_ns: list[int]):
    """The untraced run's only wrapper: time each `run_epoch` call."""
    original = sim.run_epoch

    def run_epoch(state):
        start = perf_counter_ns()
        try:
            return original(state)
        finally:
            durations_ns.append(perf_counter_ns() - start)

    sim.run_epoch = run_epoch
    try:
        yield
    finally:
        sim.run_epoch = original


def layer_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Seconds per span name, and seconds of `run_epoch` by direct child.

    The first dict also holds `sim.self` and `cli.self`: a span's duration
    minus its direct children's, which cover disjoint parts of it because
    the calls are synchronous. A span nested in a span of the same name
    (`release` called by `release_all`) is not counted twice. The second
    dict splits `sim.run_epoch` into its direct children plus `sim.self`,
    so its values add up to the epoch time.
    """
    totals: dict[str, int] = defaultdict(int)
    in_epoch: dict[str, int] = defaultdict(int)
    child_ns: dict[int, int] = defaultdict(int)
    for span in spans:
        duration = span[END] - span[START]
        parent = span[PARENT]
        if parent >= 0:
            child_ns[parent] += duration
            if spans[parent][NAME] == "sim.run_epoch":
                in_epoch[span[NAME]] += duration
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][NAME] != span[NAME]:
            ancestor = spans[ancestor][PARENT]
        if ancestor < 0:
            totals[span[NAME]] += duration
    for index, span in enumerate(spans):
        if span[NAME] in ("sim.run_epoch", "cli.main"):
            self_ns = span[END] - span[START] - child_ns[index]
            totals[span[NAME].split(".")[0] + ".self"] += self_ns
    in_epoch["sim.self"] = totals.get("sim.self", 0)
    to_s = lambda counts: {name: ns / 1e9 for name, ns in counts.items()}
    return to_s(totals), to_s(in_epoch)


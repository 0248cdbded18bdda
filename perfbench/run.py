"""bass-sim benchmark: host time, memory and output checks for `bass-sim run`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed set of instances derived from --seed (a generated
scenario file plus a simulation seed). The benchmark drives the real CLI
path in-process, `bass_sim.cli.main(["run", ...])`, one run at a time (a
closed loop), cycling over the instances until --seconds have passed and
every instance has run at least once. Timings are host time; the simulated
results are deterministic and are checked for exact equality.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced runs of each instance and prints the per-layer metrics taken from
spans recorded around the calls into each module. The last line of stdout
is one JSON object: correct, attempted, failed, metrics. `--workload all`
runs every workload in its own process. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench"

if __name__ == "__main__" and not (SRC / "bass_sim").is_dir():
    sys.exit(f"error: {SRC / 'bass_sim'} not found; run from the root of a bass-sim checkout")
sys.path.insert(0, str(SRC))

from bass_sim import cli, topology  # noqa: E402
from bass_sim.topology import NetModelParams  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402


@dataclass(frozen=True)
class Workload:
    """Scenario shape, `run` flags and the number of instances per seed."""

    name: str
    clients: int
    servers: int
    origins: int
    epochs: int
    instances: int
    policy: str
    flags: tuple[str, ...] = ()
    reserve_mbps: float = 50.0
    capacity_mbps: float = 200.0
    net: tuple[tuple[str, float], ...] = ()

    def argv(self, scenario: Path, out_dir: Path, sim_seed: int) -> list[str]:
        return [
            "run", "--scenario", str(scenario), "--out", str(out_dir),
            "--policy", self.policy, "--epochs", str(self.epochs), "--seed", str(sim_seed),
            "--reserve-mbps", repr(self.reserve_mbps), *self.flags,
        ]


# Instance counts are sized so that one pass over a seed's instances takes
# 10-20 s on a 2-core host, and so that the median over instances is steady
# from seed to seed. BENCHMARK.json lists paper-churn and contended-exact;
# large-static runs by name or with --workload all (see README.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-churn", clients=60, servers=8, origins=10, epochs=100, instances=6,
            policy="bass_greedy",
            flags=("--arrival-rate", "3", "--session-mean", "20", "--remeasure-noise"),
        ),
        Workload(
            "large-static", clients=2000, servers=100, origins=10, epochs=5, instances=4,
            policy="bass_greedy", flags=("--arrival-rate", "200", "--session-mean", "10"),
        ),
        Workload(
            "contended-exact", clients=11, servers=3, origins=4, epochs=20, instances=100,
            policy="bass_exact", flags=("--remeasure-noise", "--exact-cap", "14"),
            reserve_mbps=0.0, capacity_mbps=20.0,
            net=(("distance_decay_per_1000km", 0.2), ("direct_path_factor", 0.3)),
        ),
    )
}

P90_MIN_SAMPLES = 100  # at least 10 epochs beyond the 90th percentile
# After each run, its instance is set up again for about this share of the
# run's time, so that a run of a small scenario still yields many set-ups.
SETUP_SHARE = 0.02


def fingerprint(w: Workload) -> str:
    return hashlib.sha256(repr(w).encode()).hexdigest()[:16]


def derived_seed(*labels: object) -> int:
    digest = hashlib.blake2b("|".join(map(str, labels)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass
class Instance:
    index: int
    scenario: Path
    sim_seed: int
    initial_mbps: dict[str, float]
    initial_clients: set[str]
    setup_s: float


@dataclass
class Run:
    index: int
    wall_s: float = 0.0
    epoch_s: list[float] = field(default_factory=list)
    digests: tuple[str, ...] = ()
    summary: dict = field(default_factory=dict)
    output_bytes: int = 0
    error: str | None = None
    tracer: spans.Tracer | None = None


def set_up(w: Workload, seed: int, index: int, work: Path, tracer: spans.Tracer | None) -> Instance:
    """Generate, save and load one instance's scenario; time the three steps."""
    call = (lambda name, fn: tracer.wrap(name, fn)) if tracer else (lambda name, fn: fn)
    path = work / f"scenario-{index}.json"
    gc.collect()
    start = perf_counter_ns()
    scenario = call("topology.generate_scenario", topology.generate_scenario)(
        w.clients, w.servers, w.origins, NetModelParams(**dict(w.net)),
        derived_seed(w.name, seed, index, "scenario"), server_capacity_mbps=w.capacity_mbps,
    )
    call("topology.save_scenario", topology.save_scenario)(scenario, path)
    call("topology.load_scenario", topology.load_scenario)(path)
    setup_s = (perf_counter_ns() - start) / 1e9
    return Instance(
        index=index,
        scenario=path,
        sim_seed=derived_seed(w.name, seed, index, "sim"),
        initial_mbps={s.id: s.remaining_capacity_mbps for s in scenario.agg_servers},
        initial_clients={c.id for c in scenario.clients},
        setup_s=setup_s,
    )


def run_once(w: Workload, inst: Instance, out_dir: Path, traced: bool) -> Run:
    """One `bass-sim run` through cli.main, timed from call to return."""
    run = Run(inst.index)
    epoch_ns: list[int] = []
    main = cli.main
    if traced:
        run.tracer = spans.Tracer()
        main = run.tracer.wrap("cli.main", cli.main)
    hooks = run.tracer.installed() if traced else spans.epoch_timer(epoch_ns)
    gc.collect()
    with hooks, contextlib.redirect_stdout(io.StringIO()):
        start = perf_counter_ns()
        try:
            code = main(w.argv(inst.scenario, out_dir, inst.sim_seed))
        except (Exception, SystemExit) as exc:
            run.error = f"run raised {exc!r}"
        else:
            if code != 0:
                run.error = f"run exited with code {code}"
        run.wall_s = (perf_counter_ns() - start) / 1e9
    if run.error:
        return run
    if traced:
        epoch_ns = [s[spans.END] - s[spans.START] for s in run.tracer.spans if s[0] == "sim.run_epoch"]
    run.epoch_s = [ns / 1e9 for ns in epoch_ns]
    run.digests = checks.digests(out_dir)
    run.output_bytes = sum((out_dir / name).stat().st_size for name in checks.OUTPUT_FILES)
    run.summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    return run


class Bench:
    """Runs one workload for one seed and keeps the correctness bookkeeping."""

    def __init__(self, w: Workload, seed: int, work: Path) -> None:
        self.w, self.seed, self.work = w, seed, work
        self.out_dir = work / "out"
        self.instances: list[Instance] = []
        self.setup_s: list[float] = []
        self.first_digests: dict[int, tuple[str, ...]] = {}
        self.record_counts: dict[tuple[str, ...], dict[str, int]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.golden = "not checked"

    def set_up_all(self, tracer: spans.Tracer | None = None) -> None:
        for index in range(self.w.instances):
            self.instances.append(set_up(self.w, self.seed, index, self.work, tracer))
        self.setup_s = [inst.setup_s for inst in self.instances]

    def check(self, run: Run) -> None:
        """Count one attempt; record why it failed, if it did."""
        self.attempted += 1
        problem = run.error
        if problem is None:
            first = self.first_digests.setdefault(run.index, run.digests)
            if first != run.digests:
                problem = f"instance {run.index}: outputs differ from its first run"
            elif run.digests not in self.record_counts:
                inst = self.instances[run.index]
                violations, counts = checks.check_records(
                    self.out_dir / "records.json", inst.initial_mbps, self.w.reserve_mbps,
                    inst.initial_clients,
                )
                self.record_counts[run.digests] = counts
                if violations:
                    problem = f"instance {run.index}: " + "; ".join(violations[:3])
        if problem:
            self.failures.append(problem)

    def run(self, index: int, traced: bool = False) -> Run:
        run = run_once(self.w, self.instances[index], self.out_dir, traced)
        self.check(run)
        return run

    def cycle(self, seconds: float, traced_too: bool):
        """Closed loop over the instances until `seconds` have passed and each
        instance ran once. Yields (untraced run, traced run or None).

        Each step also sets its instance up again (the same file comes out),
        so that set-up times are sampled across the whole run, as the run
        times are, rather than in one burst at the start."""
        start = perf_counter_ns()
        step = 0
        while step < len(self.instances) or (perf_counter_ns() - start) / 1e9 < seconds:
            index = step % len(self.instances)
            untraced = self.run(index)
            spent = 0.0
            while spent == 0.0 or spent < SETUP_SHARE * untraced.wall_s:
                self.setup_s.append(set_up(self.w, self.seed, index, self.work, None).setup_s)
                spent += self.setup_s[-1]
            yield untraced, (self.run(index, traced=True) if traced_too else None)
            step += 1

    def check_golden(self) -> None:
        """Compare this seed's digests with the ones recorded in golden.json.

        A listed workload whose definition no longer matches the recorded
        fingerprint fails: its digests can no longer be checked. A seed with
        no recorded digests is only checked for self-consistency and the
        record invariants, and the report says so."""
        path = HERE / "golden.json"
        recorded = json.loads(path.read_text()).get(self.w.name, {}) if path.exists() else {}
        expected = recorded.get("seeds", {}).get(str(self.seed))
        if self.w != WORKLOADS.get(self.w.name):
            self.golden = "not checked: workload resized (smoke test)"
        elif recorded.get("fingerprint") != fingerprint(self.w):
            self.golden = "MISMATCH: workload definition differs from the one golden.json was recorded for"
            self.failures.append("golden.json fingerprint differs; re-record it from known-good code")
        elif len(self.first_digests) < len(self.instances):
            self.golden = "incomplete (a run failed)"
        elif expected is None:
            self.golden = (f"NOT CHECKED: no digests recorded for seed {self.seed} "
                           f"(recorded: seeds {min(map(int, recorded['seeds']))}-"
                           f"{max(map(int, recorded['seeds']))})")
        elif checks.combined([self.first_digests[i] for i in range(len(self.instances))]) == expected:
            self.golden = "match"
        else:
            self.golden = "MISMATCH"
            self.failures.append(f"digests differ from golden.json for seed {self.seed}")

    @property
    def failed(self) -> int:
        return self.attempted if self.golden.startswith("MISMATCH") else len(self.failures)


def over_instances(values: list[tuple[int, float]], reduce) -> float:
    """reduce() each instance's values, then reduce() the per-instance results,
    so that an instance run more often than another does not weigh more."""
    per_instance: dict[int, list[float]] = {}
    for index, value in values:
        per_instance.setdefault(index, []).append(value)
    return reduce([reduce(v) for v in per_instance.values()])


# Runs `bass-sim run` and prints the process's own peak RSS. VmHWM belongs to
# the memory map made by exec; getrusage's maxrss would also carry the
# parent's high-water mark across the fork and exec that started the child.
RSS_CHILD = """
import sys
from bass_sim.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


def peak_rss_mb(bench: Bench) -> float:
    """Run instance 0 once in a fresh interpreter and read its peak RSS."""
    w, inst = bench.w, bench.instances[0]
    out_dir = bench.work / "rss-out"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", RSS_CHILD, *w.argv(inst.scenario, out_dir, inst.sim_seed)],
        env=env, capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    bench.attempted += 1
    if proc.returncode != 0:
        bench.failures.append(f"fresh-process run exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return 0.0
    if checks.digests(out_dir) != bench.first_digests.get(0):
        bench.failures.append("fresh-process run wrote different outputs than the in-process run")
    return int(proc.stdout.split()[-1]) / 1024


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, seconds: float, report: list[str]) -> dict:
    bench.set_up_all()
    bench.run(0)  # warm-up: first-call costs in the interpreter, not in the program
    runs = [r for r, _ in bench.cycle(seconds, traced_too=False) if r.error is None]
    bench.check_golden()
    rss = peak_rss_mb(bench)
    if not runs:
        return {}
    epochs = sorted(s for r in runs for s in r.epoch_s)
    # Each instance's epochs are pooled over its runs, so that an instance
    # run once more than another (the loop stops mid-pass) does not weigh more.
    epoch_median = over_instances([(r.index, s) for r in runs for s in r.epoch_s], statistics.median)
    first = {r.index: r.summary for r in runs}
    gammas = [s["gamma_mean"] for s in first.values() if s["gamma_mean"] is not None]
    multipliers = [s["multiplier_mean"] for s in first.values() if s["multiplier_mean"] is not None]
    metrics = {
        "wall_s": metric(over_instances([(r.index, r.wall_s) for r in runs], statistics.median), "s"),
        "client_epochs_per_s": metric(over_instances(
            [(r.index, r.summary["client_epochs"] / r.wall_s) for r in runs], statistics.median
        ), "1/s"),
        "epoch_ms_p50": metric(1000 * epoch_median, "ms"),
        "setup_s": metric(statistics.median(bench.setup_s), "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "gamma_mean": metric(statistics.fmean(gammas) if gammas else 0.0, "ratio"),
        "multiplier_mean": metric(statistics.fmean(multipliers) if multipliers else 0.0, "ratio"),
    }
    report.append(
        f"runs: {len(runs)} timed over {len(first)} instances, {len(epochs)} epochs; "
        "times are medians over instances of each instance's median; "
        f"setup_s is the median of {len(bench.setup_s)} set-ups"
    )
    if len(epochs) >= P90_MIN_SAMPLES:
        p90 = 1000 * statistics.quantiles(epochs, n=10)[-1]
        report.append(f"epoch_ms_p90 = {p90:.4f} ms  ({len(epochs)} epochs)")
    else:
        report.append(f"epoch_ms_p90 = n/a  ({len(epochs)} epochs; needs >= {P90_MIN_SAMPLES})")
    return metrics


# Span names whose time per run (metric name + "_s") or number of calls
# (+ "_calls") is a per-layer metric.
TIMED_SPANS = (
    "topology.candidate_subset", "topology.path_bandwidth", "topology.load_scenario",
    "model.baseline_bandwidth", "scheduler.measure_gains", "scheduler.batch_build",
    "scheduler.ledger", "scheduler.solve", "sim.run_epoch", "sim.self",
    "metrics.summarize", "metrics.save_records", "metrics.per_client_csv",
    "metrics.emit_report", "cli.main", "cli.self",
)
COUNTED_SPANS = (
    "topology.candidate_subset", "topology.path_bandwidth", "scheduler.measure_gains",
    "scheduler.solve",
)
SETUP_SPANS = ("topology.generate_scenario", "topology.save_scenario")


def traced_counts(bench: Bench, run: Run) -> dict[str, float]:
    calls = Counter(span[spans.NAME] for span in run.tracer.spans)
    counts = {f"{name}_calls": calls[name] for name in COUNTED_SPANS}
    counts["model.gain_entries"] = run.tracer.gain_entries
    counts["scheduler.positive_pairs"] = sum(
        1 for batch, _ in run.tracer.solves for group in batch.entries.values()
        for e in group if e.gain_mbps > 0.0
    )
    counts["scheduler.clients_with_positive_pair"] = sum(
        1 for batch, _ in run.tracer.solves for group in batch.entries.values()
        if any(e.gain_mbps > 0.0 for e in group)
    )
    counts.update(bench.record_counts[run.digests])
    counts["metrics.output_bytes"] = run.output_bytes
    return counts


def per_layer(bench: Bench, seconds: float, report: list[str]) -> tuple[dict, dict]:
    setup_tracer = spans.Tracer()
    bench.set_up_all(setup_tracer)
    bench.run(0)
    times: list[tuple[int, dict]] = []
    walls: list[tuple[int, float, float]] = []
    counts: dict[int, dict] = {}
    recorded = {"setup": setup_tracer.spans}
    for untraced, traced in bench.cycle(seconds, traced_too=True):
        # Bench.check has counted a traced run whose outputs differ as failed.
        if untraced.error or traced.error or traced.digests != untraced.digests:
            continue
        totals, in_epoch = spans.layer_times(traced.tracer.spans)
        times.append((traced.index, {"totals": totals, "in_epoch": in_epoch}))
        walls.append((traced.index, traced.wall_s, untraced.wall_s))
        counts.setdefault(traced.index, traced_counts(bench, traced))
        if len(recorded) == 1:  # keep the spans of the first traced run only
            recorded[f"instance-{traced.index}"] = traced.tracer.spans
            if traced.tracer.missing:
                report.append("not wrapped (name not found): " + ", ".join(traced.tracer.missing))
    bench.check_golden()
    if not times:
        return {}, recorded
    mean = lambda pairs: over_instances(pairs, statistics.fmean)
    metrics = {
        f"{name}_s": metric(mean([(i, t["totals"].get(name, 0.0)) for i, t in times]), "s")
        for name in TIMED_SPANS
    }
    setup_totals, _ = spans.layer_times(setup_tracer.spans)
    for name in SETUP_SPANS:
        metrics[f"{name}_s"] = metric(setup_totals.get(name, 0.0) / len(bench.instances), "s")
    per_run = lambda key: statistics.fmean(c[key] for c in counts.values())
    for key in sorted(next(iter(counts.values()))):
        if key != "scheduler.clients_with_positive_pair":
            metrics[key] = metric(per_run(key), "count")
    positive = sum(c["scheduler.clients_with_positive_pair"] for c in counts.values())
    assigned = sum(c["scheduler.assignments"] for c in counts.values())
    metrics["scheduler.assign_ratio"] = metric(assigned / positive if positive else 0.0, "ratio")
    metrics["trace.overhead_s"] = metric(
        mean([(i, t) for i, t, _ in walls]) - mean([(i, u) for i, _, u in walls]), "s"
    )

    split = {
        name: mean([(i, t["in_epoch"].get(name, 0.0)) for i, t in times])
        for name in {n for _, t in times for n in t["in_epoch"]}
    }
    epoch_total = sum(split.values())
    report.append(
        f"traced runs: {len(times)} over {len(counts)} instances; values are means per run"
    )
    report.append("epoch time by layer (direct children of sim.run_epoch, plus its self time):")
    for name, value in sorted(split.items(), key=lambda kv: -kv[1]):
        report.append(f"  {name:28s} {value:10.4f} s  {100 * value / epoch_total:5.1f}%")
    report.append(f"dominant layer: {max(split, key=split.get)}")
    return metrics, recorded


def write_spans(path: Path, recorded: dict[str, list[list]]) -> None:
    """One JSON line per span; `id` and `parent` index spans of the same `run`."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for run_id, run_spans in recorded.items():
            for index, (name, start, end, parent, epoch) in enumerate(run_spans):
                fh.write(json.dumps({"run": run_id, "id": index, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end, "epoch": epoch}) + "\n")


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "seed": seed,
    }


def bench_one(name: str, seed: int, seconds: int, trace: bool) -> dict:
    RESULTS.mkdir(exist_ok=True)
    work = RESULTS / f"work-{os.getpid()}"
    work.mkdir()
    report: list[str] = []
    try:
        bench = Bench(WORKLOADS[name], seed, work)
        recorded: dict[str, list[list]] = {}
        if trace:
            metrics, recorded = per_layer(bench, seconds, report)
        else:
            metrics = end_to_end(bench, seconds, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": bench.failed == 0 and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    env = environment(seed)
    stem = RESULTS / f"{name}-seed{seed}-trace{int(trace)}"
    print(f"workload={name} seed={seed} seconds={seconds} trace={int(trace)}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    for line in report:
        print(line)
    print(f"failed_ratio = {bench.failed}/{bench.attempted}")
    print(f"golden digests: {bench.golden}")
    for problem in bench.failures[:10]:
        print(f"FAILED: {problem}")
    if recorded:
        write_spans(stem.with_suffix(".spans.jsonl.gz"), recorded)
    stem.with_suffix(".json").write_text(
        json.dumps({"env": env, "golden": bench.golden, "report": report,
                    "failures": bench.failures, **result}, indent=2) + "\n"
    )
    return result


def bench_all(seed: int, seconds: int, trace: bool) -> dict:
    """Every workload, each in its own interpreter so memory and patches start clean."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), file=sys.stdout if proc.returncode == 0 else sys.stderr)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(proc.returncode or 1)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        print()
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = bench_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = bench_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

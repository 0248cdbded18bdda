"""Record the output digests that the benchmark checks against.

    python3 perfbench/record_golden.py

For every workload and for seeds 0-23, runs each instance once and stores,
per output file, the SHA-256 over the instances' digests of that file (see
checks.combined). The digests are only valid for the workload definition
they were taken from, so each workload's entry carries a fingerprint of it.
Record them from a commit whose outputs are known to be right; later
commits must reproduce them byte for byte.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sys

import run

SEEDS = range(24)


def digests_for(name: str, seed: int) -> dict[str, str]:
    work = run.RESULTS / f"golden-{name}-{seed}"
    work.mkdir(parents=True)
    try:
        bench = run.Bench(run.WORKLOADS[name], seed, work)
        bench.set_up_all()
        for index in range(len(bench.instances)):
            bench.run(index)
        if bench.failures:
            raise RuntimeError(f"{name} seed {seed}: {bench.failures[0]}")
        return run.checks.combined([bench.first_digests[i] for i in range(len(bench.instances))])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    jobs = [(name, seed) for name in run.WORKLOADS for seed in SEEDS]
    run.RESULTS.mkdir(exist_ok=True)
    with multiprocessing.get_context("spawn").Pool(len(os.sched_getaffinity(0))) as pool:
        results = pool.starmap(digests_for, jobs)
    golden = {
        name: {"fingerprint": run.fingerprint(w), "seeds": {}} for name, w in run.WORKLOADS.items()
    }
    for (name, seed), digests in zip(jobs, results):
        golden[name]["seeds"][str(seed)] = digests
    (run.HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(jobs)} digests for seeds {SEEDS.start}-{SEEDS.stop - 1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

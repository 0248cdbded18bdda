"""Output checks made from outside: file digests and record invariants."""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from pathlib import Path

OUTPUT_FILES = ("records.json", "per_client.csv", "summary.json")

# Same slack the ledger allows between a solver's bookkeeping and a later
# check; a real conflict is off by a whole demand.
FEAS_SLACK = 1e-9


def digests(out_dir: Path) -> tuple[str, ...]:
    """SHA-256 of each output file, in OUTPUT_FILES order."""
    return tuple(hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in OUTPUT_FILES)


def combined(per_run: list[tuple[str, ...]]) -> dict[str, str]:
    """One digest per output file over a sequence of runs: SHA-256 of the
    runs' digests of that file, concatenated in run order."""
    return {
        name: hashlib.sha256("".join(d[k] for d in per_run).encode()).hexdigest()
        for k, name in enumerate(OUTPUT_FILES)
    }


def _no_duplicate_keys(pairs):
    keys = [key for key, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError(f"duplicate keys in one object: {sorted(keys)}")
    return dict(pairs)


def check_records(
    path: Path, initial_mbps: dict[str, float], reserve_mbps: float, initial_clients: set[str]
) -> tuple[list[str], dict[str, int]]:
    """Check every epoch of a records.json; return (violations, counts).

    Invariants: per-server assigned demand <= initial capacity - reserve
    (+ FEAS_SLACK); at most one assignment per client; every gamma in
    (0, 1]; the objective equals the running sum of gains in client-id
    order. The counts (arrivals, departures, client-epochs, assignments)
    are read off the population of consecutive epochs.
    """
    try:
        data = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_no_duplicate_keys)
    except ValueError as exc:
        return [f"{path.name}: {exc}"], {}
    violations: list[str] = []
    counts = defaultdict(int)
    previous = set(initial_clients)
    for epoch in data["epochs"]:
        t = epoch["epoch_t"]
        assignments = epoch["assignments"]
        load: dict[str, float] = defaultdict(float)
        objective = 0.0
        for client_id in sorted(assignments):
            a = assignments[client_id]
            load[a["server_id"]] += a["demand_mbps"]
            objective += a["gain_mbps"]
        if objective != epoch["objective_mbps"]:
            violations.append(f"epoch {t}: objective {epoch['objective_mbps']!r} != sum {objective!r}")
        for server_id, demand in load.items():
            if demand > initial_mbps[server_id] - reserve_mbps + FEAS_SLACK:
                violations.append(f"epoch {t}: server {server_id} holds {demand!r} Mbit/s")
        seen: dict[str, str | None] = {}
        for c in epoch["clients"]:
            if c["client_id"] in seen:
                violations.append(f"epoch {t}: client {c['client_id']} recorded twice")
            seen[c["client_id"]] = c["server_id"]
            gamma = c["gamma"]
            if gamma is not None and not 0.0 < gamma <= 1.0:
                violations.append(f"epoch {t}: client {c['client_id']} gamma {gamma!r}")
        for client_id, a in assignments.items():
            if seen.get(client_id) != a["server_id"]:
                violations.append(f"epoch {t}: assignment of {client_id} not in its client record")
        active = set(seen)
        counts["sim.arrivals"] += len(active - previous)
        counts["sim.departures"] += len(previous - active)
        counts["sim.client_epochs"] += len(active)
        counts["scheduler.assignments"] += len(assignments)
        previous = active
    return violations, dict(counts)

"""Independent reference implementations used as test oracles.

The enumerator here is deliberately naive and shares no search code with
the package: it walks the full cartesian product of per-client options
(every candidate plus "unassigned") and keeps the best feasible plan.
Feasibility uses sequential capacity subtraction in client-id order, the
same arithmetic convention the solvers' canonical objective uses, so
objectives compare exactly.
"""

from __future__ import annotations

import itertools
import random

from bass_sim.model import GainEntry
from bass_sim.scheduler import RequestBatch


def brute_force_optimum(batch, capacities, reserve_mbps):
    """Optimal objective and assignment map by full enumeration.

    Among equal-objective plans the first one in product order wins, which
    (with "unassigned" first and candidates in server-id order) is the
    lexicographically smallest assignment vector.
    """
    client_ids = sorted(batch.entries)
    option_lists = [
        [None] + sorted(batch.entries[cid], key=lambda e: e.server_id) for cid in client_ids
    ]
    server_ids = {e.server_id for opts in option_lists for e in opts if e is not None}
    base_usable = {sid: capacities[sid] - reserve_mbps for sid in server_ids}

    best_objective = None
    best_assignments = None
    for combo in itertools.product(*option_lists):
        usable = dict(base_usable)
        objective = 0.0
        feasible = True
        for entry in combo:
            if entry is None:
                continue
            if entry.b_via_mbps <= usable[entry.server_id]:
                usable[entry.server_id] -= entry.b_via_mbps
                objective += entry.gain_mbps
            else:
                feasible = False
                break
        if not feasible:
            continue
        if best_objective is None or objective > best_objective:
            best_objective = objective
            best_assignments = {
                cid: entry.server_id
                for cid, entry in zip(client_ids, combo)
                if entry is not None
            }
    return best_objective, best_assignments


def random_batch(rng: random.Random, n_max: int = 4, m_max: int = 4, epoch_t: int = 0):
    """A random small matching instance: (batch, capacities, reserve).

    Gains span negative to positive, demands and capacities are generic
    continuous values so float boundary coincidences have probability zero.
    """
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    server_ids = [f"s{j}" for j in range(m)]
    capacities = {sid: rng.uniform(0.0, 30.0) for sid in server_ids}
    reserve = rng.choice([0.0, rng.uniform(0.0, 5.0)])
    entries = {}
    for i in range(n):
        client_id = f"c{i}"
        count = rng.randint(0, m)
        group = []
        for sid in rng.sample(server_ids, count):
            group.append(
                GainEntry(
                    client_id=client_id,
                    server_id=sid,
                    b_client_server_mbps=rng.uniform(0.0, 20.0),
                    b_server_origin_mbps=rng.uniform(0.0, 20.0),
                    b_baseline_mbps=rng.uniform(0.0, 15.0),
                )
            )
        if group:
            entries[client_id] = group
    return RequestBatch.build(epoch_t, entries), capacities, reserve

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
from bass_sim.topology import geo_distance_km


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


def random_batch(rng: random.Random, n_max: int = 4, m_max: int = 4):
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
    return RequestBatch.build(entries), capacities, reserve


def contended_batch(rng: random.Random, n: int):
    """A batch shaped like a contended exact run: (batch, capacities, reserve).

    Every client can use each of 3 relays of about 20 Mbit/s, reserve 0,
    with demands of 2-14 Mbit/s, so two or three clients fill a relay and
    the capacity prices of the exact search bind. Baselines up to 8 Mbit/s
    leave some clients whose every reduced gain is negative at those prices.
    """
    server_ids = ["s0", "s1", "s2"]
    capacities = {sid: rng.uniform(18.0, 22.0) for sid in server_ids}
    entries = {}
    for i in range(n):
        client_id = f"c{i:02d}"
        baseline = rng.uniform(1.0, 8.0)
        entries[client_id] = [
            GainEntry(client_id, sid, rng.uniform(2.0, 14.0), rng.uniform(4.0, 16.0), baseline)
            for sid in server_ids
        ]
    return RequestBatch.build(entries), capacities, 0.0


def lagrangian_bound(batch, capacities, reserve_mbps, prices):
    """`Σ_s λ_s·usable_s + Σ_c max(0, max_e (g_e − λ_s·d_e))` for the given
    prices, a server without a price counting as price 0."""
    total = 0.0
    for sid, price in prices.items():
        total += price * (capacities[sid] - reserve_mbps)
    for group in batch.entries.values():
        total += max([0.0] + [e.gain_mbps - prices.get(e.server_id, 0.0) * e.b_via_mbps
                              for e in group])
    return total


def filtered_then_sorted_candidates(client, servers, k, load_threshold, load_rates):
    """Candidate ids by filtering and sorting every server: drop those whose
    load rate is below the threshold, sort the rest by (great-circle
    distance, id), keep k."""
    eligible = [s for s in servers if load_rates[s.id] >= load_threshold]
    eligible.sort(key=lambda s: (geo_distance_km(client.location, s.location), s.id))
    return [s.id for s in eligible[:k]]

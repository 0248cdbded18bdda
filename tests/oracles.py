"""Independent reference implementations used as test oracles.

The enumerator here is deliberately naive and shares no search code with
the package: it walks the full cartesian product of per-client options
(every candidate plus "unassigned") and keeps the best feasible plan.
Like the solvers, it takes each server's usable capacity (remaining
capacity minus the reserve). Feasibility uses sequential subtraction from
it in client-id order, the same arithmetic convention the solvers'
canonical objective uses, so objectives compare exactly.
`lexicographic_exact` is the exact search as it walked clients in id
order; it shares the capacity prices, greedy incumbent and plan builder
with the package and serves batches too large to enumerate. `encode` is the
byte oracle of the JSON writer: `codec.save_json(value, path)` writes
`json.dumps(encode(value), indent=2, sort_keys=True) + "\n"`. The
`*_every_link` functions measure as the package did before it read links
lazily: every link drawn, in link order. `FakeNet` is a path oracle with
fixed per-link tables that records which links it is asked for, and
`link_fuzz_scenario` builds the link mixes both are compared on.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from collections.abc import Mapping
from enum import Enum

from bass_sim.model import (
    AggregationServer,
    BBoxClient,
    EdgeLink,
    GainEntry,
    GeoPoint,
    LinkKind,
    OriginServer,
)
from bass_sim.scheduler import RequestBatch, _capacity_prices, _plan, solve_greedy
from bass_sim.topology import MAX_LINKS_PER_CLIENT, NetModelParams, Scenario, geo_distance_km


def encode(value):
    """Plain JSON data: a dataclass becomes a dict with one key per field, an
    enum its value, a tuple or list a list, a mapping a dict."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [encode(item) for item in value]
    if isinstance(value, Mapping):
        return {key: encode(item) for key, item in value.items()}
    return value


def brute_force_optimum(batch, usable):
    """Optimal objective and assignment map under `usable` capacities, by
    full enumeration.

    Among equal-objective plans the first one in product order wins, which
    (with "unassigned" first and candidates in server-id order) is the
    lexicographically smallest assignment vector.
    """
    client_ids = sorted(batch.entries)
    option_lists = [
        [None] + sorted(batch.entries[cid], key=lambda e: e.server_id) for cid in client_ids
    ]
    server_ids = {e.server_id for opts in option_lists for e in opts if e is not None}
    base_usable = {sid: usable[sid] for sid in server_ids}

    best_objective = None
    best_assignments = None
    for combo in itertools.product(*option_lists):
        left = dict(base_usable)
        objective = 0.0
        feasible = True
        for entry in combo:
            if entry is None:
                continue
            if entry.b_via_mbps <= left[entry.server_id]:
                left[entry.server_id] -= entry.b_via_mbps
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


def lexicographic_exact(batch, usable):
    """The exact search as it walked before it branched by gain: clients in
    id order, each client's options unassigned first and then by server id,
    so leaves come in lexicographic order of the assignment vector and the
    first optimum found is the smallest. Same greedy incumbent, capacity
    prices and bounds as `solve_exact`; no client cap. A reference for
    batches too large to enumerate.
    """
    n = batch.n
    options = [
        sorted((e for e in group if e.gain_mbps > 0.0), key=lambda e: e.server_id)
        for group in batch.entries.values()
    ]
    best_objective = solve_greedy(batch, usable).objective_mbps
    prices = _capacity_prices(options, usable, best_objective)
    priced = [
        [
            (e, e.server_id, e.b_via_mbps, e.gain_mbps,
             e.gain_mbps - prices[e.server_id] * e.b_via_mbps)
            for e in group
        ]
        for group in options
    ]
    suffix_bound = [0.0] * (n + 1)
    priced_bound = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_bound[i] = suffix_bound[i + 1] + max([0.0] + [o[3] for o in priced[i]])
        priced_bound[i] = priced_bound[i + 1] + max([0.0] + [o[4] for o in priced[i]])
    charged = sum(prices[sid] * usable[sid] for sid in prices)
    slack = 1e-9 + 1e-12 * (charged + suffix_bound[0])
    suffix_bound_safe = [b + 1e-9 + 1e-12 * abs(b) for b in suffix_bound]
    priced_bound_safe = [b + charged + slack for b in priced_bound]

    best_choices = None
    choices = [None] * n
    usable = dict(usable)

    def dfs(i, objective, reduced):
        nonlocal best_objective, best_choices
        if (
            objective + suffix_bound_safe[i] < best_objective
            or reduced + priced_bound_safe[i] < best_objective
        ):
            return
        if i == n:
            if objective > best_objective or (
                objective == best_objective and best_choices is None
            ):
                best_objective = objective
                best_choices = choices.copy()
            return
        dfs(i + 1, objective, reduced)
        for entry, server_id, demand, gain, entry_reduced in priced[i]:
            remaining = usable[server_id]
            if demand <= remaining:
                usable[server_id] = remaining - demand
                choices[i] = entry
                dfs(i + 1, objective + gain, reduced + entry_reduced)
                choices[i] = None
                usable[server_id] = remaining

    dfs(0, 0.0, 0.0)
    return _plan(entry for entry in best_choices if entry is not None)


def random_instance(rng: random.Random, n_max: int = 4, m_max: int = 4):
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
                    b_via_mbps=min(rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0)),
                    b_baseline_mbps=rng.uniform(0.0, 15.0),
                )
            )
        if group:
            entries[client_id] = group
    return RequestBatch.build(entries), capacities, reserve


def random_batch(rng: random.Random, n_max: int = 4, m_max: int = 4):
    """`random_instance`'s draws as the solvers take them: (batch, usable),
    each server's usable capacity being its capacity minus the reserve."""
    batch, capacities, reserve = random_instance(rng, n_max, m_max)
    return batch, {sid: cap - reserve for sid, cap in capacities.items()}


def contended_batch(rng: random.Random, n: int):
    """A batch shaped like a contended exact run: (batch, usable).

    Every client can use each of 3 relays of about 20 Mbit/s, reserve 0,
    with demands of 2-14 Mbit/s, so two or three clients fill a relay and
    the capacity prices of the exact search bind. Baselines up to 8 Mbit/s
    leave some clients whose every reduced gain is negative at those prices.
    """
    server_ids = ["s0", "s1", "s2"]
    usable = {sid: rng.uniform(18.0, 22.0) for sid in server_ids}
    entries = {}
    for i in range(n):
        client_id = f"c{i:02d}"
        baseline = rng.uniform(1.0, 8.0)
        entries[client_id] = [
            GainEntry(client_id, sid, min(rng.uniform(2.0, 14.0), rng.uniform(4.0, 16.0)), baseline)
            for sid in server_ids
        ]
    return RequestBatch.build(entries), usable


def lagrangian_bound(batch, usable, prices):
    """`Σ_s λ_s·usable_s + Σ_c max(0, max_e (g_e − λ_s·d_e))` for the given
    prices, a server without a price counting as price 0."""
    total = 0.0
    for sid, price in prices.items():
        total += price * usable[sid]
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


def baseline_every_link(client, net):
    """`max` over every link's value on the client's direct path, in link order."""
    return max([net.link_bandwidth(client, client.origin_id, i) for i in range(len(client.links))])


def via_every_link(client, server, net):
    """min(sum of every subflow in link order, the relay's leg to the origin)."""
    total = 0.0
    for i in range(len(client.links)):
        total += net.link_bandwidth(client, server.id, i)
    return min(total, net.server_origin_bandwidth(server, client.origin_id))


def measure_every_link(client, candidates, net, baseline, usable=None):
    """One gain entry per candidate, every link drawn; `usable` is ignored."""
    return [GainEntry(client.id, server.id, via_every_link(client, server, net), baseline)
            for server in candidates]


def links_drawn(net, client, dest_id):
    """How many of the client's links a `DistanceDecayNetwork` has drawn to `dest_id`."""
    values = net._clients[client.id].links.get(dest_id, ())
    return sum(value is not None for value in values)


def _point(rng):
    return GeoPoint(rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0))


def link_fuzz_scenario(rng: random.Random, many_links: bool = False):
    """A small scenario whose clients have 1-8 links (the first one
    `MAX_LINKS_PER_CLIENT` if `many_links`), with uplinks mixing ±0, ties
    and spread values; noise off or on, and `direct_path_factor` below, at
    and above 1, with wide-area paths both below and above the uplinks."""
    params = NetModelParams(
        base_path_mbps=rng.choice([2.0, 10.0, 40.0]),
        distance_decay_per_1000km=rng.choice([0.0, 1.0]),
        noise_sigma=rng.choice([0.0, 0.5, 1.5]),
        direct_path_factor=rng.choice([0.3, 1.0, 2.5]),
    )
    tied = rng.uniform(0.5, 20.0)
    origins = tuple(OriginServer(f"o{k}", _point(rng)) for k in range(rng.randint(1, 2)))
    servers = tuple(
        AggregationServer(f"s{j}", _point(rng), 100.0, 100.0) for j in range(rng.randint(1, 4))
    )
    clients = []
    for i in range(rng.randint(1, 6)):
        n = MAX_LINKS_PER_CLIENT if many_links and i == 0 else rng.randint(1, 8)
        links = tuple(
            EdgeLink(f"c{i}-l{k}", LinkKind.WIFI,
                     rng.choice([0.0, -0.0, tied, tied, rng.uniform(0.0, 30.0)]))
            for k in range(n)
        )
        clients.append(BBoxClient(f"c{i}", _point(rng), links, rng.choice(origins).id))
    return Scenario(tuple(clients), servers, origins, params, seed=rng.randrange(1000))


class FakeNet:
    """Path oracle over fixed tables that records each link value it is
    first asked for, as a caching network draws it once.

    `links` maps (client id, destination id) to the per-link values, a
    destination being a relay or the client's origin; `server_origin` maps
    (relay id, origin id) to the relay's leg. Links are read by uplink
    descending, ties by index, as the network orders them.
    """

    def __init__(self, links, server_origin=None):
        self._links = links
        self._server_origin = server_origin or {}
        self.draws = []  # (client id, destination id, link index) per first read

    def link_order(self, client):
        return sorted(range(len(client.links)), key=lambda i: (-client.links[i].uplink_mbps, i))

    def link_bandwidth(self, client, dest_id, i):
        if (client.id, dest_id, i) not in self.draws:
            self.draws.append((client.id, dest_id, i))
        return self._links[(client.id, dest_id)][i]

    def server_origin_bandwidth(self, server, origin_id):
        return self._server_origin[(server.id, origin_id)]

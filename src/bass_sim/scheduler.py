"""Gain-matrix construction and the capacity-constrained matching solvers.

One scheduling round works on a request batch: every requesting client
contributes its candidate relay servers with measured gains, and a
solver picks at most one server per client so that the summed demands on
each server stay within its usable capacity: its remaining capacity
minus a safety reserve. `AssignmentLedger` works out that `usable` map
once per run; each solver takes it and writes only to its own copy, so
one map serves every epoch. The ledger holds only the plan in force,
which it checks once against `usable` when it is applied. The objective
is the total bandwidth gain of the chosen assignments; leaving a client
on its direct path is always allowed and contributes zero.
`measure_gains` draws a candidate's subflows by uplink descending and
stops once the links not drawn yet cannot change its via-bandwidth.
Neither BASS solver ever takes an entry with gain ≤ 0, so for them it
also leaves out each candidate whose relay-to-origin leg and the
subflows drawn so far already rule out a gain and that fits the relay; a
requesting client's group can then be empty. The batch orders only its
clients, by id; each solver orders the entries it walks.

Two solvers are provided. `solve_exact` searches all assignments
(depth-first, best gains first; the plan full enumeration returns) and is
capped at a small client count. It prunes with two admissible bounds: each
remaining client's best gain, and the Lagrangian relaxation of the relay
capacities (Ross & Soland 1975; Fisher 1981), with relay prices from a few
root subgradient steps (Held & Karp 1971). Both bounds carry a float slack
and never prune a tie, and ties are settled at the leaves, so neither the
order nor the prices can change the plan. `solve_greedy` scans
candidate pairs in globally descending gain order and is the production
path; `random_policy` is the uniform baseline both are compared against.
Each solver picks at most one gain entry per client, and one builder turns
the picks into the plan. `sim.POLICIES` is the one list of policies: it
names each policy, the solver call that serves it, and whether that
solver reads entries that cannot gain. Determinism
contract: identical inputs produce identical plans, including tie-breaks
(gain ties resolve by client id, then server id; equal objectives resolve
to the lexicographically smallest assignment vector, unassigned before any
server, which the exact search compares at each leaf it reaches).

Objectives are floats; every objective in this module is computed as the
running sum of chosen gains in client-id order, so equal plans always
produce bit-equal objectives; the exact search also checks fit in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import BatchTooLargeError, CapacityConflictError
from .model import AggregationServer, BBoxClient, GainEntry, PathOracle
from .seeding import rng_for

DEFAULT_EXACT_CAP = 12

# Below Python's recursion limit, with room for callers (README, `bass_exact`).
MAX_EXACT_DEPTH = 800

# Root subgradient steps that price relay capacity for the exact search,
# and the step's decay. A few steps price a contended relay; many cost
# more at the root than the prices prune on a small batch.
_PRICE_STEPS = 16
_PRICE_STEP_DECAY = 0.8

# Absorbs summation-order ulps between a solver's internal bookkeeping and
# later validation, relative to a capacity above 1 Mbit/s; genuine
# conflicts differ by whole demands, not 1e-9 of the capacity.
_FEAS_SLACK = 1e-9


@dataclass(frozen=True)
class RequestBatch:
    """All requests of one scheduling round.

    `entries` maps each requesting client to its candidate gain entries,
    filed under its own id with no relay twice, as `run_epoch` builds
    them. Construction orders the clients by id; each group keeps the
    order it was given, and each solver orders what it walks. A client
    whose every candidate `measure_gains` left out keeps its key with an
    empty group: it still counts in `n`, and every solver leaves it
    unassigned.
    """

    entries: Mapping[str, Sequence[GainEntry]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", dict(sorted(self.entries.items())))

    @classmethod
    def build(cls, entries: Mapping[str, Sequence[GainEntry]]) -> "RequestBatch":
        return cls(entries=entries)

    @property
    def n(self) -> int:
        """Number of requesting clients."""
        return len(self.entries)


@dataclass(frozen=True, slots=True)
class Assignment:
    """One chosen client-to-server pairing with its capacity demand."""

    server_id: str
    demand_mbps: float
    gain_mbps: float


@dataclass(frozen=True)
class AllocationPlan:
    """Solver output: at most one assignment per client, ordered by client id.

    The objective is derived here, as the running sum of the gains in
    client-id order, and cannot be passed in, so equal plans always carry
    bit-equal objectives.
    """

    assignments: Mapping[str, Assignment]
    objective_mbps: float = field(init=False)

    def __post_init__(self) -> None:
        assignments = dict(sorted(self.assignments.items()))
        object.__setattr__(self, "assignments", assignments)
        total = 0.0
        for assignment in assignments.values():
            total += assignment.gain_mbps
        object.__setattr__(self, "objective_mbps", total)


def measure_gains(
    client: BBoxClient,
    candidates: Sequence[AggregationServer],
    net: PathOracle,
    baseline: float,
    usable: Mapping[str, float] | None = None,
) -> list[GainEntry]:
    """Measure one client's gain entry for every candidate server that can matter.

    A candidate's via-bandwidth is min(S, leg): S the sum, in link order, of
    the client's per-link subflows to the server (each capped by that
    link's uplink), and leg the server's own path to the client's origin.
    The entry's gain subtracts `baseline`, the client's best single link on
    the direct path. Results keep the candidates' order; an empty candidate
    list gives no entries.

    Subflows are drawn by uplink descending, and before each draw S is
    bounded in link order: `lower` counts a link not drawn yet as 0,
    `upper` as its uplink. Rounded addition is monotone, so
    lower ≤ S ≤ upper. Once lower ≥ leg the via-bandwidth is leg, and no
    more links are drawn. Given `usable`, once min(upper, leg) is at most
    `baseline` and at most `usable[server.id]`, the candidate gets no
    entry: whatever the links left are, its gain is ≤ 0 and it fits the
    relay. Pass `usable` only for a policy that never takes such an entry.
    """
    uplinks = [link.uplink_mbps for link in client.links]
    order = net.link_order(client)
    entries = []
    for server in candidates:
        leg = net.server_origin_bandwidth(server, client.origin_id)
        cap = None if usable is None else min(baseline, usable[server.id])
        lows = [0.0] * len(uplinks)
        highs = list(uplinks)
        for i in (*order, None):
            lower = upper = 0.0
            for low, high in zip(lows, highs):
                lower += low
                upper += high
            if cap is not None and min(upper, leg) <= cap:
                break
            if lower >= leg or i is None:
                entries.append(GainEntry(client.id, server.id, min(lower, leg), baseline))
                break
            lows[i] = highs[i] = net.link_bandwidth(client, server.id, i)
    return entries


def _plan(chosen: Iterable[GainEntry]) -> AllocationPlan:
    """The plan that puts each chosen entry's client on its server; the
    client's demand on the server is the entry's via-bandwidth."""
    return AllocationPlan({
        entry.client_id: Assignment(entry.server_id, entry.b_via_mbps, entry.gain_mbps)
        for entry in chosen
    })


def solve_greedy(batch: RequestBatch, usable: Mapping[str, float]) -> AllocationPlan:
    """Greedy heuristic: take candidate pairs in global descending-gain order.

    A pair is taken iff its client is still unassigned, its gain is
    positive, and its demand fits what is left of the server's `usable`
    capacity (a copy, decremented as pairs are taken). Ties in gain break
    by client id, then server id.
    """
    usable = dict(usable)
    pairs = [
        entry
        for group in batch.entries.values()
        for entry in group
        if entry.gain_mbps > 0.0
    ]
    pairs.sort(key=lambda e: (-e.gain_mbps, e.client_id, e.server_id))
    chosen: dict[str, GainEntry] = {}
    for entry in pairs:
        if entry.client_id in chosen:
            continue
        if entry.b_via_mbps <= usable[entry.server_id]:
            chosen[entry.client_id] = entry
            usable[entry.server_id] -= entry.b_via_mbps
    return _plan(chosen.values())


def _capacity_prices(
    options: Sequence[Sequence[GainEntry]],
    usable: Mapping[str, float],
    incumbent: float,
) -> dict[str, float]:
    """Relay capacity prices for the exact search's Lagrangian bound.

    For prices λ_s ≥ 0, the Lagrangian relaxation of the capacity
    constraints bounds every feasible plan's objective:
    `UB(λ) = Σ_s λ_s·usable_s + Σ_c max(0, max_e (g_e − λ_s·d_e))`. A plan's
    gains are its reduced gains `g_e − λ_s·d_e` plus `λ_s` times each
    server's demand, and that demand is at most `usable_s`. A short
    subgradient lowers UB (Held & Karp 1971): the step decays, is scaled by
    the gap from UB to `incumbent` (a feasible objective) and moves each
    price by its server's relative overload. The prices with the smallest
    UB seen are returned.
    """
    prices = dict.fromkeys(sorted({e.server_id for group in options for e in group}), 0.0)
    # A server with no room keeps price 0, so its bound term never counts.
    servers = [sid for sid in prices if usable[sid] > 0.0]
    best_prices, best_bound = prices, float("inf")
    for step in range(_PRICE_STEPS):
        bound = 0.0
        for sid in servers:
            bound += prices[sid] * usable[sid]
        demand = dict.fromkeys(prices, 0.0)
        for group in options:
            best, pick = 0.0, None
            for e in group:
                reduced = e.gain_mbps - prices[e.server_id] * e.b_via_mbps
                if reduced > best:
                    best, pick = reduced, e
            if pick is not None:
                bound += best
                demand[pick.server_id] += pick.b_via_mbps
        if bound < best_bound:
            best_prices, best_bound = prices, bound
        # Relative overload per server; a free server at price 0 cannot move.
        overload = {
            sid: demand[sid] / usable[sid] - 1.0
            for sid in servers
            if prices[sid] > 0.0 or demand[sid] > usable[sid]
        }
        norm = sum(x * x for x in overload.values())
        if norm == 0.0 or bound <= incumbent:
            break
        scale = _PRICE_STEP_DECAY**step * (bound - incumbent) / norm
        prices = dict(prices)
        for sid, x in overload.items():
            prices[sid] = max(0.0, prices[sid] + scale * x / usable[sid])
    return best_prices


def _fits(picks: Iterable[tuple[str, float]], usable: Mapping[str, float]) -> bool:
    """Whether (server id, demand) picks, subtracted in client-id order, fit `usable`."""
    left = dict(usable)
    for server_id, demand in picks:
        if demand > left[server_id]:
            return False
        left[server_id] -= demand
    return True


def solve_exact(
    batch: RequestBatch,
    usable: Mapping[str, float],
    *,
    client_cap: int = DEFAULT_EXACT_CAP,
) -> AllocationPlan:
    """The plan full enumeration returns under each server's `usable`
    capacity, found by branch and bound.

    Depth-first over the clients with a positive gain, by best gain
    descending (ties by id), each one's options by gain descending (ties by
    server id), then unassigned. A path is pruned by two admissible upper
    bounds, each with a slack so rounding never prunes a tie: its objective
    plus each remaining client's best gain, and its reduced objective plus
    the Lagrangian bound of `_capacity_prices` over the remaining clients.
    A leaf's objective is summed and its demands checked in client-id order;
    it is kept if it beats the incumbent, or ties it with a smaller
    assignment vector (unassigned before any server, servers by id), so the
    order and the prices only decide what is pruned. Raises
    BatchTooLargeError above `client_cap` clients, or above
    `MAX_EXACT_DEPTH` clients with a positive gain; use solve_greedy there.
    """
    n = batch.n
    if n > client_cap:
        raise BatchTooLargeError(
            f"batch has {n} clients, above the exact-solver cap of {client_cap}; "
            "use solve_greedy for batches this size"
        )
    # Positive gains only, best first: a gain <= 0 never beats staying unassigned.
    options = [
        sorted((e for e in group if e.gain_mbps > 0.0), key=lambda e: (-e.gain_mbps, e.server_id))
        for group in batch.entries.values()
    ]
    # The stable sort breaks ties in best gain by client id.
    order = sorted((i for i in range(n) if options[i]), key=lambda i: -options[i][0].gain_mbps)
    depth = len(order)
    if depth > MAX_EXACT_DEPTH:
        raise BatchTooLargeError(
            f"batch has {depth} clients with a positive gain, above the exact search's "
            f"depth limit of {MAX_EXACT_DEPTH}; use solve_greedy for batches this size")
    # Seed the incumbent with the greedy plan if it fits in client-id order,
    # else with the empty plan; either is a leaf below that no bound prunes.
    greedy = solve_greedy(batch, usable)
    fits = _fits(((a.server_id, a.demand_mbps) for a in greedy.assignments.values()), usable)
    best_objective = greedy.objective_mbps if fits else 0.0
    prices = _capacity_prices(options, usable, best_objective)

    # Per search position, each option as (entry, server, demand, gain, reduced
    # gain); per suffix, the sums of best gains and of best reduced gains (>= 0).
    priced = [[(e, e.server_id, e.b_via_mbps, e.gain_mbps,
                e.gain_mbps - prices[e.server_id] * e.b_via_mbps) for e in options[i]]
              for i in order]
    suffix_bound, priced_bound = [0.0] * (depth + 1), [0.0] * (depth + 1)
    for k in range(depth - 1, -1, -1):
        suffix_bound[k] = suffix_bound[k + 1] + priced[k][0][3]
        priced_bound[k] = priced_bound[k + 1] + max([0.0] + [o[4] for o in priced[k]])
    # One rounding slack for the whole batch. A bound (search-order sums) and a
    # leaf's objective (an id-order sum) each round `depth` times at most, over
    # terms whose sizes sum to at most `charged` plus the best gains, so both are
    # within 2·depth·2⁻⁵³ of that sum: under 1e-12 for depth ≤ 4,500, and
    # MAX_EXACT_DEPTH keeps depth far below that.
    charged = sum(prices[sid] * usable[sid] for sid in prices)
    slack = 1e-9 + 1e-12 * (charged + suffix_bound[0])
    suffix_bound_safe = [b + slack for b in suffix_bound]
    priced_bound_safe = [b + charged + slack for b in priced_bound]

    best_choices: list[GainEntry | None] | None = None
    best_vector = [(2, "")]  # above every assignment vector until a leaf is kept
    choices: list[GainEntry | None] = [None] * n
    # Room for ulps: the search subtracts in its order, a kept leaf fits in id order.
    left = {sid: u + _FEAS_SLACK * max(1.0, u) for sid, u in usable.items()}

    def dfs(k: int, objective: float, reduced: float) -> None:
        nonlocal best_objective, best_choices, best_vector
        if (
            objective + suffix_bound_safe[k] < best_objective
            or reduced + priced_bound_safe[k] < best_objective
        ):
            return
        if k == depth:
            total = 0.0
            for entry in choices:
                if entry is not None:
                    total += entry.gain_mbps
            # Keep a fitting leaf that ranks first by objective, then by vector.
            vector = [(0, "") if e is None else (1, e.server_id) for e in choices]
            if (-total, vector) < (-best_objective, best_vector) and _fits(
                    ((e.server_id, e.b_via_mbps) for e in choices if e is not None), usable):
                best_objective, best_choices, best_vector = total, choices.copy(), vector
            return
        i = order[k]
        for entry, server_id, demand, gain, entry_reduced in priced[k]:
            remaining = left[server_id]
            if demand <= remaining:
                left[server_id] = remaining - demand
                choices[i] = entry
                dfs(k + 1, objective + gain, reduced + entry_reduced)
                choices[i] = None
                left[server_id] = remaining
        dfs(k + 1, objective, reduced)  # leave client i unassigned

    dfs(0, 0.0, 0.0)
    if best_choices is None:
        raise AssertionError("exact search finished without adopting a plan")
    return _plan(entry for entry in best_choices if entry is not None)


def random_policy(batch: RequestBatch, usable: Mapping[str, float], seed: int) -> AllocationPlan:
    """Baseline policy: assign each client a uniformly random candidate.

    Clients draw in id order. Candidates that no longer fit what is left
    of the server's `usable` capacity (a copy, decremented as clients are
    placed) are skipped; the draw is uniform over the ones that fit at that
    moment, so every plan is feasible by construction. Gains, which may be
    negative, only order the draw: by gain descending, ties by server id,
    so the plan does not depend on the order within a group.
    """
    usable = dict(usable)
    rng = rng_for(seed, "random-policy")
    chosen: list[GainEntry] = []
    for group in batch.entries.values():
        feasible = [e for e in group if e.b_via_mbps <= usable[e.server_id]]
        if not feasible:
            continue
        feasible.sort(key=lambda e: (-e.gain_mbps, e.server_id))
        entry = feasible[rng.randrange(len(feasible))]
        chosen.append(entry)
        usable[entry.server_id] -= entry.b_via_mbps
    return _plan(chosen)


class AssignmentLedger:
    """The plan in force; each server's load derives from it.

    `usable` holds each server's remaining capacity when the run starts
    minus the reserve, worked out once: every epoch releases all before it
    solves, so this is what every solve sees. `held` is the plan last
    applied, minus the clients released since. Servers are never written.
    """

    def __init__(self, servers: Iterable[AggregationServer], reserve_mbps: float) -> None:
        self.servers = {server.id: server for server in servers}
        self.usable = {
            sid: s.remaining_capacity_mbps - reserve_mbps for sid, s in self.servers.items()
        }
        self.held: dict[str, Assignment] = {}

    def load_rates(self) -> dict[str, float]:
        """Remaining over total capacity, by server id: 1.0 means idle. The
        held demands are subtracted from each server's starting remaining
        capacity in `held`'s order."""
        remaining = {sid: s.remaining_capacity_mbps for sid, s in self.servers.items()}
        for assignment in self.held.values():
            remaining[assignment.server_id] -= assignment.demand_mbps
        return {
            sid: free / self.servers[sid].total_capacity_mbps for sid, free in remaining.items()
        }

    def apply(self, plan: AllocationPlan) -> None:
        """Hold `plan` as the plan in force.

        Its demands, summed per server in client order, must stay within
        `usable`, give or take `_FEAS_SLACK` of a usable capacity above 1;
        a plan that does not fit raises CapacityConflictError and changes
        nothing.
        """
        load = dict.fromkeys(self.usable, 0.0)
        for client_id, assignment in plan.assignments.items():
            server_id = assignment.server_id
            usable = self.usable[server_id]
            load[server_id] += assignment.demand_mbps
            if load[server_id] > usable + _FEAS_SLACK * max(1.0, usable):
                raise CapacityConflictError(
                    f"plan puts {load[server_id]!r} Mbit/s on server {server_id!r} by client "
                    f"{client_id!r}, above its usable {usable!r}"
                )
        self.held = dict(plan.assignments)

    def release(self, client_id: str) -> None:
        """Return a client's capacity, if it holds any."""
        self.held.pop(client_id, None)

    def release_all(self) -> None:
        """Return every client's capacity."""
        self.held.clear()

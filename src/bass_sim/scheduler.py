"""Gain-matrix construction and the capacity-constrained matching solvers.

One scheduling round works on a request batch: every requesting client
contributes its candidate relay servers with measured gains, and a solver
picks at most one server per client so that the summed demands on each
server stay within its remaining capacity minus a safety reserve. The
objective is the total bandwidth gain of the chosen assignments; leaving a
client on its direct path is always allowed and contributes zero.

Two solvers are provided. `solve_exact` searches all assignments
(depth-first, results identical to full enumeration) and is capped at a
small client count. It prunes with two admissible bounds: each remaining
client's best gain, and the Lagrangian relaxation of the relay capacities
(Ross & Soland 1975; Fisher 1981), with relay prices from a few root
subgradient steps (Held & Karp 1971). The bounds only decide what is
pruned: both carry a float slack and never prune a tie, so the prices
cannot change the plan. `solve_greedy` scans
candidate pairs in globally descending gain order and is the production
path; `random_policy` is the uniform baseline both are compared against.
Each solver picks at most one gain entry per client, and one builder turns
the picks into the plan. `sim.POLICIES` is the one list of policies: it
names each policy and the solver call that serves it. Determinism
contract: identical inputs produce identical plans, including tie-breaks
(gain ties resolve by client id, then server id; equal objectives resolve
to the lexicographically smallest assignment vector).

Objectives are floats; every objective in this module is computed as the
running sum of chosen gains in client-id order, so equal plans always
produce bit-equal objectives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Protocol, Sequence

from .errors import BatchTooLargeError, CapacityConflictError, ValidationError
from .model import AggregationServer, BBoxClient, GainEntry
from .seeding import rng_for

DEFAULT_EXACT_CAP = 12

# Root subgradient steps that price relay capacity for the exact search,
# and the step's decay. A few steps price a contended relay; many cost
# more at the root than the prices prune on a small batch.
_PRICE_STEPS = 16
_PRICE_STEP_DECAY = 0.8

# Absorbs summation-order ulps between a solver's internal bookkeeping and
# later validation; genuine conflicts differ by whole demands, not 1e-9.
_FEAS_SLACK = 1e-9

__all__ = [
    "PathOracle",
    "RequestBatch",
    "Assignment",
    "AllocationPlan",
    "AssignmentLedger",
    "measure_gains",
    "solve_exact",
    "solve_greedy",
    "random_policy",
    "DEFAULT_EXACT_CAP",
]


class PathOracle(Protocol):
    """Bandwidth measurements the scheduler needs from the network layer."""

    def subflow_bandwidths(
        self, client: BBoxClient, server: AggregationServer
    ) -> tuple[float, ...]: ...

    def server_origin_bandwidth(self, server: AggregationServer, origin_id: str) -> float: ...


@dataclass(frozen=True)
class RequestBatch:
    """All requests of one scheduling round.

    `entries` maps each requesting client to its candidate gain entries.
    Construction orders the clients by id and each client's candidates by
    gain descending, ties by server id ascending.
    """

    entries: Mapping[str, tuple[GainEntry, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "entries",
            {
                cid: tuple(sorted(group, key=lambda e: (-e.gain_mbps, e.server_id)))
                for cid, group in sorted(self.entries.items())
            },
        )
        for client_id, group in self.entries.items():
            if not group:
                raise ValidationError(f"client {client_id!r} has an empty candidate list")
            server_ids = set()
            for entry in group:
                if entry.client_id != client_id:
                    raise ValidationError(
                        f"entry for client {entry.client_id!r} filed under {client_id!r}"
                    )
                if entry.server_id in server_ids:
                    raise ValidationError(
                        f"client {client_id!r} lists server {entry.server_id!r} twice"
                    )
                server_ids.add(entry.server_id)

    @classmethod
    def build(cls, entries: Mapping[str, Iterable[GainEntry]]) -> "RequestBatch":
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
) -> list[GainEntry]:
    """Measure one client's gain entry for every candidate server.

    The client-to-server bandwidth is the sum of its per-link subflows (each
    capped by that link's uplink); GainEntry caps it by the server's own
    path to the client's origin and subtracts `baseline`, the client's best
    single link on the direct path. Results keep the candidates' order;
    RequestBatch sorts them.
    """
    if not candidates:
        raise ValidationError(f"client {client.id!r}: candidate list must not be empty")
    entries = []
    for server in candidates:
        b_client_server = 0.0
        for subflow in net.subflow_bandwidths(client, server):
            b_client_server += subflow
        b_server_origin = net.server_origin_bandwidth(server, client.origin_id)
        entries.append(
            GainEntry(
                client_id=client.id,
                server_id=server.id,
                b_client_server_mbps=b_client_server,
                b_server_origin_mbps=b_server_origin,
                b_baseline_mbps=baseline,
            )
        )
    return entries


def _usable_capacity(
    batch: RequestBatch,
    capacities: Mapping[str, float],
    reserve_mbps: float,
) -> dict[str, float]:
    return {
        entry.server_id: capacities[entry.server_id] - reserve_mbps
        for group in batch.entries.values()
        for entry in group
    }


def _plan(chosen: Iterable[GainEntry]) -> AllocationPlan:
    """The plan that puts each chosen entry's client on its server; the
    client's demand on the server is the entry's via-bandwidth."""
    return AllocationPlan({
        entry.client_id: Assignment(entry.server_id, entry.b_via_mbps, entry.gain_mbps)
        for entry in chosen
    })


def solve_greedy(
    batch: RequestBatch,
    capacities: Mapping[str, float],
    reserve_mbps: float,
) -> AllocationPlan:
    """Greedy heuristic: take candidate pairs in global descending-gain order.

    A pair is taken iff its client is still unassigned, its gain is
    positive, and its demand fits the server's remaining usable capacity
    (remaining minus reserve, decremented as pairs are taken). Ties in gain
    break by client id, then server id.
    """
    usable = _usable_capacity(batch, capacities, reserve_mbps)
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


def solve_exact(
    batch: RequestBatch,
    capacities: Mapping[str, float],
    reserve_mbps: float,
    *,
    client_cap: int = DEFAULT_EXACT_CAP,
) -> AllocationPlan:
    """Optimal assignment by exhaustive search over all feasible plans.

    Depth-first over clients in id order, pruned by two admissible upper
    bounds on what a path can still reach: its objective plus each
    remaining client's best gain, and its reduced objective plus the
    Lagrangian bound of `_capacity_prices` over the remaining clients. Both
    carry a slack so float rounding can never prune a plan that ties or
    beats the incumbent, which keeps the result identical to brute-force
    enumeration. Among equal-objective optima the lexicographically
    smallest assignment vector (client id, then server id, unassigned
    first) is returned. Raises BatchTooLargeError above `client_cap`
    clients; use the greedy solver there.
    """
    n = batch.n
    if n > client_cap:
        raise BatchTooLargeError(
            f"batch has {n} clients, above the exact-solver cap of {client_cap}; "
            "use solve_greedy for batches this size"
        )
    usable = _usable_capacity(batch, capacities, reserve_mbps)
    # Positive-gain candidates only: a zero or negative gain can never beat
    # leaving the client unassigned, and unassigned wins the tie-break.
    options = [[e for e in group if e.gain_mbps > 0.0] for group in batch.entries.values()]
    # Seed the incumbent with the greedy objective; its plan is one of the
    # leaves below, so the search will recover a plan at least this good.
    best_objective = solve_greedy(batch, capacities, reserve_mbps).objective_mbps
    prices = _capacity_prices(options, usable, best_objective)

    # Each option as (entry, server, demand, gain, reduced gain); per suffix
    # of clients, the sum of best gains and the sum of best reduced gains,
    # each at least 0 because leaving a client unassigned is always allowed.
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
    # Slack for rounding, scaled to the terms summed: ulps, not whole gains.
    charged = sum(prices[sid] * usable[sid] for sid in prices)
    slack = 1e-9 + 1e-12 * (charged + suffix_bound[0])
    suffix_bound_safe = [b + 1e-9 + 1e-12 * abs(b) for b in suffix_bound]
    priced_bound_safe = [b + charged + slack for b in priced_bound]

    best_choices: list[GainEntry | None] | None = None
    best_key: tuple[str, ...] | None = None
    choices: list[GainEntry | None] = [None] * n

    def key_of(current: list[GainEntry | None]) -> tuple[str, ...]:
        return tuple("" if e is None else e.server_id for e in current)

    def dfs(i: int, objective: float, reduced: float) -> None:
        nonlocal best_objective, best_choices, best_key
        if (
            objective + suffix_bound_safe[i] < best_objective
            or reduced + priced_bound_safe[i] < best_objective
        ):
            return
        if i == n:
            if objective > best_objective:
                best_objective = objective
                best_choices = choices.copy()
                best_key = key_of(choices)
            elif objective == best_objective:
                key = key_of(choices)
                if best_key is None or key < best_key:
                    best_choices = choices.copy()
                    best_key = key
            return
        # Highest gain first makes the bounds bite early; ties keep the
        # batch's server-id order.
        for entry, server_id, demand, gain, entry_reduced in priced[i]:
            remaining = usable[server_id]
            if demand <= remaining:
                usable[server_id] = remaining - demand
                choices[i] = entry
                dfs(i + 1, objective + gain, reduced + entry_reduced)
                choices[i] = None
                usable[server_id] = remaining
        dfs(i + 1, objective, reduced)  # leave client i unassigned

    dfs(0, 0.0, 0.0)
    if best_choices is None:
        # The greedy plan is itself a leaf of this search and its path is
        # never pruned, so the search always adopts some plan.
        raise AssertionError("exact search finished without adopting a plan")
    return _plan(entry for entry in best_choices if entry is not None)


def random_policy(
    batch: RequestBatch,
    capacities: Mapping[str, float],
    seed: int,
    reserve_mbps: float,
) -> AllocationPlan:
    """Baseline policy: assign each client a uniformly random candidate.

    Candidates that no longer fit the remaining usable capacity are skipped;
    the draw is uniform over the ones that fit at that moment, so every plan
    is feasible by construction. Gains are ignored (they may be negative).
    """
    usable = _usable_capacity(batch, capacities, reserve_mbps)
    rng = rng_for(seed, "random-policy")
    chosen: list[GainEntry] = []
    for group in batch.entries.values():
        feasible = [e for e in group if e.b_via_mbps <= usable[e.server_id]]
        if not feasible:
            continue
        entry = feasible[rng.randrange(len(feasible))]
        chosen.append(entry)
        usable[entry.server_id] -= entry.b_via_mbps
    return _plan(chosen)


class AssignmentLedger:
    """The assignments in force; remaining capacity and load derive from them.

    `capacities` holds each server's remaining capacity when the run
    starts, which is what every solve sees. `remaining()` replays the held
    demands from it in application order, so releasing everything restores
    the starting vector bit-for-bit. Servers are never written.
    """

    def __init__(self, servers: Iterable[AggregationServer], reserve_mbps: float) -> None:
        self.reserve_mbps = reserve_mbps
        self.servers = {server.id: server for server in servers}
        self.capacities = {sid: s.remaining_capacity_mbps for sid, s in self.servers.items()}
        self._by_client: dict[str, Assignment] = {}

    def assignment_of(self, client_id: str) -> Assignment | None:
        return self._by_client.get(client_id)

    def remaining(self) -> dict[str, float]:
        """Each server's free capacity under the held assignments."""
        remaining = dict(self.capacities)
        for assignment in self._by_client.values():
            remaining[assignment.server_id] -= assignment.demand_mbps
        return remaining

    def load_rates(self) -> dict[str, float]:
        """Remaining over total capacity, by server id: 1.0 means idle."""
        remaining = self.remaining()
        return {
            sid: remaining[sid] / self.servers[sid].total_capacity_mbps for sid in sorted(remaining)
        }

    def apply(self, plan: AllocationPlan) -> None:
        """Record a plan's assignments.

        Validates the whole plan against the remaining capacities first; a
        plan that no longer fits (stale capacities, double assignment)
        raises CapacityConflictError and nothing is applied.
        """
        remaining = self.remaining()
        for client_id, assignment in plan.assignments.items():
            if client_id in self._by_client:
                raise CapacityConflictError(
                    f"client {client_id!r} already holds an assignment; release it first"
                )
            server_id = assignment.server_id
            if server_id not in remaining:
                raise ValidationError(f"plan references unknown server {server_id!r}")
            free = remaining[server_id]
            demand = assignment.demand_mbps
            if demand > free - self.reserve_mbps + _FEAS_SLACK or demand > free:
                raise CapacityConflictError(
                    f"assignment of {demand!r} Mbit/s for client {client_id!r} does not fit "
                    f"server {server_id!r} (remaining {free!r}, reserve {self.reserve_mbps!r})"
                )
            remaining[server_id] = free - demand
        self._by_client.update(plan.assignments)

    def release(self, client_id: str) -> Assignment:
        """Return a client's capacity. Releasing twice or an unassigned client errors."""
        assignment = self._by_client.pop(client_id, None)
        if assignment is None:
            raise ValidationError(f"client {client_id!r} has no active assignment to release")
        return assignment

    def release_all(self) -> None:
        """Return every client's capacity: each server is back at its starting value."""
        self._by_client.clear()

"""Deterministic epoch-driven simulation loop.

One epoch is one re-allocation round (nominally 30 minutes). Each epoch:
departed clients release their capacity, seeded arrivals join, every active
client re-requests (candidate filtering uses the load rates left by the
previous epoch, after which all held capacity is returned and the whole
allocation is rebuilt from scratch), the configured policy solves the joint
batch, the plan is applied, and per-client metrics are recorded. `POLICIES`
is the one list of policies: it maps each name to its solve step and says
whether that step reads entries that cannot gain.

Hit rate semantics: a client's achieved bandwidth is compared against the
best bandwidth it could have obtained this epoch, where the always-available
direct path counts as one of the options next to the capacity-feasible
candidate servers. A client that is correctly left on its direct path (no
candidate beats it) therefore scores 1.0. Rates lie in [0, 1]: one can
underflow to 0.0 at an extreme `direct_path_factor`. `run_epoch` records
only what it measured; each record derives the rest (a client's gain and
hit rate, an epoch's plan), so a run and a records file that `report`
reads derive them alike. Records are a pure function of (scenario,
config): running twice yields identical records.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from .errors import ValidationError
from .model import BBoxClient, baseline_bandwidth, check_choice, check_number
from .scheduler import (
    AllocationPlan,
    Assignment,
    AssignmentLedger,
    DEFAULT_EXACT_CAP,
    RequestBatch,
    measure_gains,
    random_policy,
    solve_exact,
    solve_greedy,
)
from .seeding import MAX_SEED, SeededStream, derive_seed, rng_for
from .topology import DistanceDecayNetwork, Scenario, candidate_subset, sample_client

@dataclass(frozen=True)
class Policy:
    """One policy's solve step, given the batch and the ledger's usable
    capacities, and whether that step reads entries that cannot gain.

    Only for a policy that does are such entries measured: the others get
    a batch without the entries whose gain is ≤ 0 and that fit whatever
    their undrawn subflows are (see `measure_gains`).
    """

    solve: Callable[[RequestBatch, Mapping[str, float], SimConfig, int], AllocationPlan]
    reads_every_entry: bool = False


# The BASS entries look `solve_exact` and `solve_greedy` up in this
# module's globals when they are called, so a wrapper set on `sim.solve_*`
# sees every solve. `random` draws among every entry that fits, gain or not.
POLICIES: dict[str, Policy] = {
    "bass_exact": Policy(lambda batch, usable, config, t: solve_exact(
        batch, usable, client_cap=config.exact_cap)),
    "bass_greedy": Policy(lambda batch, usable, config, t: solve_greedy(batch, usable)),
    "random": Policy(lambda batch, usable, config, t: random_policy(
        batch, usable, derive_seed(config.seed, "policy", t)), reads_every_entry=True),
}

__all__ = [
    "POLICIES",
    "Policy",
    "SimConfig",
    "ClientEpochRecord",
    "EpochRecord",
    "SimState",
    "run_epoch",
    "run_epochs",
    "run_simulation",
]


MAX_ARRIVAL_RATE = 10_000.0


@dataclass(frozen=True)
class SimConfig:
    """Settings of one simulation run.

    A field with `flag` metadata is a `run`/`compare` option; its default
    and range are the field's own. Each number must be finite and not a
    bool, and an `int` field takes only an int (`model.check_number`);
    `policy` and `remeasure_noise` take one of their values, of its exact
    type (`model.check_choice`). `arrival_rate` is at most
    `MAX_ARRIVAL_RATE`, 50 times the 200 of the largest benchmark workload:
    an epoch's arrivals are all built in memory, and stay until they
    depart.
    """

    epochs: int = field(default=10, metadata={"flag": "--epochs"})
    policy: str = "bass_greedy"
    seed: int = field(default=0, metadata={"flag": "--seed"})
    arrival_rate: float = field(default=0.0, metadata={
        "flag": "--arrival-rate", "help": "expected new clients per epoch"})
    session_epochs_mean: float | None = field(default=None, metadata={
        "flag": "--session-mean",
        "help": "mean session length in epochs (default: clients never leave)"})
    k_candidates: int = field(default=3, metadata={"flag": "--k-candidates"})
    load_threshold: float = field(default=0.1, metadata={"flag": "--load-threshold"})
    reserve_mbps: float = field(default=50.0, metadata={"flag": "--reserve-mbps"})
    remeasure_noise: bool = field(default=False, metadata={
        "flag": "--remeasure-noise", "help": "re-draw path noise every epoch"})
    exact_cap: int = field(default=DEFAULT_EXACT_CAP, metadata={
        "flag": "--exact-cap", "help": "client cap for the exact solver"})

    def __post_init__(self) -> None:
        check_number("epochs", self.epochs, integer=True)
        check_choice("policy", self.policy, POLICIES)
        check_number("seed", self.seed, 0, MAX_SEED, integer=True)
        check_number("arrival_rate", self.arrival_rate, 0, MAX_ARRIVAL_RATE)
        if self.session_epochs_mean is not None:
            check_number("session_epochs_mean", self.session_epochs_mean, 1)
        check_number("k_candidates", self.k_candidates, 1, integer=True)
        check_number("load_threshold", self.load_threshold, 0, 1)
        check_number("reserve_mbps", self.reserve_mbps)
        check_choice("remeasure_noise", self.remeasure_noise, (False, True))
        check_number("exact_cap", self.exact_cap, 1, integer=True)


@dataclass(frozen=True, slots=True)
class ClientEpochRecord:
    """Per-client outcome of one epoch, checked alike when a run builds it
    and when `metrics.load_records` reads it. The last three fields derive
    from the others: `gain_mbps` is achieved less baseline, and `gamma` and
    `chose_best` are `achieved / best` and whether `achieved == best`, or
    both None when the client had no candidate server or either bandwidth
    is 0."""

    client_id: str
    server_id: str | None
    candidate_count: int
    feasible_count: int
    b_baseline_mbps: float
    b_best_mbps: float
    b_achieved_mbps: float
    gain_mbps: float = field(init=False)
    gamma: float | None = field(init=False)
    chose_best: bool | None = field(init=False)

    def __post_init__(self) -> None:
        best, achieved = self.b_best_mbps, self.b_achieved_mbps
        if not 0 <= self.feasible_count <= self.candidate_count:
            raise ValidationError(f"need 0 <= feasible_count <= candidate_count, got "
                                  f"{self.feasible_count!r}, {self.candidate_count!r}")
        if not 0 <= self.b_baseline_mbps <= best < math.inf:
            raise ValidationError(f"need 0 <= b_baseline_mbps <= b_best_mbps < inf, got "
                                  f"{self.b_baseline_mbps!r}, {best!r}")
        if not 0 <= achieved <= best:
            raise ValidationError(f"need 0 <= b_achieved_mbps <= b_best_mbps, got "
                                  f"{achieved!r}, {best!r}")
        scored = self.candidate_count and best > 0 and achieved > 0
        object.__setattr__(self, "gain_mbps", achieved - self.b_baseline_mbps)
        object.__setattr__(self, "gamma", achieved / best if scored else None)
        object.__setattr__(self, "chose_best", achieved == best if scored else None)


@dataclass(frozen=True)
class EpochRecord:
    """One epoch's outcome: its per-client records, in strictly ascending
    client id order, one per active client, as `run_epoch` writes them, and
    the relays' load rates. It is also one epoch of records.json. The plan
    applied derives from the records: `assignments` puts each client with a
    `server_id` on that server, with its achieved bandwidth as demand and
    its gain, `objective_mbps` is their running sum of gains (as
    `AllocationPlan` takes it) and `n_active` counts the records."""

    epoch_t: int
    clients: tuple[ClientEpochRecord, ...]
    server_load_rates: Mapping[str, float]
    assignments: Mapping[str, Assignment] = field(init=False)
    objective_mbps: float = field(init=False)
    n_active: int = field(init=False)

    def __post_init__(self) -> None:
        for prev, cur in itertools.pairwise(c.client_id for c in self.clients):
            if not prev < cur:
                raise ValidationError(f"client ids must ascend strictly: {cur!r} after {prev!r}")
        plan = AllocationPlan({c.client_id: Assignment(c.server_id, c.b_achieved_mbps, c.gain_mbps)
                               for c in self.clients if c.server_id is not None})
        object.__setattr__(self, "assignments", plan.assignments)
        object.__setattr__(self, "objective_mbps", plan.objective_mbps)
        object.__setattr__(self, "n_active", len(self.clients))


# Knuth's product method compares against exp(-rate), which underflows to 0
# above a rate of about 745, so larger rates are drawn in chunks and summed
# (a sum of independent Poisson draws is Poisson with the summed rate).
_POISSON_CHUNK = 500.0


def _poisson(rng, lam: float) -> int:
    count = 0
    while lam > 0.0:
        chunk = min(lam, _POISSON_CHUNK)
        lam -= chunk
        threshold = math.exp(-chunk)
        product = rng.random()
        while product > threshold:
            count += 1
            product *= rng.random()
    return count


@dataclass
class SimState:
    """Mutable simulation state owned by the single-threaded loop.

    The only state carried from one epoch to the next is the plan in
    force, which the ledger holds, minus the clients that departed; each
    server's load derives from it. `active` holds the clients in the
    system, and `arrivals` yields the clients that join next, in order.
    """

    config: SimConfig
    net: DistanceDecayNetwork
    ledger: AssignmentLedger
    active: dict[str, BBoxClient]
    arrivals: Iterator[BBoxClient]
    epoch: int = 0


def _arrivals(scenario: Scenario) -> Iterator[BBoxClient]:
    """Clients `len(scenario.clients)`, `+ 1`, ... of the scenario's population,
    skipping any whose id a scenario client, relay or origin already has.
    Each index's id is distinct, so no arrival's id repeats. Each draws its
    origin among the origin ids in sorted order, whatever the file order."""
    taken = {e.id for e in (*scenario.clients, *scenario.agg_servers, *scenario.origins)}
    origin_ids = sorted(o.id for o in scenario.origins)
    for index in itertools.count(len(scenario.clients)):
        client = sample_client(scenario.seed, index, scenario.net_params, origin_ids)
        if client.id not in taken:
            yield client


def new_state(scenario: Scenario, config: SimConfig) -> SimState:
    return SimState(
        config=config,
        net=DistanceDecayNetwork(scenario),
        ledger=AssignmentLedger(scenario.agg_servers, config.reserve_mbps),
        active={c.id: c for c in scenario.clients},
        arrivals=_arrivals(scenario),
    )


def run_epoch(state: SimState) -> EpochRecord:
    """Advance the simulation by one re-allocation round.

    The active clients are sorted once, after arrivals; candidates, gains
    and records all walk them in id order.
    """
    config = state.config
    t = state.epoch

    # 1. Departures return their capacity, and the network forgets them.
    #    Arrivals join after departures, so from epoch 1 on every active
    #    client joined in an earlier epoch, and none leaves in epoch 0. Each
    #    draw is keyed by (client, epoch), so the walk needs no order.
    if config.session_epochs_mean is not None and t > 0:
        p_depart = 1.0 / config.session_epochs_mean
        depart = SeededStream(config.seed, "depart")
        for client_id in list(state.active):
            if depart.random(client_id, t) < p_depart:
                state.ledger.release(client_id)
                del state.active[client_id]
                state.net.forget(client_id)

    # 2. Seeded arrivals join the population.
    if config.arrival_rate > 0.0:
        n_new = _poisson(rng_for(config.seed, "arrivals", t), config.arrival_rate)
        for client in itertools.islice(state.arrivals, n_new):
            state.active[client.id] = client
    client_ids = sorted(state.active)

    # 3. Candidates are filtered on the load the previous epoch left (the
    #    scheduler filters on current load when requests come in). Every
    #    active client re-requests, so the whole allocation is rebuilt.
    load_rates = state.ledger.load_rates()
    state.ledger.release_all()

    # 4. Candidates, baseline and gains against the (possibly re-drawn)
    #    network, each drawing only the links that can change it. Unless
    #    the policy reads entries that cannot gain, those that also fit get
    #    no entry; `offered` keeps each requesting client's candidate count
    #    for its record.
    if config.remeasure_noise:
        state.net.remeasure(t)
    policy = POLICIES[config.policy]
    usable = state.ledger.usable
    skip_within = None if policy.reads_every_entry else usable
    baselines: dict[str, float] = {}
    offered: dict[str, int] = {}
    entries = {}
    for client_id in client_ids:
        client = state.active[client_id]
        candidates = candidate_subset(
            client, state.net, config.k_candidates, config.load_threshold, load_rates,
        )
        baseline = baseline_bandwidth(client, state.net)
        baselines[client_id] = baseline
        if candidates:
            offered[client_id] = len(candidates)
            entries[client_id] = measure_gains(
                client, candidates, state.net, baseline, skip_within,
            )
    batch = RequestBatch.build(entries)

    # 5. Solve under the released capacities, less the reserve.
    plan = policy.solve(batch, usable, config, t)

    # 6. Commit.
    state.ledger.apply(plan)

    # 7. Per-client records. A left-out entry is feasible and never beats
    #    the baseline, so it counts as feasible and leaves `b_best` alone.
    #    The record derives the plan's assignments and objective back.
    records = []
    for client_id in client_ids:
        baseline = baselines[client_id]
        group = batch.entries.get(client_id, ())
        candidate_count = offered.get(client_id, 0)
        feasible = [e for e in group if e.b_via_mbps <= usable[e.server_id]]
        assignment = plan.assignments.get(client_id)
        b_best = baseline
        for e in feasible:
            if e.b_via_mbps > b_best:
                b_best = e.b_via_mbps
        records.append(
            ClientEpochRecord(
                client_id=client_id,
                server_id=assignment.server_id if assignment is not None else None,
                candidate_count=candidate_count,
                feasible_count=len(feasible) + candidate_count - len(group),
                b_baseline_mbps=baseline,
                b_best_mbps=b_best,
                b_achieved_mbps=assignment.demand_mbps if assignment is not None else baseline,
            )
        )

    record = EpochRecord(epoch_t=t, clients=tuple(records),
                         server_load_rates=state.ledger.load_rates())
    state.epoch += 1
    return record


def run_epochs(scenario: Scenario, config: SimConfig) -> Iterator[EpochRecord]:
    """Yield each epoch's record as `run_epoch` returns it, for the configured
    number of epochs; nothing here keeps a record once it is yielded."""
    state = new_state(scenario, config)
    for _ in range(config.epochs):
        yield run_epoch(state)


def run_simulation(scenario: Scenario, config: SimConfig) -> list[EpochRecord]:
    """Every epoch's record of one run, in order."""
    return list(run_epochs(scenario, config))

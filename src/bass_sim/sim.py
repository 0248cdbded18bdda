"""Deterministic epoch-driven simulation loop.

One epoch is one re-allocation round (nominally 30 minutes). Each epoch:
departed clients release their capacity, seeded arrivals join, every active
client re-requests (candidate filtering uses the load rates left by the
previous epoch, after which all held capacity is returned and the whole
allocation is rebuilt from scratch), the configured policy solves the joint
batch, the plan is applied, and per-client metrics are recorded.

Hit rate semantics: a client's achieved bandwidth is compared against the
best bandwidth it could have obtained this epoch, where the always-available
direct path counts as one of the options next to the capacity-feasible
candidate servers. A client that is correctly left on its direct path (no
candidate beats it) therefore scores 1.0, and the rate stays in (0, 1] for
every client with at least one candidate. Records are a pure function of
(scenario, config): running twice yields identical record streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

from .errors import ValidationError
from .model import BBoxClient, baseline_bandwidth
from .scheduler import (
    AllocationPlan,
    AssignmentLedger,
    DEFAULT_EXACT_CAP,
    RequestBatch,
    measure_gains,
    random_policy,
    solve_exact,
    solve_greedy,
)
from .seeding import SeededStream, derive_seed, rng_for
from .topology import (
    CandidateIndex,
    DistanceDecayNetwork,
    Scenario,
    candidate_subset,
    sample_client,
)

POLICY_NAMES = ("bass_exact", "bass_greedy", "random")

__all__ = [
    "POLICY_NAMES",
    "SimConfig",
    "ClientEpochRecord",
    "EpochRecord",
    "SimState",
    "hit_rate",
    "run_epoch",
    "run_simulation",
]


MAX_ARRIVAL_RATE = 10_000.0


@dataclass(frozen=True)
class SimConfig:
    """Settings of one simulation run.

    A field with `flag` metadata is a `run`/`compare` option; its default
    and range check are the field's own. `arrival_rate` is at most
    `MAX_ARRIVAL_RATE`, 50 times the 200 of the largest benchmark workload:
    an epoch's arrivals are all built in memory, and stay until they depart.
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
        if not isinstance(self.epochs, int) or self.epochs < 0:
            raise ValidationError(f"epochs must be a non-negative integer, got {self.epochs!r}")
        if self.policy not in POLICY_NAMES:
            raise ValidationError(
                f"unknown policy {self.policy!r}; valid policies: {', '.join(POLICY_NAMES)}"
            )
        if not (0 <= self.seed < 2**64):
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not (0 <= self.arrival_rate <= MAX_ARRIVAL_RATE):
            raise ValidationError(
                f"arrival_rate must be in [0, {MAX_ARRIVAL_RATE:g}], got {self.arrival_rate!r}"
            )
        if self.session_epochs_mean is not None and not (
            math.isfinite(self.session_epochs_mean) and self.session_epochs_mean >= 1.0
        ):
            raise ValidationError(
                f"session_epochs_mean must be >= 1 or None, got {self.session_epochs_mean!r}"
            )
        if not isinstance(self.k_candidates, int) or self.k_candidates < 1:
            raise ValidationError(f"k_candidates must be >= 1, got {self.k_candidates!r}")
        if not (0.0 <= self.load_threshold <= 1.0):
            raise ValidationError(f"load_threshold must be in [0, 1], got {self.load_threshold!r}")
        if not (math.isfinite(self.reserve_mbps) and self.reserve_mbps >= 0):
            raise ValidationError(f"reserve_mbps must be non-negative, got {self.reserve_mbps!r}")
        if not isinstance(self.exact_cap, int) or self.exact_cap < 1:
            raise ValidationError(f"exact_cap must be >= 1, got {self.exact_cap!r}")


@dataclass(frozen=True)
class ClientEpochRecord:
    """Per-client outcome of one epoch."""

    client_id: str
    server_id: str | None
    candidate_count: int
    feasible_count: int
    b_baseline_mbps: float
    b_best_mbps: float
    b_achieved_mbps: float
    gain_mbps: float
    gamma: float | None
    chose_best: bool | None


@dataclass(frozen=True)
class EpochRecord:
    epoch_t: int
    plan: AllocationPlan
    clients: tuple[ClientEpochRecord, ...]
    server_load_rates: Mapping[str, float]
    n_active: int


def hit_rate(b_achieved: float, b_best: float) -> float:
    """Achieved over best-achievable bandwidth; 1.0 means the best option was taken."""
    if not (isinstance(b_best, (int, float)) and math.isfinite(b_best) and b_best > 0):
        raise ValidationError(f"b_best must be positive, got {b_best!r}")
    if not (isinstance(b_achieved, (int, float)) and 0 < b_achieved <= b_best):
        raise ValidationError(
            f"b_achieved must satisfy 0 < b_achieved <= b_best, got {b_achieved!r} vs {b_best!r}"
        )
    return b_achieved / b_best


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

    `candidates` ranks the ledger's server objects, so a walk down a
    client's ranking reads the loads the ledger left.
    """

    scenario: Scenario
    config: SimConfig
    net: DistanceDecayNetwork
    ledger: AssignmentLedger
    candidates: CandidateIndex
    active: dict[str, BBoxClient]
    arrival_epoch: dict[str, int]
    next_client_index: int
    used_ids: set[str] = field(default_factory=set)
    epoch: int = 0


def new_state(scenario: Scenario, config: SimConfig, net: DistanceDecayNetwork | None = None) -> SimState:
    ledger = AssignmentLedger([replace(s) for s in scenario.agg_servers], config.reserve_mbps)
    if net is None:
        net = DistanceDecayNetwork.for_scenario(scenario)
    active = {c.id: c for c in scenario.clients}
    return SimState(
        scenario=scenario,
        config=config,
        net=net,
        ledger=ledger,
        candidates=CandidateIndex(ledger.servers.values()),
        active=active,
        arrival_epoch={cid: 0 for cid in active},
        next_client_index=len(scenario.clients),
        used_ids={*active, *ledger.servers, *(o.id for o in scenario.origins)},
    )


def _spawn_client(state: SimState) -> BBoxClient:
    while True:
        index = state.next_client_index
        state.next_client_index += 1
        client = sample_client(
            state.scenario.seed,
            index,
            state.scenario.net_params,
            [o.id for o in state.scenario.origins],
        )
        if client.id not in state.used_ids:
            return client


def run_epoch(state: SimState) -> EpochRecord:
    """Advance the simulation by one re-allocation round."""
    config = state.config
    t = state.epoch

    # 1. Departures return their capacity, and their ranking and paths go.
    if config.session_epochs_mean is not None:
        p_depart = 1.0 / config.session_epochs_mean
        depart = SeededStream(config.seed, "depart")
        for client_id in sorted(state.active):
            if state.arrival_epoch[client_id] >= t:
                continue
            if depart.random(client_id, t) < p_depart:
                if state.ledger.assignment_of(client_id) is not None:
                    state.ledger.release(client_id)
                del state.active[client_id]
                del state.arrival_epoch[client_id]
                state.candidates.forget(client_id)
                state.net.forget(client_id)

    # 2. Seeded arrivals join the population.
    if config.arrival_rate > 0.0:
        n_new = _poisson(rng_for(config.seed, "arrivals", t), config.arrival_rate)
        for _ in range(n_new):
            client = _spawn_client(state)
            state.active[client.id] = client
            state.arrival_epoch[client.id] = t
            state.used_ids.add(client.id)

    # 3. Candidate subsets against the load left by the previous epoch
    #    (the scheduler filters on current load when requests come in).
    candidate_ids = {
        client_id: candidate_subset(
            state.active[client_id], state.candidates, config.k_candidates, config.load_threshold
        )
        for client_id in sorted(state.active)
    }

    # 4. Every active client re-requests, so the whole allocation is rebuilt.
    state.ledger.release_all()

    # 5. Measure gains against the (possibly re-drawn) network.
    if config.remeasure_noise:
        state.net.remeasure(t)
    baselines: dict[str, float] = {}
    entries = {}
    for client_id in sorted(state.active):
        client = state.active[client_id]
        baseline = baseline_bandwidth(state.net.direct_link_bandwidths(client))
        baselines[client_id] = baseline
        chosen_servers = [state.ledger.servers[sid] for sid in candidate_ids[client_id]]
        if chosen_servers:
            entries[client_id] = measure_gains(client, chosen_servers, state.net, baseline)
    batch = RequestBatch.build(t, entries)

    # 6. Solve under the released capacities.
    capacities = {sid: server.remaining_capacity_mbps for sid, server in state.ledger.servers.items()}
    if config.policy == "bass_greedy":
        plan = solve_greedy(batch, capacities, config.reserve_mbps)
    elif config.policy == "bass_exact":
        plan = solve_exact(batch, capacities, config.reserve_mbps, client_cap=config.exact_cap)
    else:
        plan = random_policy(
            batch, capacities, derive_seed(config.seed, "policy", t), config.reserve_mbps
        )

    # 7. Commit.
    state.ledger.apply(plan)

    # 8. Per-client records.
    records = []
    for client_id in sorted(state.active):
        baseline = baselines[client_id]
        group = batch.entries.get(client_id, ())
        feasible = [
            e for e in group if e.b_via_mbps <= capacities[e.server_id] - config.reserve_mbps
        ]
        assignment = plan.assignments.get(client_id)
        if assignment is not None:
            achieved = assignment.demand_mbps
            gain = assignment.gain_mbps
        else:
            achieved = baseline
            gain = 0.0
        b_best = baseline
        for e in feasible:
            if e.b_via_mbps > b_best:
                b_best = e.b_via_mbps
        if group and b_best > 0 and achieved > 0:
            gamma = hit_rate(achieved, b_best)
            chose_best = achieved == b_best
        else:
            gamma = None
            chose_best = None
        records.append(
            ClientEpochRecord(
                client_id=client_id,
                server_id=assignment.server_id if assignment is not None else None,
                candidate_count=len(group),
                feasible_count=len(feasible),
                b_baseline_mbps=baseline,
                b_best_mbps=b_best,
                b_achieved_mbps=achieved,
                gain_mbps=gain,
                gamma=gamma,
                chose_best=chose_best,
            )
        )

    record = EpochRecord(
        epoch_t=t,
        plan=plan,
        clients=tuple(records),
        server_load_rates={
            sid: server.load_rate for sid, server in sorted(state.ledger.servers.items())
        },
        n_active=len(state.active),
    )
    state.epoch += 1
    return record


def run_simulation(
    scenario: Scenario, config: SimConfig, net: DistanceDecayNetwork | None = None
) -> list[EpochRecord]:
    """Fold run_epoch over the configured number of epochs."""
    state = new_state(scenario, config, net)
    return [run_epoch(state) for _ in range(config.epochs)]

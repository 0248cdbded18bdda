"""Deterministic simulator and solvers for multi-edge-network bandwidth
aggregation scheduling.

Broadcasters upload live streams through proxy boxes that split traffic
across several wireless uplinks; geo-distributed relay servers recombine
the subflows and forward a single stream to the origin. This package
models the bandwidth algebra of those paths, implements the
capacity-constrained gain-maximizing matching between clients and relays
(exact and greedy), and drives deterministic epoch simulations with metric
capture.
"""

from .errors import (
    BassError,
    BatchTooLargeError,
    CapacityConflictError,
    RecordsFormatError,
    ScenarioFormatError,
    ValidationError,
)
from .model import (
    AggregationServer,
    BBoxClient,
    EdgeLink,
    GainEntry,
    GeoPoint,
    LinkKind,
    OriginServer,
    aggregated_path_bandwidth,
    bandwidth_gain,
    baseline_bandwidth,
    load_rate,
)
from .topology import (
    DistanceDecayNetwork,
    NetModelParams,
    Scenario,
    candidate_subset,
    generate_scenario,
    geo_distance_km,
    load_scenario,
    path_bandwidth,
    save_scenario,
)
from .scheduler import (
    AllocationPlan,
    Assignment,
    AssignmentLedger,
    RequestBatch,
    measure_gains,
    random_policy,
    solve_exact,
    solve_greedy,
)
from .sim import (
    ClientEpochRecord,
    EpochRecord,
    SimConfig,
    hit_rate,
    run_simulation,
)
from .metrics import SummaryReport, cdf, emit_report, gain_multiplier, summarize

__version__ = "0.1.0"

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

from . import errors, model, topology, scheduler, sim, metrics

__version__ = "0.1.0"

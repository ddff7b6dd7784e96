"""Rank placement: contention-avoiding rank→host mappings.

The paper's model prices the contention a *fixed* rank→host mapping
incurs; on edge-core and oversubscribed fabrics much of it is avoidable
by choosing the mapping well (Oltchik & Schwartz, "Network Partitioning
and Avoidable Contention").  This package adds placement as a first-
class scenario axis:

* :class:`~repro.placement.spec.PlacementSpec` — a declarative mapping
  (registered strategy + params, or an explicit permutation) with the
  same dict/TOML round-trip and cache-identity guarantees as
  :class:`~repro.traffic.spec.PatternSpec`;
* built-in strategies (``identity``, ``block``, ``round-robin``,
  ``random``) behind :data:`repro.registry.PLACEMENTS`;
* a predicted-contention objective from the MED of the placed traffic
  matrix (:mod:`~repro.placement.objective`) and deterministic
  optimizers (``greedy``, ``anneal``) behind
  :data:`repro.registry.PLACEMENT_OPTIMIZERS`;
* :func:`~repro.placement.placed.apply_placement` — the one
  interception point: a route-remapping topology view both simulation
  engines see transparently.

Identity collapses to ``None`` everywhere (spec fields, sweep axes,
cache payloads), so pre-placement results and cache keys stay
byte-identical.
"""

from . import strategies  # noqa: F401  (registers built-in strategies)
from .objective import (
    PlacementObjective,
    contention_objective,
    placed_matrix,
    route_incidence,
    traffic_matrix,
)
from .optimize import OptimizerSpec, PlacementResult, optimize_placement
from .placed import PlacedTopology, apply_placement
from .spec import PlacementSpec, as_placement

__all__ = [
    "PlacementSpec",
    "as_placement",
    "PlacedTopology",
    "apply_placement",
    "PlacementObjective",
    "contention_objective",
    "placed_matrix",
    "route_incidence",
    "traffic_matrix",
    "OptimizerSpec",
    "PlacementResult",
    "optimize_placement",
]

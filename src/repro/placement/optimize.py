"""Placement optimizers: search the mapping space against the MED objective.

An optimizer is ``f(evaluate, n_processes, *, rng, **params) ->
permutation`` where *evaluate* maps a candidate permutation to its
predicted contention (seconds, lower is better) and *rng* is a seeded
:class:`numpy.random.Generator` — the only randomness allowed, so a
fixed seed reproduces the search bit-for-bit in any process.  Built-ins:

* ``greedy`` — steepest-compatible pairwise swap descent: sweep all
  (i, j) swaps, keep improvements, repeat until a full sweep finds
  none.  Deterministic even without the rng; cannot end above identity.
* ``anneal`` — simulated annealing over random swaps with geometric
  cooling, returning the best permutation *seen* (so it also never
  regresses past its identity start).

Add new ones with ``@repro.api.register_placement_optimizer``;
:func:`optimize_placement` is the high-level entry the api facade, CLI
and experiments call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..registry import (
    PLACEMENT_OPTIMIZERS,
    RegisteredSpec,
    register_placement_optimizer,
)
from ..simnet.rng import RngFactory
from ..simnet.topology import Topology
from .objective import PlacementObjective, traffic_matrix
from .spec import PlacementSpec

__all__ = [
    "OptimizerSpec", "PlacementResult", "optimize_placement", "greedy", "anneal",
]

#: Strict-improvement margin: a swap must beat the incumbent by more
#: than this relative slack to be kept, so float noise cannot cycle.
EPS = 1e-12


@register_placement_optimizer("greedy", aliases=("swap", "descent"))
def greedy(evaluate, n_processes: int, *, rng, max_rounds: int = 64):
    """Pairwise swap descent to a local optimum of *evaluate*."""
    n = int(n_processes)
    perm = list(range(n))
    best = evaluate(perm)
    for _ in range(int(max_rounds)):
        improved = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                perm[i], perm[j] = perm[j], perm[i]
                score = evaluate(perm)
                if score < best * (1.0 - EPS):
                    best = score
                    improved = True
                else:
                    perm[i], perm[j] = perm[j], perm[i]
        if not improved:
            break
    return tuple(perm)


@register_placement_optimizer("anneal", aliases=("sa", "annealing"))
def anneal(
    evaluate,
    n_processes: int,
    *,
    rng,
    iterations: int = 4000,
    t0: float | None = None,
    cooling: float = 0.998,
):
    """Simulated annealing over random swaps; returns the best seen.

    The temperature starts at *t0* (default: half the identity
    objective, so early moves accept freely) and cools geometrically.
    """
    n = int(n_processes)
    perm = list(range(n))
    current = evaluate(perm)
    best, best_perm = current, tuple(perm)
    temp = (0.5 * current if t0 is None else float(t0)) or 1e-15
    for _ in range(int(iterations)):
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        perm[i], perm[j] = perm[j], perm[i]
        score = evaluate(perm)
        delta = score - current
        if delta <= 0 or rng.random() < math.exp(-delta / temp):
            current = score
            if score < best:
                best, best_perm = score, tuple(perm)
        else:
            perm[i], perm[j] = perm[j], perm[i]
        temp *= float(cooling)
    return best_perm


@dataclass(frozen=True)
class OptimizerSpec(RegisteredSpec):
    """A registered placement optimizer plus its parameters
    (``greedy:max_rounds=8``), checked against its signature."""

    registry = PLACEMENT_OPTIMIZERS
    noun = "placement optimizer"
    leading = 2

    name: str = "greedy"


@dataclass(frozen=True)
class PlacementResult:
    """Outcome of a placement search (all objectives in predicted seconds)."""

    placement: PlacementSpec  #: explicit spec of the best permutation found
    permutation: tuple
    objective: float
    identity_objective: float
    optimizer: str
    seed: int
    evaluations: int

    @property
    def improvement(self) -> float:
        """Predicted contention avoided, in seconds (>= 0)."""
        return self.identity_objective - self.objective

    @property
    def ratio(self) -> float:
        """identity / optimized — the predicted contention factor avoided."""
        return self.identity_objective / self.objective

    def to_dict(self) -> dict:
        return {
            "placement": self.placement.to_dict(),
            "objective": self.objective,
            "identity_objective": self.identity_objective,
            "improvement": self.improvement,
            "ratio": self.ratio,
            "optimizer": self.optimizer,
            "seed": self.seed,
            "evaluations": self.evaluations,
        }


def optimize_placement(
    cluster,
    n_processes: int,
    msg_size: int,
    *,
    pattern=None,
    optimizer: str = "greedy",
    seed: int = 0,
    params: dict | None = None,
) -> PlacementResult:
    """Search for a contention-minimising rank→host mapping.

    *cluster* is a :class:`~repro.clusters.profiles.ClusterProfile` (its
    fabric is built at *n_processes*) or a finalized
    :class:`~repro.simnet.topology.Topology`.  The objective is the MED
    of the placed traffic matrix — ``pattern`` (a
    :class:`~repro.traffic.spec.PatternSpec` or ``None`` for uniform)
    at (n, msg_size, seed) — routed over the fabric; see
    :mod:`repro.placement.objective`.  Deterministic given *seed*.
    Unknown *optimizer* names and *params* it does not accept raise
    :class:`~repro.exceptions.ScenarioError` before any search.
    """
    spec = OptimizerSpec(optimizer, params or {})
    n = int(n_processes)
    topo = cluster if isinstance(cluster, (Topology,)) else cluster.topology(n)
    W = traffic_matrix(n, int(msg_size), pattern, seed=seed)
    score = PlacementObjective(topo, W)
    evaluations = 0

    def evaluate(perm) -> float:
        nonlocal evaluations
        evaluations += 1
        return score(perm)

    search = PLACEMENT_OPTIMIZERS.get(spec.name)
    rng = RngFactory(int(seed)).stream(f"placement/{spec.name}/{n}")
    perm = tuple(search(evaluate, n, rng=rng, **dict(spec.params)))
    identity_objective = score(None)
    objective = score(perm)
    if objective > identity_objective:  # pragma: no cover - optimizer bug guard
        perm, objective = tuple(range(n)), identity_objective
    return PlacementResult(
        placement=PlacementSpec(perm=perm),
        permutation=perm,
        objective=objective,
        identity_objective=identity_objective,
        optimizer=spec.name,
        seed=int(seed),
        evaluations=evaluations,
    )

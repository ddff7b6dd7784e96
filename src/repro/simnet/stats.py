"""Summary statistics helpers and per-simulation cost counters.

:class:`Summary` condenses samples of durations/throughputs;
:class:`SimStats` counts what one simulation *cost* (allocation
passes, advance epochs, engine events) so engine regressions are
visible in sweep output.  Collection is always cheap (plain counters);
*surfacing* the counters on measurement rows is gated behind the
``REPRO_SIM_STATS`` environment flag (see :func:`stats_enabled`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

__all__ = ["Summary", "summarize", "SimStats", "stats_enabled"]

#: Environment flag gating the sim_* columns on measurement rows.
STATS_ENV = "REPRO_SIM_STATS"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def stats_enabled() -> bool:
    """Whether ``REPRO_SIM_STATS`` asks for per-simulation cost columns."""
    raw = os.environ.get(STATS_ENV, "")
    return raw.strip().lower() in _TRUTHY


@dataclass(frozen=True)
class SimStats:
    """Cost counters of one simulation (or a sum over repetitions).

    Attributes
    ----------
    engine:
        Name of the simulation engine that produced the run.
    resolves:
        Allocation passes: every time the engine re-examined the active
        set and its rates.  For the vector engine this includes the
        passes counted in ``solve_reuses``, which skipped the solve; for
        the fluid engine every pass solves.  The ``sim.solves`` registry
        counter is fed from this value.
    epochs:
        Flow-advance epochs: distinct timesteps at which active flows
        actually progressed (``dt > 0`` with a non-empty active set).
    events:
        Discrete events executed by the event kernel.
    losses:
        TCP loss events (RTO detections) sampled by the loss overlay.
    stalls:
        Flow stalls: how many times a flow left the active set to sit
        out an RTO penalty.  One stall may cover several chained losses,
        so ``stalls <= losses`` whenever the loss overlay is enabled.
    solve_reuses:
        Allocation solves skipped because a warm-started solution was
        still valid (the vector engine's reuse optimization; always 0
        for the fluid engine, which re-solves every epoch).
    """

    engine: str
    resolves: int
    epochs: int
    events: int
    losses: int = 0
    stalls: int = 0
    solve_reuses: int = 0

    def merged(self, other: "SimStats") -> "SimStats":
        """Counter-wise sum (for aggregating repetitions of one point)."""
        return SimStats(
            engine=self.engine,
            resolves=self.resolves + other.resolves,
            epochs=self.epochs + other.epochs,
            events=self.events + other.events,
            losses=self.losses + other.losses,
            stalls=self.stalls + other.stalls,
            solve_reuses=self.solve_reuses + other.solve_reuses,
        )


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample of durations/throughputs."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    p50: float
    p95: float

    def __str__(self) -> str:
        return (
            f"n={self.n} mean={self.mean:.6g} std={self.std:.6g} "
            f"min={self.minimum:.6g} p50={self.p50:.6g} "
            f"p95={self.p95:.6g} max={self.maximum:.6g}"
        )


def summarize(values) -> Summary:
    """Compute a :class:`Summary` of a non-empty sequence."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    return Summary(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        p50=float(np.percentile(arr, 50)),
        p95=float(np.percentile(arr, 95)),
    )

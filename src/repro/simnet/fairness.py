"""Vectorised max-min fair bandwidth allocation (progressive filling).

This is the allocation core shared by *both* simulation engines — the
event-driven fluid reference (:mod:`repro.simnet.fluid`) and the batched
vector engine (:mod:`repro.simnet.vector`) call the same solve, which is
what makes their results comparable to floating-point roundoff.  Given
the set of active flows and the directed links each one crosses, it
allocates rates such that

* no link's capacity is exceeded,
* no flow can be given more rate without taking rate away from a flow
  with an equal or smaller allocation (max-min fairness).

The classic *progressive filling* (water-filling) algorithm is used, but
implemented over NumPy arrays so one allocation solve costs a handful of
vector operations per bottleneck level rather than Python-loop time per
flow (see the optimisation guidance in the project coding guides:
vectorise the hot loop, avoid per-element Python work).

When every flow freezes in the first filling iteration — one
bottleneck level, the common case of a symmetric fabric mid-run —
:func:`single_level_allocation` returns that level's share in closed
form from maintained per-link flow counts, bit-identical to the full
batched fill, and declines (returns ``None``) otherwise.

TCP's AIMD converges to rates close to max-min fair share on a LAN, and
flow-level simulators (SimGrid's LV08, LogGOPSim variants) use the same
approximation; §3 of the paper explicitly appeals to TCP "trying to
evenly share the bandwidth among the connections".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FlowPaths",
    "AllocationResult",
    "SingleLevel",
    "max_min_allocation",
    "single_level_allocation",
]

_EPS = 1e-12


@dataclass(frozen=True)
class FlowPaths:
    """CSR encoding of flow → link incidence.

    ``link_ids[indptr[f]:indptr[f+1]]`` are the directed links crossed by
    flow ``f``.  Build once per allocation solve via :meth:`from_lists`.
    """

    indptr: np.ndarray  # (F+1,) int64
    link_ids: np.ndarray  # (nnz,) int64

    @classmethod
    def from_lists(cls, paths: list[tuple[int, ...]]) -> "FlowPaths":
        """Build from a list of per-flow link tuples."""
        lengths = np.fromiter((len(p) for p in paths), dtype=np.int64, count=len(paths))
        indptr = np.zeros(len(paths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        if indptr[-1]:
            link_ids = np.concatenate([np.asarray(p, dtype=np.int64) for p in paths])
        else:
            link_ids = np.empty(0, dtype=np.int64)
        return cls(indptr=indptr, link_ids=link_ids)

    @property
    def n_flows(self) -> int:
        """Number of flows encoded."""
        return len(self.indptr) - 1

    def gather_rows(self, flows: np.ndarray) -> np.ndarray:
        """Flat positions (into ``link_ids``) of all entries of *flows*.

        Vectorised ragged gather: O(total entries), no Python loop.
        """
        starts = self.indptr[flows]
        lengths = self.indptr[flows + 1] - starts
        total = int(lengths.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        out = np.ones(total, dtype=np.int64)
        out[0] = starts[0]
        ends = np.cumsum(lengths)[:-1]
        if len(ends):
            out[ends] = starts[1:] - starts[:-1] - lengths[:-1] + 1
        return np.cumsum(out)


@dataclass(frozen=True)
class AllocationResult:
    """Output of one max-min solve.

    Attributes
    ----------
    rates:
        Bytes/second granted to each flow, aligned with the input order.
    link_flow_count:
        Number of flows crossing each link.
    link_load:
        Total allocated rate per link (``None`` when the solve was asked
        to skip the summary via ``need_loads=False``).
    saturated:
        Boolean per link: allocated load equals capacity (within
        tolerance) — these are the bottleneck links (``None`` when
        skipped, as above).
    """

    rates: np.ndarray
    link_flow_count: np.ndarray
    link_load: "np.ndarray | None"
    saturated: "np.ndarray | None"


def max_min_allocation(
    capacities: np.ndarray,
    paths: FlowPaths,
    *,
    tie_eps: float = 0.0,
    need_loads: bool = True,
) -> AllocationResult:
    """Progressive-filling max-min fair allocation.

    Parameters
    ----------
    capacities:
        ``(L,)`` link capacities in bytes/second.
    paths:
        Flow → link incidence (every flow must cross >= 1 link).
    tie_eps:
        ``0.0`` (the default) freezes exactly one bottleneck link per
        filling iteration — the reference behaviour the fluid engine
        depends on bit-for-bit.  A positive value enables the batched
        variant used by the vector engine: every link whose fair share
        is within ``tie_eps`` (relative) of the minimum freezes in the
        same iteration, which collapses the many symmetric-NIC
        iterations of an All-to-All steady state into one and skips the
        reverse-CSR sort entirely.  Rates then differ from the reference
        by at most ~``tie_eps`` relative per bottleneck level.
    need_loads:
        ``False`` skips the per-link load/saturation summary (the
        result's ``link_load`` and ``saturated`` are ``None``) — the
        vector engine's epoch loop only consumes ``rates``, and the
        summary is a meaningful fraction of a small solve's cost.

    Raises
    ------
    ValueError
        If a flow crosses no links (local traffic must bypass the fluid
        model) or references an unknown link.
    """
    capacities = np.asarray(capacities, dtype=np.float64)
    n_links = len(capacities)
    n_flows = paths.n_flows
    rates = np.zeros(n_flows, dtype=np.float64)
    link_flow_count = np.bincount(paths.link_ids, minlength=n_links).astype(np.int64)
    if n_flows == 0:
        return AllocationResult(
            rates=rates,
            link_flow_count=link_flow_count,
            link_load=np.zeros(n_links),
            saturated=np.zeros(n_links, dtype=bool),
        )
    if paths.link_ids.size and int(paths.link_ids.max()) >= n_links:
        raise ValueError("flow references link beyond capacity vector")
    row_lengths = np.diff(paths.indptr)
    if np.any(row_lengths == 0):
        raise ValueError("flow with empty path cannot be allocated")

    if tie_eps > 0.0:
        rates, link_load = _batched_fill(
            capacities, paths, link_flow_count, row_lengths, rates, tie_eps,
            need_loads=need_loads,
        )
        if not need_loads:
            return AllocationResult(
                rates=rates,
                link_flow_count=link_flow_count,
                link_load=None,
                saturated=None,
            )
        return AllocationResult(
            rates=rates,
            link_flow_count=link_flow_count,
            link_load=link_load,
            saturated=_saturated(capacities, link_flow_count, link_load, tie_eps),
        )

    # Reverse (link -> flows) CSR for freezing whole bottleneck links at once.
    order = np.argsort(paths.link_ids, kind="stable")
    rev_indptr = np.zeros(n_links + 1, dtype=np.int64)
    np.cumsum(link_flow_count, out=rev_indptr[1:])
    flow_of_entry = np.repeat(np.arange(n_flows, dtype=np.int64), row_lengths)[order]

    residual = capacities.copy()
    unfrozen_count = link_flow_count.astype(np.float64)
    unfrozen = np.ones(n_flows, dtype=bool)
    remaining = n_flows
    # Each iteration freezes at least one flow => bounded, but guard anyway.
    for _ in range(n_links + n_flows + 1):
        if remaining == 0:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            fair = np.where(unfrozen_count > 0, residual / unfrozen_count, np.inf)
        bottleneck = int(np.argmin(fair))
        share = float(fair[bottleneck])
        if not np.isfinite(share):  # pragma: no cover - defensive
            break
        share = max(share, 0.0)
        entries = flow_of_entry[rev_indptr[bottleneck] : rev_indptr[bottleneck + 1]]
        newly = entries[unfrozen[entries]]
        if newly.size == 0:  # pragma: no cover - numeric guard
            unfrozen_count[bottleneck] = 0
            residual[bottleneck] = np.inf
            continue
        rates[newly] = share
        unfrozen[newly] = False
        remaining -= newly.size
        touched = paths.link_ids[paths.gather_rows(newly)]
        np.subtract.at(residual, touched, share)
        counts_removed = np.bincount(touched, minlength=n_links)
        unfrozen_count -= counts_removed
        np.maximum(residual, 0.0, out=residual)
        unfrozen_count[bottleneck] = 0  # fully frozen by construction

    link_load = np.zeros(n_links, dtype=np.float64)
    all_rows = paths.link_ids
    np.add.at(link_load, all_rows, np.repeat(rates, row_lengths))
    return AllocationResult(
        rates=rates,
        link_flow_count=link_flow_count,
        link_load=link_load,
        saturated=_saturated(capacities, link_flow_count, link_load, 0.0),
    )


def _saturated(
    capacities: np.ndarray,
    link_flow_count: np.ndarray,
    link_load: np.ndarray,
    tie_eps: float,
) -> np.ndarray:
    """Bottleneck test: a used link whose load reaches its capacity.

    A link frozen as part of a tie batch is allocated the batch's
    minimum share, leaving it up to ~``tie_eps`` under capacity — it is
    still a bottleneck physically, so the test widens by the same
    tolerance (the loss model keys off this).
    """
    return (link_flow_count > 0) & (
        link_load >= capacities * (1.0 - 1e-9 - tie_eps) - _EPS
    )


@dataclass(frozen=True)
class SingleLevel:
    """A one-level allocation: every flow is granted ``share``.

    ``link_load`` and ``saturated`` follow :class:`AllocationResult`
    (``None`` unless asked for with ``need_loads=True``).
    """

    share: float
    link_load: "np.ndarray | None"
    saturated: "np.ndarray | None"


def single_level_allocation(
    capacities: np.ndarray,
    rows: np.ndarray,
    link_flow_count: np.ndarray,
    *,
    tie_eps: float,
    need_loads: bool = False,
) -> "SingleLevel | None":
    """Closed-form batched fill for inputs that need one filling level.

    Computes the first iteration of the ``tie_eps > 0`` fill of
    :func:`max_min_allocation` — every link's fair share, their minimum
    and the near-tied links — and checks with one gather that every
    flow crosses a tied link.  If so, all flows freeze at that share in
    one iteration and the result is bit-identical to the full fill:
    ``rates`` is the share for every flow and ``link_load`` is
    ``share * link_flow_count``.  Otherwise it returns ``None`` and the
    caller runs the full fill.

    Parameters
    ----------
    capacities:
        ``(L,)`` link capacities in bytes/second.
    rows:
        ``(F, W)`` link ids of each flow, ``F >= 1``.  Ragged paths are
        padded with the id of a link of infinite capacity, which never
        ties, so padding leaves the answer unchanged.
    link_flow_count:
        ``(L,)`` number of entries of *rows* on each link (what
        :func:`max_min_allocation` would count from the same incidence).
    tie_eps:
        Relative tie tolerance, as in :func:`max_min_allocation`; must
        be positive (the exact ``tie_eps=0`` fill freezes one link per
        iteration and has no one-level closed form).
    need_loads:
        Also return the per-link load and saturation summary.
    """
    if tie_eps <= 0.0:
        raise ValueError("the single-level closed form needs tie_eps > 0")
    if len(rows) == 0:
        raise ValueError("no flows to allocate")
    fair = np.full(len(capacities), np.inf)
    np.divide(capacities, link_flow_count, out=fair, where=link_flow_count > 0)
    share = max(float(fair.min()), 0.0)
    tied = fair <= share * (1.0 + tie_eps)
    # Covering every flow takes at least one tied entry per flow; this
    # one-call test turns most multi-level inputs away before the gather.
    if np.dot(tied, link_flow_count) < len(rows):
        return None
    hit = tied[rows]
    # Paths are a few hops wide: OR-ing the columns is several times
    # faster than ``hit.any(axis=1)``.
    covered = hit[:, 0]
    for column in range(1, hit.shape[1]):
        covered = covered | hit[:, column]
    if not covered.all():
        return None
    if not need_loads:
        return SingleLevel(share=share, link_load=None, saturated=None)
    link_load = share * link_flow_count
    return SingleLevel(
        share=share,
        link_load=link_load,
        saturated=_saturated(capacities, link_flow_count, link_load, tie_eps),
    )


def _batched_fill(
    capacities: np.ndarray,
    paths: FlowPaths,
    link_flow_count: np.ndarray,
    row_lengths: np.ndarray,
    rates: np.ndarray,
    tie_eps: float,
    *,
    need_loads: bool = False,
) -> "tuple[np.ndarray, np.ndarray | None]":
    """Progressive filling that freezes all near-tied bottlenecks at once.

    Sort-free: instead of a reverse (link -> flows) CSR it keeps flat
    entry arrays (link id, flow id) and finds the flows hit by the tied
    links with two gathers per iteration.  Symmetric fabrics (every NIC
    equally loaded) collapse to one or two iterations total.  The entry
    arrays are *compacted* after each freeze batch — a frozen flow's
    entries are dropped rather than masked — so on heterogeneous
    fabrics with long freeze tails (hierarchical Fast Ethernet mid-run,
    where completions desynchronise the per-flow remaining bytes and
    each solve walks dozens of distinct bottleneck levels) the
    per-iteration cost tracks the shrinking live set, not the full CSR.

    With ``need_loads=True`` the per-link allocated load is accumulated
    inside the fill (``share * flows_removed`` per freeze batch), so
    callers that want the load/saturation summary don't pay a second
    pass over the CSR after the solve.
    """
    n_links = len(capacities)
    n_flows = paths.n_flows
    # Compacted as flows freeze: ent_flow only ever holds unfrozen flows
    # (all of a flow's entries die in the batch that freezes it).
    ent_link = paths.link_ids
    ent_flow = np.repeat(np.arange(n_flows, dtype=np.int64), row_lengths)
    residual = capacities.copy()
    unfrozen_count = link_flow_count.astype(np.float64)
    newly_mask = np.zeros(n_flows, dtype=bool)
    remaining = n_flows
    fair = np.empty(n_links, dtype=np.float64)
    link_load = np.zeros(n_links, dtype=np.float64) if need_loads else None
    for _ in range(n_links + n_flows + 1):
        if remaining == 0:
            break
        fair.fill(np.inf)
        np.divide(residual, unfrozen_count, out=fair, where=unfrozen_count > 0)
        share = float(fair.min())
        if not np.isfinite(share):  # pragma: no cover - defensive
            break
        share = max(share, 0.0)
        tied = fair <= share * (1.0 + tie_eps)
        hit_flows = ent_flow[tied[ent_link]]
        if hit_flows.size == 0:  # pragma: no cover - numeric guard
            unfrozen_count[tied] = 0
            continue
        newly_mask[hit_flows] = True
        n_new = int(np.count_nonzero(newly_mask))
        rates[hit_flows] = share
        remaining -= n_new
        if remaining == 0 and link_load is None:
            # Everything froze this round (the common symmetric-fabric
            # case) — the bookkeeping below only feeds the next
            # iteration.
            break
        dead = newly_mask[ent_flow]
        newly_mask[hit_flows] = False
        removed = np.bincount(ent_link[dead], minlength=n_links)
        if link_load is not None:
            link_load += share * removed
        if remaining == 0:
            break
        keep = ~dead
        ent_link = ent_link[keep]
        ent_flow = ent_flow[keep]
        residual -= share * removed
        unfrozen_count -= removed
        np.maximum(residual, 0.0, out=residual)
        unfrozen_count[tied] = 0  # fully frozen by construction
    return rates, link_load

"""Batched vector engine: epoch-synchronized flow simulation.

The reference stack interprets rank programs as Python generators and
pays per-flow Python work on every allocation resolve
(:mod:`repro.simnet.fluid` rebuilds its slot arrays and CSR paths one
flow at a time).  This module executes a *lowered* schedule
(:mod:`repro.simmpi.lowering`) instead, advancing **all active flows in
synchronized epochs**:

* one max-min solve (:func:`repro.simnet.fairness.max_min_allocation`),
* one vectorized minimum time-to-completion,
* one array subtraction per epoch,

with completions handled as batches that feed the next phase of the
schedule.  The flow → link incidence is never rebuilt: ``_setup`` gives
every message a dense row of link ids (ragged routes, such as intra-
against inter-switch hops on edge-core, are padded with a sentinel link
of infinite capacity), and the engine keeps the active flows' rows and
a per-link active-flow count up to date by deltas at admit, complete
and stall.  The rows form the active set's
:class:`~repro.simnet.fairness.FlowPaths` as a view.  Most epochs need
one filling level — every flow freezes at the same share — and
:func:`~repro.simnet.fairness.single_level_allocation` answers those in
closed form from the maintained counts, bit-identical to the full fill;
the rate is then kept as a scalar, so the advance and time-to-completion
steps build no per-flow rate array.  The other epochs run the full
solve on the maintained incidence.

The message protocol (submit costs, eager/rendezvous handshakes,
per-pair FIFO wire channels, sender concurrency caps, receiver demux)
is :class:`~repro.simmpi.protocol.MessageProtocol`, which
:class:`VectorSimulator` subclasses like the reference runtime does; it
adds only its driver (lowered segments instead of generators), static
receive pairing instead of wildcard queues, and this flow core.  With
jitter disabled the two engines therefore agree to floating-point
roundoff; the fluid engine remains the correctness oracle (see
``repro.engines``).

The TCP loss overlay (:mod:`repro.simnet.loss`) is vectorized over the
flow batch instead of replayed per flow.  Each flow carries a unit-rate
Poisson *budget* — an Exp(1) draw decremented by ``hazard * dt`` every
epoch — and loses a packet when the budget crosses zero (the standard
time-rescaling construction of an inhomogeneous Poisson process, equal
in law to the fluid engine's global competing-exponential clock).  Loss
state is array-resident (``stalled_until``, ``backoff``,
``bytes_since_loss`` vectors indexed by message id); RTO expiries are
ordinary epoch boundaries: a stalled flow drops out of the max-min
solve and re-enters through the pending queue when its penalty elapses.
Determinism comes from the named :class:`~repro.simnet.rng.RngFactory`
stream discipline — initial budgets from one vectorized
``"net/loss/budget"`` draw indexed by message id, post-loss chain and
budget draws from a lazily created ``"net/loss/flow/<mid>"`` stream per
flow — so loss sequences are stable across processes and epoch
orderings.

Equivalence contract: with losses disabled the two engines agree to
floating-point roundoff (the fluid engine remains the correctness
oracle).  With losses enabled the engines sample the *same stochastic
process* through different random-number streams, so individual runs
differ but distributions match — lossy equivalence is asserted
statistically (mean completion time over paired seeds), not bit-exact.

Observability: pass ``trace=`` to record ``flow.inject`` /
``flow.complete`` (same categories as the fluid engine) plus
``flow.stall`` / ``flow.resume`` around every RTO gap, the
vector-specific ``vector.epoch`` (one per resolve, with the active-set
size) and ``vector.phase`` (one per posted schedule segment) records;
pass ``timeline=`` (a :class:`~repro.obs.timeline.LinkTimeline`) to
collect per-link concurrency/bandwidth (its padding-free CSR and
per-flow rate vector are built only when a timeline is attached).  All
default to off with zero overhead.

Not supported: programs that cannot be lowered (wildcards,
``ctx.now``).
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import SimulationError
from ..simmpi.protocol import MessageProtocol, RunResult
from ..simmpi.transport import TransportParams
from .engine import EventHandle
from .fairness import FlowPaths, max_min_allocation, single_level_allocation
from .fluid import _BYTE_EPS, _RESOLVE_PRIORITY
from .loss import LossModel, LossParams
from .penalty import HolPenalty
from .topology import Topology
from .trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simmpi.lowering import LoweredProgram

__all__ = ["VectorSimulator"]

#: Relative tolerance for freezing near-tied bottleneck links in one
#: filling iteration (see ``max_min_allocation(tie_eps=...)``).  Keeps
#: allocations within ~1e-9 of the reference solve — far inside the
#: engines' 1e-6 equivalence contract — while collapsing the symmetric
#: steady-state of an All-to-All to a couple of iterations per epoch.
_ALLOC_TIE_EPS = 1e-9

#: Tie tolerance for *lossy* runs, where the contract is statistical
#: (mean within 10% of fluid over paired seeds) rather than bit-exact.
#: Mid-run, completions desynchronise per-link flow counts, so exact
#: filling walks one freeze level per distinct count (dozens per epoch
#: on hierarchical fabrics); batching levels within a few percent
#: collapses that tail.  Each flow's rate lands within ``tie_eps``
#: relative of its exact fair share, biasing durations by at most the
#: same factor — far inside the statistical-equivalence budget.
_LOSSY_TIE_EPS = 0.05

#: A flow's Poisson loss budget is "spent" when it falls to this close
#: to zero.  Budgets are Exp(1) draws (mean 1.0), and the epoch horizon
#: lands exactly on the crossing, so only accumulated float roundoff
#: (~1e-16 per epoch) has to fit under the epsilon.
_BUDGET_EPS = 1e-9


class VectorSimulator(MessageProtocol):
    """Executes a :class:`~repro.simmpi.lowering.LoweredProgram`.

    Constructor parameters are those of :class:`~repro.simmpi.runtime.Runtime`
    so cluster profiles drive both engines identically.
    """

    def __init__(
        self,
        topology: Topology,
        transport: TransportParams,
        *,
        nprocs: int | None = None,
        loss_params: LossParams | None = None,
        hol_penalty: HolPenalty | None = None,
        start_skew_scale: float = 0.0,
        seed: int = 0,
        trace: Trace | None = None,
        timeline=None,
    ) -> None:
        super().__init__(
            topology, transport, nprocs=nprocs,
            start_skew_scale=start_skew_scale, seed=seed, trace=trace,
        )
        self._tracing = self.trace.enabled
        self._timeline = timeline
        self._inject_time: dict[int, float] = {}
        # Per-link vectors carry one extra entry: the sentinel link that
        # pads ragged routes (infinite capacity, so it never ties or
        # saturates, and its overload and HOL penalty are moot).
        self._sentinel = len(topology.links)
        self._capacities = np.append(
            np.asarray(topology.capacities(), dtype=np.float64), np.inf
        )
        kinds = [link.kind for link in topology.links]
        kinds.append(kinds[-1])
        if loss_params is not None and loss_params.enabled:
            self._loss_model: LossModel | None = LossModel(loss_params, kinds)
            self._loss_params = loss_params
        else:
            self._loss_model = None
            self._loss_params = loss_params
        if hol_penalty is not None and hol_penalty.enabled:
            self._hol = hol_penalty
            self._hol_eta = hol_penalty.eta_vector(kinds)
        else:
            self._hol = None
            self._hol_eta = None

        # Filled by _setup() once the lowered schedule is known.
        self._segments: tuple = ()
        self._msg_wire: np.ndarray = np.empty(0)
        self._msg_dst_arr: np.ndarray = np.empty(0, dtype=np.int64)
        self._msg_src_arr: np.ndarray = np.empty(0, dtype=np.int64)
        # (messages x W) link ids of every message's route, padded with
        # the sentinel link id.
        self._msg_rows = np.empty((0, 1), dtype=np.int64)

        # Flow core (active set, slot order = injection order).  The
        # active rows and per-link flow counts change only by deltas at
        # admit, complete and stall.  ``_act_rates`` is a float when one
        # filling level gave every flow the same rate, else an array.
        self._act_mids = np.empty(0, dtype=np.int64)
        self._act_rows = np.empty((0, 1), dtype=np.int64)
        self._act_remaining = np.empty(0, dtype=np.float64)
        self._act_rates: "float | np.ndarray" = 0.0
        self._act_hazards = np.empty(0, dtype=np.float64)
        self._link_count = np.zeros(len(self._capacities), dtype=np.int64)
        self._pending: list[int] = []

        # Warm start: a resolve that sees the same active set as the
        # previous solve (rates-only epoch — e.g. a coalesced resume
        # cascade) keeps its rates and hazards and skips the solve.
        self._solve_stale = True

        # Loss-overlay state, allocated per message id in _setup() when
        # the profile enables losses.
        self._loss_budget = np.empty(0, dtype=np.float64)
        self._backoff = np.empty(0, dtype=np.int64)
        self._bytes_since_loss = np.empty(0, dtype=np.float64)
        self._stalled_until = np.empty(0, dtype=np.float64)
        self._flow_losses = np.empty(0, dtype=np.int64)
        self._flow_remaining = np.empty(0, dtype=np.float64)
        self._flow_rngs: dict[int, np.random.Generator] = {}
        self._inbound_open = np.zeros(self.nprocs, dtype=np.int64)
        self._outbound_open = np.zeros(self.nprocs, dtype=np.int64)
        self._last_advance = 0.0
        self._resolve_event: EventHandle | None = None
        self._completion_event: EventHandle | None = None

        # Driver and static-matching state.
        self._next_segment = [0] * self.nprocs
        self._send_done: list[bool] = []
        self._recv_done: list[bool] = []
        self._recv_posted: list[bool] = []
        self._env_processed: list[bool] = []
        self._watchers: dict[tuple[str, int], list[int]] = {}

        # Aggregate statistics.
        self.flows_completed = 0
        self.max_concurrent = 0
        self.resolves = 0
        self.epochs = 0
        self.total_losses = 0
        self.stalls = 0
        self.solves = 0
        self.solve_reuses = 0

    # ------------------------------------------------------------------
    # Schedule setup
    # ------------------------------------------------------------------

    def _setup(self, lowered: "LoweredProgram") -> None:
        transport = self.transport
        self._segments = lowered.segments
        messages = lowered.messages
        n_messages = len(messages)
        self._src = [m.src for m in messages]
        self._dst = [m.dst for m in messages]
        self._nbytes = [m.nbytes for m in messages]
        self._seq = [m.seq for m in messages]
        self._local = [m.local for m in messages]
        self._eager = [transport.is_eager(m.nbytes) for m in messages]
        pair_ids: dict[tuple[int, int], int] = {}
        routes: list[tuple[int, ...]] = []
        wire = np.zeros(n_messages, dtype=np.float64)
        # Local messages never reach the flow core; they keep pair -1,
        # the all-sentinel row.
        pair = np.full(n_messages, -1, dtype=np.int64)
        for m in messages:
            if not m.local:
                key = (m.src, m.dst)
                pid = pair_ids.get(key)
                if pid is None:
                    pid = len(routes)
                    pair_ids[key] = pid
                    routes.append(self.topology.route(m.src, m.dst))
                pair[m.mid] = pid
                wire[m.mid] = transport.wire_bytes(m.nbytes)
        self._msg_wire = wire
        self._msg_dst_arr = np.asarray(self._dst, dtype=np.int64)
        self._msg_src_arr = np.asarray(self._src, dtype=np.int64)
        lengths = np.fromiter(map(len, routes), dtype=np.int64, count=len(routes))
        width = int(lengths.max()) if len(routes) else 1
        pair_rows = np.full((len(routes) + 1, width), self._sentinel, dtype=np.int64)
        pair_rows[:-1][np.arange(width) < lengths[:, None]] = np.fromiter(
            chain.from_iterable(routes), dtype=np.int64, count=int(lengths.sum())
        )
        self._msg_rows = pair_rows[pair]
        self._act_rows = np.empty((0, width), dtype=np.int64)
        if self._loss_model is not None:
            # One vectorized Exp(1) draw, indexed by message id, seeds
            # every flow's first loss budget; post-loss draws come from
            # per-flow named streams (see _flow_rng).  Keying by mid —
            # stable across processes and epoch orderings — is what
            # makes the loss sequence deterministic.
            self._loss_budget = self._rng_factory.stream(
                "net/loss/budget"
            ).exponential(size=n_messages)
            self._backoff = np.zeros(n_messages, dtype=np.int64)
            self._bytes_since_loss = np.zeros(n_messages, dtype=np.float64)
            self._stalled_until = np.zeros(n_messages, dtype=np.float64)
            self._flow_losses = np.zeros(n_messages, dtype=np.int64)
            self._flow_remaining = wire.copy()
        self._send_done = [False] * n_messages
        self._recv_done = [False] * n_messages
        self._recv_posted = [False] * n_messages
        self._env_processed = [False] * n_messages

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(
        self, lowered: "LoweredProgram", *, max_events: int | None = None
    ) -> RunResult:
        """Execute the schedule; returns the reference-shaped result."""
        if lowered.nprocs != self.nprocs:
            raise ValueError(
                f"schedule has {lowered.nprocs} ranks, simulator has "
                f"{self.nprocs}"
            )
        self._start()
        self._setup(lowered)
        return self._execute("vector", self, max_events)

    def _advance(self, rank: int) -> None:
        """Post segments until one blocks (the lowered ``Waitall`` loop)."""
        segments = self._segments[rank]
        while True:
            index = self._next_segment[rank]
            segment = segments[index]
            if self._tracing:
                self.trace.emit(
                    self.engine.now, "vector.phase", rank=rank,
                    segment=index, ops=len(segment.ops),
                )
            self._next_segment[rank] = index + 1
            for op in segment.ops:
                kind = op[0]
                if kind == "send":
                    self._post_send(op[1])
                elif kind == "recv":
                    self._post_recv(op[1])
                # "copy": zero simulated time, nothing to schedule.
            if segment.gate is None:
                self._finish[rank] = self.engine.now
                return
            pending = [tok for tok in segment.gate if not self._token_done(tok)]
            if pending:
                self._waiting[rank] = len(pending)
                for token in pending:
                    self._watchers.setdefault(token, []).append(rank)
                return
            # Gate already satisfied: keep advancing within this event.

    def _token_done(self, token: tuple[str, int]) -> bool:
        kind, mid = token
        return self._send_done[mid] if kind == "send" else self._recv_done[mid]

    def _notify(self, token: tuple[str, int]) -> None:
        for rank in self._watchers.pop(token, ()):
            self._unblock(rank)

    def _post_recv(self, mid: int) -> None:
        self._recv_posted[mid] = True
        # The statically-paired envelope may already have arrived and be
        # waiting "unexpected"; claiming it now is the runtime's
        # unexpected-queue scan at post time.
        if self._env_processed[mid]:
            self._match(mid)

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------

    def _process_envelope(self, mid: int) -> None:
        self._env_processed[mid] = True
        if self._recv_posted[mid]:
            self._match(mid)
        # Else: the envelope waits for its receive (unexpected queue).

    def _complete_send(self, mid: int) -> None:
        self._send_done[mid] = True
        self._notify(("send", mid))

    def _complete_recv(self, mid: int) -> None:
        self._recv_done[mid] = True
        self._notify(("recv", mid))

    # ------------------------------------------------------------------
    # Batched flow core (the epoch loop)
    # ------------------------------------------------------------------

    def _inject(self, mid: int) -> None:
        self._pending.append(mid)
        self._inbound_open[self._dst[mid]] += 1
        self._outbound_open[self._src[mid]] += 1
        if self._tracing:
            self._inject_time[mid] = self.engine.now
            self.trace.emit(
                self.engine.now, "flow.inject", fid=mid,
                src=self._src[mid], dst=self._dst[mid],
                nbytes=self._nbytes[mid], label="",
            )
        if self._resolve_event is None or self._resolve_event.cancelled:
            self._resolve_event = self.engine.schedule(
                self.engine.now, self._resolve, priority=_RESOLVE_PRIORITY
            )

    def _resolve(self) -> None:
        """One epoch: advance, batch completions, re-solve, reschedule."""
        self._resolve_event = None
        self.resolves += 1
        now = self.engine.now
        dt = now - self._last_advance
        n_active = len(self._act_mids)
        lossy = self._loss_model is not None
        if dt > 0 and n_active:
            moved = self._act_rates * dt
            self._act_remaining -= moved
            if lossy:
                # Time-rescaling: each flow's Exp(1) budget burns at its
                # instantaneous hazard; crossing zero is a packet loss.
                self._bytes_since_loss[self._act_mids] += moved
                self._loss_budget[self._act_mids] -= self._act_hazards * dt
            self.epochs += 1
        self._last_advance = now

        finished = np.empty(0, dtype=np.int64)
        finished_inbound = np.empty(0, dtype=np.int64)
        if n_active:
            mask = self._act_remaining <= _BYTE_EPS
            if mask.any():
                finished = self._act_mids[mask]
                dsts = self._msg_dst_arr[finished]
                srcs = self._msg_src_arr[finished]
                # Snapshot receiver concurrency before decrementing, so
                # flows finishing in the same batch all observe each
                # other (the receiver demultiplexes them together).
                finished_inbound = self._inbound_open[dsts]
                np.subtract.at(self._inbound_open, dsts, 1)
                np.subtract.at(self._outbound_open, srcs, 1)
                self.flows_completed += len(finished)
                self._drop(mask)
                if self._tracing:
                    for mid in finished:
                        mid = int(mid)
                        start = self._inject_time.pop(mid, now)
                        self.trace.emit(
                            now, "flow.complete", fid=mid,
                            src=self._src[mid], dst=self._dst[mid],
                            duration=now - start,
                            losses=int(self._flow_losses[mid]) if lossy else 0,
                            label="",
                        )

        if lossy and len(self._act_mids):
            # Spent budgets on surviving flows are this epoch's losses
            # (completions take precedence).  The hazard guard keeps a
            # pathologically tiny initial draw from firing before the
            # flow has ever seen congestion.
            lost_mask = (self._loss_budget[self._act_mids] <= _BUDGET_EPS) & (
                self._act_hazards > 0.0
            )
            if lost_mask.any():
                lost = self._act_mids[lost_mask]
                lost_remaining = self._act_remaining[lost_mask]
                self._drop(lost_mask)
                for mid, rem in zip(lost, lost_remaining):
                    self._stall(int(mid), max(float(rem), 0.0))

        if self._pending:
            admitted = np.asarray(self._pending, dtype=np.int64)
            self._pending.clear()
            remaining_src = self._flow_remaining if lossy else self._msg_wire
            rows = self._msg_rows[admitted]
            self._link_count += np.bincount(
                rows.ravel(), minlength=len(self._link_count)
            )
            self._act_mids = np.concatenate([self._act_mids, admitted])
            self._act_rows = np.concatenate([self._act_rows, rows])
            self._act_remaining = np.concatenate(
                [self._act_remaining, remaining_src[admitted]]
            )
            self._solve_stale = True
        n_active = len(self._act_mids)
        self.max_concurrent = max(self.max_concurrent, n_active)

        if not n_active:
            self._act_rates = 0.0
            self._act_hazards = np.empty(0, dtype=np.float64)
        elif self._solve_stale:
            self._solve(lossy)
            self._solve_stale = False
            self.solves += 1
        else:
            # Warm start: same flow set => same solve (the batched fill
            # is deterministic) and same hazards (backoffs only change
            # on a stall, which changes the set).
            self.solve_reuses += 1

        if self._timeline is not None:
            self._record_timeline(now)
        if self._tracing:
            self.trace.emit(
                now, "vector.epoch", active=n_active,
                completed=len(finished), dt=dt,
            )

        self._schedule_completion()

        # Completion handling runs last (slot order): released senders
        # pump follow-up flows, which coalesce into one resolve at this
        # timestamp — the same cascade discipline as the fluid engine.
        for mid, inbound in zip(finished, finished_inbound):
            self._flow_done(int(mid), int(inbound))

    def _drop(self, mask: np.ndarray) -> None:
        """Remove the active flows selected by *mask* (completed or stalled)."""
        # ``compress`` selects rows of a 2-D array several times faster
        # than boolean indexing.
        self._link_count -= np.bincount(
            self._act_rows.compress(mask, axis=0).ravel(),
            minlength=len(self._link_count),
        )
        keep = ~mask
        self._act_mids = self._act_mids[keep]
        self._act_rows = self._act_rows.compress(keep, axis=0)
        self._act_remaining = self._act_remaining[keep]
        if self._loss_model is not None:
            self._act_hazards = self._act_hazards[keep]
        self._solve_stale = True

    def _solve(self, lossy: bool) -> None:
        """Allocate rates (and hazards) for the current active set."""
        capacities = self._capacities
        counts = self._link_count
        if self._hol is not None:
            capacities = self._hol.effective(capacities, self._hol_eta, counts)
        tie_eps = _LOSSY_TIE_EPS if lossy else _ALLOC_TIE_EPS
        # Only the loss model needs the load/saturation summary.
        level = single_level_allocation(
            capacities, self._act_rows, counts, tie_eps=tie_eps, need_loads=lossy,
        )
        paths = self._active_paths() if level is None or lossy else None
        if level is not None:
            self._act_rates = level.share
            rates = np.full(len(self._act_mids), level.share) if lossy else None
            saturated = level.saturated
        else:
            alloc = max_min_allocation(
                capacities, paths, tie_eps=tie_eps, need_loads=lossy,
            )
            self._act_rates = rates = alloc.rates
            saturated = alloc.saturated
        if not lossy:
            return
        backoffs = None
        if self._loss_params.backoff_hazard_factor > 0:
            backoffs = self._backoff[self._act_mids].astype(np.float64)
        self._act_hazards = self._loss_model.flow_hazards(
            paths.link_ids, paths.indptr, rates, counts, saturated, backoffs,
        )

    def _active_paths(self) -> FlowPaths:
        """The active rows as a CSR view (sentinel entries included)."""
        n_active, width = self._act_rows.shape
        return FlowPaths(
            indptr=np.arange(0, (n_active + 1) * width, width, dtype=np.int64),
            link_ids=self._act_rows.reshape(-1),
        )

    def _record_timeline(self, now: float) -> None:
        """Hand the timeline the active set's CSR, built on demand."""
        n_active = len(self._act_mids)
        if not n_active:
            self._timeline.record_active(now, None, np.empty(0))
            return
        real = self._act_rows != self._sentinel
        indptr = np.zeros(n_active + 1, dtype=np.int64)
        np.cumsum(real.sum(axis=1), out=indptr[1:])
        self._timeline.record_active(
            now,
            FlowPaths(indptr=indptr, link_ids=self._act_rows[real]),
            np.broadcast_to(self._act_rates, n_active),
        )

    def _schedule_completion(self) -> None:
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if not len(self._act_mids):
            return
        rates = self._act_rates
        if isinstance(rates, float):
            # One rate for all: division by a positive constant is
            # monotone, so min(remaining) / rate is min(remaining / rate).
            if rates <= 0.0:  # pragma: no cover - defensive
                raise SimulationError("active flows with zero allocated rate")
            dt = float(max(self._act_remaining.min() / rates, 0.0))
        elif float(rates.min()) > 0.0:
            dt = float(max((self._act_remaining / rates).min(), 0.0))
        else:
            positive = rates > 0
            if not positive.any():  # pragma: no cover - defensive
                raise SimulationError("active flows with zero allocated rate")
            with np.errstate(divide="ignore"):
                ttc = np.where(positive, self._act_remaining / rates, np.inf)
            dt = float(max(ttc.min(), 0.0))
        if self._loss_model is not None and len(self._act_hazards):
            # Exponential waiting times fold into the epoch horizon: the
            # next loss (first budget to burn out at current hazards) is
            # an epoch boundary exactly like the next completion.
            hazards = self._act_hazards
            burning = hazards > 0.0
            if burning.any():
                budgets = self._loss_budget[self._act_mids]
                with np.errstate(divide="ignore"):
                    ttl = np.where(burning, budgets / hazards, np.inf)
                dt = min(dt, float(max(ttl.min(), 0.0)))
        self._completion_event = self.engine.schedule_after(
            dt, self._on_completion_due, priority=_RESOLVE_PRIORITY - 1
        )

    def _on_completion_due(self) -> None:
        self._completion_event = None
        self._resolve()

    # ------------------------------------------------------------------
    # Loss overlay (stall / resume)
    # ------------------------------------------------------------------

    def _flow_rng(self, mid: int) -> np.random.Generator:
        """Per-flow named stream for post-loss draws (chains, budgets).

        Created lazily — losses are rare relative to flows — and keyed
        by message id, so the draw sequence a flow sees is independent
        of when other flows lose.
        """
        rng = self._flow_rngs.get(mid)
        if rng is None:
            rng = self._rng_factory.stream(f"net/loss/flow/{mid}")
            self._flow_rngs[mid] = rng
        return rng

    def _stall(self, mid: int, remaining: float) -> None:
        """A loss fired for *mid*: apply RTO backoff and park the flow.

        The fluid engine's per-flow loss arithmetic (backoff reset after
        loss-free progress, then :meth:`LossParams.timeout`) over the
        array-resident state.
        """
        params = self._loss_params
        assert params is not None
        self._flow_remaining[mid] = remaining
        backoff = int(self._backoff[mid])
        if self._bytes_since_loss[mid] >= params.backoff_reset_bytes:
            backoff = 0
        rng = self._flow_rng(mid)
        penalty, backoff, losses = params.timeout(backoff, rng)
        self._backoff[mid] = backoff
        self._bytes_since_loss[mid] = 0.0
        self._flow_losses[mid] += losses
        self.total_losses += losses
        self.stalls += 1
        # Fresh unit-rate budget for the flow's next loss (the Poisson
        # process is memoryless; the stalled interval burns nothing
        # because the flow leaves the active set).
        self._loss_budget[mid] = float(rng.exponential())
        self._stalled_until[mid] = self.engine.now + penalty
        if self._tracing:
            self.trace.emit(
                self.engine.now, "flow.stall", fid=mid,
                src=self._src[mid], dst=self._dst[mid],
                penalty=penalty, backoff=backoff, remaining=remaining,
                label="",
            )
        self.engine.schedule_after(penalty, lambda: self._resume_flow(mid))

    def _resume_flow(self, mid: int) -> None:
        """RTO expired: the flow re-enters through the pending queue."""
        self._stalled_until[mid] = 0.0
        self._pending.append(mid)
        if self._tracing:
            self.trace.emit(
                self.engine.now, "flow.resume", fid=mid,
                src=self._src[mid], dst=self._dst[mid],
                remaining=float(self._flow_remaining[mid]), label="",
            )
        if self._resolve_event is None or self._resolve_event.cancelled:
            self._resolve_event = self.engine.schedule(
                self.engine.now, self._resolve, priority=_RESOLVE_PRIORITY
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VectorSimulator(nprocs={self.nprocs}, "
            f"active={len(self._act_mids)}, completed={self.flows_completed})"
        )

"""The MPI wire protocol, shared by both simulation engines.

:class:`MessageProtocol` is the one implementation of what happens to
a message between its send being posted and its receive completing:

* **submit** — host jitter plus the per-message submit cost, or a
  memcpy for a rank's message to itself (never on the wire);
* **eager / rendezvous** — below the eager threshold the payload goes
  straight to the sender's wire queue; above it an RTS control message
  (latency only) precedes it and the payload waits for the CTS that a
  matched receive sends back;
* **sender discipline** — per-pair FIFO wire channels plus the optional
  per-host concurrency cap (:class:`~repro.simnet.resources.SenderScheduler`);
* **receiver demultiplexing** — the serialized per-message service that
  produces the paper's δ (:class:`~repro.simnet.resources.SerialResource`);
* **non-overtaking** — envelopes (eager data, RTS, self-messages) are
  processed strictly in per-(src, dst) send order.

Messages are integer ids into per-message lists.  Subclasses supply the
rest through five hooks:

``_advance(rank)``
    Drive the rank's program until it blocks (generators in
    :class:`~repro.simmpi.runtime.Runtime`, lowered segments in
    :class:`~repro.simnet.vector.VectorSimulator`).
``_process_envelope(mid)``
    Match an in-order envelope against a receive (wildcard queues, or
    the static pairing of a lowered schedule), then call :meth:`_match`.
``_complete_send(mid)`` / ``_complete_recv(mid)``
    A send's last byte left / a receive completed.
``_inject(mid)``
    Put the payload on the flow core; the core calls
    :meth:`_flow_done` when its last byte arrives.

Every stochastic choice draws from named streams of the run's seed, so
runs are reproducible from ``(cluster, nprocs, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import DeadlockError, SimulationError
from ..simnet.engine import Engine
from ..simnet.resources import SenderScheduler, SerialResource
from ..simnet.rng import RngFactory
from ..simnet.stats import SimStats
from ..simnet.topology import Topology
from ..simnet.trace import NullTrace, Trace
from .transport import TransportParams

__all__ = ["MessageProtocol", "RunResult"]


@dataclass
class RunResult:
    """Outcome of one engine run.

    ``duration`` is the paper's completion-time definition: "the
    difference between the start time and the time at which all processes
    are finished".  ``stats`` carries the engine's cost counters
    (:class:`~repro.simnet.stats.SimStats`).
    """

    duration: float
    rank_finish_times: list[float]
    events_processed: int
    flows_completed: int
    total_losses: int
    max_concurrent_flows: int
    trace: Trace = field(repr=False, default_factory=NullTrace)
    stats: SimStats | None = None


class MessageProtocol:
    """Message protocol state and timeline of one run (see module doc).

    Rank *i* runs on host *i* of *topology*; *nprocs* must not exceed
    its hosts.  *start_skew_scale* staggers the ranks' start times
    uniformly in ``[0, scale)``.  A run is reproducible from *seed*.
    """

    def __init__(
        self,
        topology: Topology,
        transport: TransportParams,
        *,
        nprocs: int | None = None,
        start_skew_scale: float = 0.0,
        seed: int = 0,
        trace: Trace | None = None,
    ) -> None:
        self.nprocs = topology.n_hosts if nprocs is None else int(nprocs)
        if self.nprocs < 1:
            raise ValueError("need at least one rank")
        if self.nprocs > topology.n_hosts:
            raise ValueError(
                f"nprocs={self.nprocs} exceeds hosts={topology.n_hosts}"
            )
        if start_skew_scale < 0:
            raise ValueError("start_skew_scale must be >= 0")
        self.topology = topology
        self.transport = transport
        self.trace = trace if trace is not None else NullTrace()
        self.engine = Engine()
        self._rng_factory = RngFactory(seed)
        self._jitter_rng = self._rng_factory.stream("mpi/jitter")
        self._skew_rng = self._rng_factory.stream("mpi/skew")
        self._start_skew_scale = start_skew_scale
        self._started = False
        self._schedulers = [
            SenderScheduler(self._inject, transport.sender_concurrency)
            for _ in range(self.nprocs)
        ]
        self._mux = [
            SerialResource(self.engine, name=f"host{h}.rxcpu")
            for h in range(self.nprocs)
        ]
        # Per message id.
        self._src: list[int] = []
        self._dst: list[int] = []
        self._nbytes: list[int] = []
        self._seq: list[int] = []  # per ordered (src, dst) pair
        self._local: list[bool] = []
        self._eager: list[bool] = []
        # Per ordered pair: next seq to process at the receiver, and the
        # receiver-side reorder buffer (seq -> mid).
        self._recv_next: dict[tuple[int, int], int] = {}
        self._reorder: dict[tuple[int, int], dict[int, int]] = {}
        # Per rank.
        self._finish: list[float | None] = [None] * self.nprocs
        self._waiting = [0] * self.nprocs

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.engine.now

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def _start(self) -> None:
        if self._started:
            raise SimulationError(f"{type(self).__name__}.run may only be called once")
        self._started = True

    def _execute(self, engine: str, core, max_events: int | None) -> RunResult:
        """Start every rank, run the kernel dry, and summarise the run.

        *core* is the flow core whose counters (``flows_completed``,
        ``total_losses``, ``max_concurrent``, ``resolves``, ``epochs``,
        ``stalls``, ``solve_reuses``) the result reports.
        """
        for rank in range(self.nprocs):
            # Real clusters never enter a collective perfectly aligned:
            # OS noise and barrier exit skew stagger the ranks by a small
            # random amount (this seeds the Myrinet convoy effect).
            skew = (
                float(self._skew_rng.uniform(0.0, self._start_skew_scale))
                if self._start_skew_scale > 0
                else 0.0
            )
            self.engine.schedule(skew, lambda r=rank: self._advance(r))
        self.engine.run(max_events=max_events)
        unfinished = [r for r, t in enumerate(self._finish) if t is None]
        if unfinished:
            raise DeadlockError(
                f"ranks {unfinished} blocked with no pending events "
                "(mismatched sends/receives?)"
            )
        finish = list(self._finish)
        events = self.engine.events_processed
        return RunResult(
            duration=max(finish),
            rank_finish_times=finish,
            events_processed=events,
            flows_completed=core.flows_completed,
            total_losses=core.total_losses,
            max_concurrent_flows=core.max_concurrent,
            trace=self.trace,
            stats=SimStats(
                engine=engine,
                resolves=core.resolves,
                epochs=core.epochs,
                events=events,
                losses=core.total_losses,
                stalls=core.stalls,
                solve_reuses=core.solve_reuses,
            ),
        )

    def _unblock(self, rank: int) -> None:
        """One request *rank* blocks on completed; resume it after the last."""
        self._waiting[rank] -= 1
        if self._waiting[rank] == 0:
            self.engine.schedule(self.engine.now, lambda: self._advance(rank))

    # ------------------------------------------------------------------
    # Send side
    # ------------------------------------------------------------------

    def _jitter(self) -> float:
        scale = self.transport.jitter_scale
        if scale <= 0:
            return 0.0
        return float(self._jitter_rng.exponential(scale))

    def _post_send(self, mid: int) -> None:
        transport = self.transport
        nbytes = self._nbytes[mid]
        if self._local[mid]:
            # Local message: memcpy cost, bypasses wire and protocols.
            self.engine.schedule_after(
                transport.local_copy_time(nbytes), lambda: self._local_deliver(mid)
            )
            return
        submit_delay = self._jitter() + transport.submit_cost(nbytes)
        if self._eager[mid]:
            src, dst = self._src[mid], self._dst[mid]
            self.engine.schedule_after(
                submit_delay, lambda: self._schedulers[src].submit(dst, mid)
            )
        else:
            # Rendezvous: RTS control message (latency-only).
            rts_delay = submit_delay + transport.ctrl_overhead + transport.base_latency
            self.engine.schedule_after(rts_delay, lambda: self._envelope_in_order(mid))

    def _local_deliver(self, mid: int) -> None:
        self._complete_send(mid)
        self._envelope_in_order(mid)

    def _send_cts(self, mid: int) -> None:
        """Matched a rendezvous RTS: CTS travels back, data follows."""
        src, dst = self._src[mid], self._dst[mid]
        delay = self.transport.ctrl_overhead + self.transport.base_latency
        self.engine.schedule_after(delay, lambda: self._schedulers[src].submit(dst, mid))

    def _flow_done(self, mid: int, inbound: int) -> None:
        """The payload's last byte arrived; *inbound* is the receiver's
        open inbound flows at that moment (itself included)."""
        self._schedulers[self._src[mid]].release(self._dst[mid])
        self._complete_send(mid)
        self.engine.schedule_after(
            self.transport.base_latency, lambda: self._wire_arrival(mid, inbound)
        )

    # ------------------------------------------------------------------
    # Receive side
    # ------------------------------------------------------------------

    def _wire_arrival(self, mid: int, inbound: int) -> None:
        """Last byte reached the destination host: demux then deliver."""
        if self.transport.mux_applies(self._nbytes[mid], inbound):
            self._mux[self._dst[mid]].request(
                self.transport.mux_overhead, lambda: self._deliver(mid)
            )
        else:
            self._deliver(mid)

    def _deliver(self, mid: int) -> None:
        if self._eager[mid]:
            self._envelope_in_order(mid)
        else:
            # Rendezvous payload: the receive was claimed at CTS time.
            self._complete_recv(mid)

    def _envelope_in_order(self, mid: int) -> None:
        """Process envelope arrivals strictly in per-pair send order."""
        key = (self._src[mid], self._dst[mid])
        expected = self._recv_next.get(key, 0)
        buffer = self._reorder.setdefault(key, {})
        buffer[self._seq[mid]] = mid
        while expected in buffer:
            self._process_envelope(buffer.pop(expected))
            expected += 1
        self._recv_next[key] = expected

    def _match(self, mid: int) -> None:
        """A receive claimed envelope *mid*."""
        if self._eager[mid] or self._local[mid]:
            self._complete_recv(mid)
        else:
            self._send_cts(mid)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def _advance(self, rank: int) -> None:
        raise NotImplementedError

    def _process_envelope(self, mid: int) -> None:
        raise NotImplementedError

    def _complete_send(self, mid: int) -> None:
        raise NotImplementedError

    def _complete_recv(self, mid: int) -> None:
        raise NotImplementedError

    def _inject(self, mid: int) -> None:
        raise NotImplementedError

"""MPI-like runtime over the fluid network simulator.

Rank programs are generator coroutines: they call nonblocking context
methods (:meth:`RankContext.isend` / :meth:`RankContext.irecv`) and block
by *yielding* a request (or list of requests), resuming once all have
completed — the moral equivalent of ``MPI_Waitall``.

The runtime implements the semantics that matter for contention
modelling and for MPI correctness:

* **matching** — (source, tag) matching with wildcards, FIFO posted-receive
  and unexpected-message queues, and strict per-(src, dst) non-overtaking
  order enforced with per-pair sequence numbers;
* **protocols** — eager (immediate injection, envelope bytes) below the
  threshold, RTS/CTS rendezvous above it (control messages are modelled
  latency-only, the payload as a fluid flow);
* **sender discipline** — per-pair FIFO channels (one in-flight message
  per ordered host pair, as on a TCP socket), plus an optional per-host
  concurrency cap (gm's serialised DMA: ``sender_concurrency=1``);
* **receiver demultiplexing** — the serialized per-message service that
  produces the paper's δ (see :mod:`repro.simmpi.transport`);
* **jitter** — random submission noise seeding the convoy effect.

Every run is reproducible from ``(cluster, nprocs, seed)``.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable

from ..exceptions import DeadlockError, SimulationError
from ..simnet.engine import Engine
from ..simnet.fluid import Flow, FluidNetwork
from ..simnet.loss import LossParams
from ..simnet.penalty import HolPenalty
from ..simnet.resources import SenderScheduler, SerialResource
from ..simnet.rng import RngFactory
from ..simnet.stats import SimStats
from ..simnet.topology import Topology
from ..simnet.trace import NullTrace, Trace
from .request import ANY_SOURCE, ANY_TAG, RecvRequest, Request, SendRequest
from .transport import TransportParams

__all__ = ["RankContext", "Runtime", "RunResult", "RankProgram"]

RankProgram = Callable[..., Generator[Any, None, None]]

_msg_ids = itertools.count()


class _Message:
    """Internal wire message (eager payload, or rendezvous payload)."""

    __slots__ = (
        "mid", "src", "dst", "tag", "nbytes", "seq", "eager",
        "send_req", "recv_req", "flow",
    )

    def __init__(
        self, src: int, dst: int, tag: int, nbytes: int, seq: int,
        eager: bool, send_req: SendRequest,
    ) -> None:
        self.mid = next(_msg_ids)
        self.src = src
        self.dst = dst
        self.tag = tag
        self.nbytes = nbytes
        self.seq = seq
        self.eager = eager
        self.send_req = send_req
        self.recv_req: RecvRequest | None = None
        self.flow: Flow | None = None


@dataclass
class _Envelope:
    """A matched-side arrival: eager data or a rendezvous RTS."""

    src: int
    tag: int
    nbytes: int
    message: _Message


@dataclass
class RunResult:
    """Outcome of one :meth:`Runtime.run`.

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


class RankContext:
    """Per-rank API visible to programs (an MPI communicator analogue)."""

    def __init__(self, runtime: "Runtime", rank: int) -> None:
        self._runtime = runtime
        self.rank = rank

    @property
    def size(self) -> int:
        """Number of ranks in the job."""
        return self._runtime.nprocs

    def isend(self, dst: int, nbytes: int, *, tag: int = 0) -> SendRequest:
        """Post a nonblocking send of *nbytes* to rank *dst*."""
        return self._runtime._post_send(self.rank, dst, int(nbytes), tag)

    def irecv(self, src: int = ANY_SOURCE, *, tag: int = ANY_TAG) -> RecvRequest:
        """Post a nonblocking receive from *src* (wildcards allowed)."""
        return self._runtime._post_recv(self.rank, src, tag)

    def sendrecv(
        self, dst: int, nbytes: int, src: int, *, tag: int = 0
    ) -> Generator[Any, None, RecvRequest]:
        """Blocking combined send+receive (one Algorithm-1 round)."""
        send_req = self.isend(dst, nbytes, tag=tag)
        recv_req = self.irecv(src, tag=tag)
        yield [send_req, recv_req]
        return recv_req

    def local_copy(self, nbytes: int) -> None:
        """Account for the rank's message to itself (never hits the wire)."""
        self._runtime._charge_local_copy(self.rank, int(nbytes))

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._runtime.engine.now


class _RankState:
    __slots__ = ("gen", "finished", "finish_time", "waiting", "started")

    def __init__(self) -> None:
        self.gen: Generator[Any, None, None] | None = None
        self.finished = False
        self.finish_time = math.nan
        self.waiting = 0
        self.started = False


class Runtime:
    """Executes rank programs over a cluster model.

    Parameters
    ----------
    topology:
        Finalised :class:`~repro.simnet.topology.Topology`; rank *i* runs
        on host *i*.
    transport:
        Protocol behaviour (:class:`~repro.simmpi.transport.TransportParams`).
    loss_params:
        TCP loss process; ``None`` for lossless fabrics.
    nprocs:
        Number of ranks (must not exceed hosts).
    seed:
        Root seed; all stochastic behaviour derives from it.
    trace:
        Optional structured trace shared with the fluid layer.
    timeline:
        Optional per-link collector handed to the fluid network (see
        :class:`repro.obs.LinkTimeline`).
    """

    def __init__(
        self,
        topology: Topology,
        transport: TransportParams,
        *,
        nprocs: int | None = None,
        loss_params: LossParams | None = None,
        hol_penalty: "HolPenalty | None" = None,
        start_skew_scale: float = 0.0,
        seed: int = 0,
        trace: Trace | None = None,
        timeline=None,
    ) -> None:
        self.nprocs = topology.n_hosts if nprocs is None else int(nprocs)
        if self.nprocs < 1:
            raise ValueError("need at least one rank")
        if self.nprocs > topology.n_hosts:
            raise ValueError(
                f"nprocs={self.nprocs} exceeds hosts={topology.n_hosts}"
            )
        self.topology = topology
        self.transport = transport
        self.trace = trace if trace is not None else NullTrace()
        self.engine = Engine()
        rng_factory = RngFactory(seed)
        self._jitter_rng = rng_factory.stream("mpi/jitter")
        if start_skew_scale < 0:
            raise ValueError("start_skew_scale must be >= 0")
        self._start_skew_scale = start_skew_scale
        self._skew_rng = rng_factory.stream("mpi/skew")
        self.network = FluidNetwork(
            self.engine,
            topology,
            loss_params=loss_params,
            hol_penalty=hol_penalty,
            rng=rng_factory.stream("net/loss"),
            trace=self.trace,
            timeline=timeline,
        )
        self._ranks = [_RankState() for _ in range(self.nprocs)]
        self._contexts = [RankContext(self, r) for r in range(self.nprocs)]
        self._schedulers = [
            SenderScheduler(self._start_flow, transport.sender_concurrency)
            for _ in range(self.nprocs)
        ]
        self._mux = [
            SerialResource(self.engine, name=f"host{h}.rxcpu")
            for h in range(self.nprocs)
        ]
        # Matching state.
        self._posted: list[deque[RecvRequest]] = [deque() for _ in range(self.nprocs)]
        self._unexpected: list[deque[_Envelope]] = [deque() for _ in range(self.nprocs)]
        # Per ordered pair: next send seq / next seq to process at receiver,
        # plus the receiver-side reorder buffer (non-overtaking guarantee).
        self._send_seq: dict[tuple[int, int], int] = {}
        self._recv_next: dict[tuple[int, int], int] = {}
        self._reorder: dict[tuple[int, int], dict[int, _Envelope]] = {}

    # ------------------------------------------------------------------
    # Program execution
    # ------------------------------------------------------------------

    def run(
        self,
        program: RankProgram,
        *args: Any,
        max_events: int | None = None,
        **kwargs: Any,
    ) -> RunResult:
        """Run *program* on every rank until all finish.

        The program is called as ``program(ctx, *args, **kwargs)`` and
        must return a generator.  All ranks start at t=0 (the paper's
        synchronisation model: "all processes start the algorithm
        simultaneously").
        """
        for rank in range(self.nprocs):
            state = self._ranks[rank]
            if state.gen is not None:
                raise SimulationError("Runtime.run may only be called once")
            gen = program(self._contexts[rank], *args, **kwargs)
            if not isinstance(gen, Generator):
                raise TypeError(
                    "rank program must be a generator function "
                    f"(got {type(gen).__name__})"
                )
            state.gen = gen
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
        unfinished = [r for r, s in enumerate(self._ranks) if not s.finished]
        if unfinished:
            raise DeadlockError(
                f"ranks {unfinished} blocked with no pending events "
                "(mismatched sends/receives?)"
            )
        finish = [s.finish_time for s in self._ranks]
        return RunResult(
            duration=max(finish),
            rank_finish_times=finish,
            events_processed=self.engine.events_processed,
            flows_completed=self.network.flows_completed,
            total_losses=self.network.total_losses,
            max_concurrent_flows=self.network.max_concurrent,
            trace=self.trace,
            stats=SimStats(
                engine="fluid",
                resolves=self.network.resolves,
                epochs=self.network.epochs,
                events=self.engine.events_processed,
                losses=self.network.total_losses,
                stalls=self.network.stalls,
            ),
        )

    def _advance(self, rank: int) -> None:
        state = self._ranks[rank]
        assert state.gen is not None
        while True:
            try:
                yielded = next(state.gen)
            except StopIteration:
                state.finished = True
                state.finish_time = self.engine.now
                return
            pending = [r for r in self._as_requests(yielded) if not r.done]
            if pending:
                state.waiting = len(pending)
                for request in pending:
                    request.on_done(lambda r=rank: self._request_done(r))
                return
            # All already complete: keep advancing within this event.

    @staticmethod
    def _as_requests(yielded: Any) -> list[Request]:
        if isinstance(yielded, Request):
            return [yielded]
        if isinstance(yielded, Iterable):
            requests = list(yielded)
            if not all(isinstance(r, Request) for r in requests):
                raise TypeError("programs must yield Request objects")
            return requests
        raise TypeError(
            f"programs must yield Request or iterable of Request, got {yielded!r}"
        )

    def _request_done(self, rank: int) -> None:
        state = self._ranks[rank]
        state.waiting -= 1
        if state.waiting == 0 and not state.finished:
            self.engine.schedule(self.engine.now, lambda: self._advance(rank))

    # ------------------------------------------------------------------
    # Point-to-point machinery
    # ------------------------------------------------------------------

    def _next_seq(self, src: int, dst: int) -> int:
        key = (src, dst)
        seq = self._send_seq.get(key, 0)
        self._send_seq[key] = seq + 1
        return seq

    def _jitter(self) -> float:
        scale = self.transport.jitter_scale
        if scale <= 0:
            return 0.0
        return float(self._jitter_rng.exponential(scale))

    def _post_send(self, rank: int, dst: int, nbytes: int, tag: int) -> SendRequest:
        if nbytes < 0:
            raise ValueError("message size must be >= 0")
        if not 0 <= dst < self.nprocs:
            raise ValueError(f"destination rank {dst} out of range")
        request = SendRequest(rank, dst, tag, nbytes)
        seq = self._next_seq(rank, dst)
        eager = self.transport.is_eager(nbytes)
        message = _Message(rank, dst, tag, nbytes, seq, eager, request)
        self.trace.emit(
            self.engine.now, "mpi.isend", src=rank, dst=dst, tag=tag,
            nbytes=nbytes, seq=seq, eager=eager,
        )
        if dst == rank:
            # Local message: memcpy cost, bypasses wire and protocols.
            delay = self.transport.local_copy_time(nbytes)
            self.engine.schedule_after(delay, lambda: self._local_deliver(message))
            return request
        submit_delay = self._jitter() + self.transport.submit_cost(nbytes)
        if eager:
            self.engine.schedule_after(
                submit_delay, lambda: self._schedulers[rank].submit(message.dst, message)
            )
        else:
            # Rendezvous: RTS control message (latency-only).
            rts_delay = submit_delay + self.transport.ctrl_overhead + self.transport.base_latency
            self.engine.schedule_after(rts_delay, lambda: self._rts_arrives(message))
        return request

    def _post_recv(self, rank: int, src: int, tag: int) -> RecvRequest:
        if src != ANY_SOURCE and not 0 <= src < self.nprocs:
            raise ValueError(f"source rank {src} out of range")
        request = RecvRequest(rank, src, tag)
        self.trace.emit(self.engine.now, "mpi.irecv", rank=rank, src=src, tag=tag)
        # Try the unexpected queue first (FIFO).
        queue = self._unexpected[rank]
        for position, envelope in enumerate(queue):
            if request.matches(envelope.src, envelope.tag):
                del queue[position]
                self._match(request, envelope)
                return request
        self._posted[rank].append(request)
        return request

    def _local_deliver(self, message: _Message) -> None:
        envelope = _Envelope(message.src, message.tag, message.nbytes, message)
        message.send_req.complete(self.engine.now)
        self._envelope_in_order(message.dst, envelope)

    # -- wire path ------------------------------------------------------

    def _start_flow(self, message: _Message) -> None:
        wire = self.transport.wire_bytes(message.nbytes)
        message.flow = self.network.inject(
            message.src,
            message.dst,
            wire,
            on_complete=lambda flow, m=message: self._flow_done(m),
            label=f"msg{message.mid}",
        )

    def _flow_done(self, message: _Message) -> None:
        self._schedulers[message.src].release(message.dst)
        message.send_req.complete(self.engine.now)
        self.engine.schedule_after(
            self.transport.base_latency, lambda: self._wire_arrival(message)
        )

    def _wire_arrival(self, message: _Message) -> None:
        """Last byte reached the destination host: demux then deliver."""
        # Concurrency the receiver's stack observed while this message
        # finished (snapshot taken at flow completion; includes itself).
        inbound = (
            message.flow.inbound_at_completion if message.flow is not None else 1
        )
        if self.transport.mux_applies(message.nbytes, inbound):
            self._mux[message.dst].request(
                self.transport.mux_overhead,
                lambda: self._deliver(message),
            )
        else:
            self._deliver(message)

    def _deliver(self, message: _Message) -> None:
        if message.eager:
            envelope = _Envelope(message.src, message.tag, message.nbytes, message)
            self._envelope_in_order(message.dst, envelope)
        else:
            # Rendezvous payload: the receive was claimed at CTS time.
            assert message.recv_req is not None
            self._complete_recv(message.recv_req, message)

    # -- rendezvous handshake --------------------------------------------

    def _rts_arrives(self, message: _Message) -> None:
        envelope = _Envelope(message.src, message.tag, message.nbytes, message)
        self._envelope_in_order(message.dst, envelope)

    def _cts_and_send(self, message: _Message) -> None:
        """Matched a rendezvous RTS: CTS travels back, data follows."""
        delay = self.transport.ctrl_overhead + self.transport.base_latency
        self.engine.schedule_after(
            delay, lambda: self._schedulers[message.src].submit(message.dst, message)
        )

    # -- matching ---------------------------------------------------------

    def _envelope_in_order(self, dst: int, envelope: _Envelope) -> None:
        """Process envelope arrivals strictly in per-pair send order."""
        key = (envelope.message.src, dst)
        expected = self._recv_next.get(key, 0)
        buffer = self._reorder.setdefault(key, {})
        buffer[envelope.message.seq] = envelope
        while expected in buffer:
            self._process_envelope(dst, buffer.pop(expected))
            expected += 1
        self._recv_next[key] = expected

    def _process_envelope(self, dst: int, envelope: _Envelope) -> None:
        posted = self._posted[dst]
        for position, request in enumerate(posted):
            if request.matches(envelope.src, envelope.tag):
                del posted[position]
                self._match(request, envelope)
                return
        self._unexpected[dst].append(envelope)

    def _match(self, request: RecvRequest, envelope: _Envelope) -> None:
        message = envelope.message
        if message.eager or message.src == message.dst:
            self._complete_recv(request, message)
        else:
            message.recv_req = request
            self._cts_and_send(message)

    def _complete_recv(self, request: RecvRequest, message: _Message) -> None:
        request.source = message.src
        request.tag = message.tag
        request.nbytes = message.nbytes
        request.complete(self.engine.now)
        self.trace.emit(
            self.engine.now, "mpi.recv_complete", rank=request.rank,
            src=message.src, tag=message.tag, nbytes=message.nbytes,
        )

    def _charge_local_copy(self, rank: int, nbytes: int) -> None:
        # A synchronous memcpy: advance nothing (the generator keeps
        # running in zero simulated time) but record it for traces.  The
        # cost is charged through isend-to-self when programs use that
        # path; local_copy is the cheap accounting variant used by the
        # collectives, matching MPI implementations which memcpy in place.
        self.trace.emit(self.engine.now, "mpi.local_copy", rank=rank, nbytes=nbytes)

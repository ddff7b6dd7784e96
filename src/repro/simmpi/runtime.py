"""MPI-like runtime over the fluid network simulator.

Rank programs are generator coroutines: they call nonblocking context
methods (:meth:`RankContext.isend` / :meth:`RankContext.irecv`) and block
by *yielding* a request (or list of requests), resuming once all have
completed — the moral equivalent of ``MPI_Waitall``.

The wire protocol (eager/rendezvous, per-pair FIFO sender channels and
concurrency caps, receiver demultiplexing, non-overtaking delivery) is
:class:`~repro.simmpi.protocol.MessageProtocol`, shared with the vector
engine.  This module adds what only a generator interpreter needs:

* **the driver** — each rank's generator runs until it yields requests
  that are not yet complete;
* **matching** — (source, tag) matching with wildcards, FIFO
  posted-receive and unexpected-message queues;
* **the flow core** — payloads travel as flows of the fluid network
  (:mod:`repro.simnet.fluid`).

Every run is reproducible from ``(cluster, nprocs, seed)``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator, Iterable

from ..simnet.fluid import FluidNetwork
from ..simnet.loss import LossParams
from ..simnet.penalty import HolPenalty
from ..simnet.topology import Topology
from ..simnet.trace import Trace
from .protocol import MessageProtocol, RunResult
from .request import ANY_SOURCE, ANY_TAG, RecvRequest, Request, SendRequest
from .transport import TransportParams

__all__ = ["RankContext", "Runtime", "RunResult", "RankProgram"]

RankProgram = Callable[..., Generator[Any, None, None]]


class RankContext:
    """Per-rank API visible to programs (an MPI communicator analogue).

    *runtime* carries out the calls: a :class:`Runtime`, or the recorder
    that :func:`~repro.simmpi.lowering.lower_program` runs programs
    against.  Arguments are validated here, once for both.
    """

    def __init__(self, runtime, rank: int) -> None:
        self._runtime = runtime
        self.rank = rank

    @property
    def size(self) -> int:
        """Number of ranks in the job."""
        return self._runtime.nprocs

    def isend(self, dst: int, nbytes: int, *, tag: int = 0):
        """Post a nonblocking send of *nbytes* to rank *dst*."""
        dst, nbytes = int(dst), int(nbytes)
        if nbytes < 0:
            raise ValueError("message size must be >= 0")
        if not 0 <= dst < self._runtime.nprocs:
            raise ValueError(f"destination rank {dst} out of range")
        return self._runtime._isend(self.rank, dst, nbytes, int(tag))

    def irecv(self, src: int = ANY_SOURCE, *, tag: int = ANY_TAG):
        """Post a nonblocking receive from *src* (wildcards allowed)."""
        src = int(src)
        if src != ANY_SOURCE and not 0 <= src < self._runtime.nprocs:
            raise ValueError(f"source rank {src} out of range")
        return self._runtime._irecv(self.rank, src, int(tag))

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
        self._runtime._local_copy(self.rank, int(nbytes))

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._runtime.now


def as_requests(yielded: Any, kinds: type | tuple = Request) -> list:
    """What a program yielded, as the list of requests it blocks on."""
    if isinstance(yielded, kinds):
        return [yielded]
    if isinstance(yielded, Iterable):
        requests = list(yielded)
        if not all(isinstance(r, kinds) for r in requests):
            raise TypeError("programs must yield Request objects")
        return requests
    raise TypeError(
        f"programs must yield Request or iterable of Request, got {yielded!r}"
    )


class Runtime(MessageProtocol):
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
        super().__init__(
            topology, transport, nprocs=nprocs,
            start_skew_scale=start_skew_scale, seed=seed, trace=trace,
        )
        self.network = FluidNetwork(
            self.engine,
            topology,
            loss_params=loss_params,
            hol_penalty=hol_penalty,
            rng=self._rng_factory.stream("net/loss"),
            trace=self.trace,
            timeline=timeline,
        )
        self._gens: list[Generator[Any, None, None]] = []
        # Matching state: posted receives, and unexpected envelopes (mids).
        self._posted: list[deque[RecvRequest]] = [deque() for _ in range(self.nprocs)]
        self._unexpected: list[deque[int]] = [deque() for _ in range(self.nprocs)]
        self._send_seq: dict[tuple[int, int], int] = {}
        # Per message id, beside the protocol's lists.
        self._tag: list[int] = []
        self._send_req: list[SendRequest] = []
        self._recv_req: dict[int, RecvRequest] = {}

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
        simultaneously"), up to the start skew.
        """
        self._start()
        for rank in range(self.nprocs):
            gen = program(RankContext(self, rank), *args, **kwargs)
            if not isinstance(gen, Generator):
                raise TypeError(
                    "rank program must be a generator function "
                    f"(got {type(gen).__name__})"
                )
            self._gens.append(gen)
        return self._execute("fluid", self.network, max_events)

    def _advance(self, rank: int) -> None:
        gen = self._gens[rank]
        while True:
            try:
                yielded = next(gen)
            except StopIteration:
                self._finish[rank] = self.engine.now
                return
            pending = [r for r in as_requests(yielded) if not r.done]
            if pending:
                self._waiting[rank] = len(pending)
                for request in pending:
                    request.on_done(lambda r=rank: self._unblock(r))
                return
            # All already complete: keep advancing within this event.

    # ------------------------------------------------------------------
    # RankContext calls
    # ------------------------------------------------------------------

    def _isend(self, rank: int, dst: int, nbytes: int, tag: int) -> SendRequest:
        request = SendRequest(rank, dst, tag, nbytes)
        key = (rank, dst)
        seq = self._send_seq.get(key, 0)
        self._send_seq[key] = seq + 1
        eager = self.transport.is_eager(nbytes)
        mid = len(self._src)
        self._src.append(rank)
        self._dst.append(dst)
        self._nbytes.append(nbytes)
        self._seq.append(seq)
        self._local.append(dst == rank)
        self._eager.append(eager)
        self._tag.append(tag)
        self._send_req.append(request)
        self.trace.emit(
            self.engine.now, "mpi.isend", src=rank, dst=dst, tag=tag,
            nbytes=nbytes, seq=seq, eager=eager,
        )
        self._post_send(mid)
        return request

    def _irecv(self, rank: int, src: int, tag: int) -> RecvRequest:
        request = RecvRequest(rank, src, tag)
        self.trace.emit(self.engine.now, "mpi.irecv", rank=rank, src=src, tag=tag)
        # Try the unexpected queue first (FIFO).
        queue = self._unexpected[rank]
        for position, mid in enumerate(queue):
            if request.matches(self._src[mid], self._tag[mid]):
                del queue[position]
                self._claim(request, mid)
                return request
        self._posted[rank].append(request)
        return request

    def _local_copy(self, rank: int, nbytes: int) -> None:
        # A synchronous memcpy: advance nothing (the generator keeps
        # running in zero simulated time) but record it for traces.  The
        # cost is charged through isend-to-self when programs use that
        # path; local_copy is the cheap accounting variant used by the
        # collectives, matching MPI implementations which memcpy in place.
        self.trace.emit(self.engine.now, "mpi.local_copy", rank=rank, nbytes=nbytes)

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------

    def _process_envelope(self, mid: int) -> None:
        posted = self._posted[self._dst[mid]]
        src, tag = self._src[mid], self._tag[mid]
        for position, request in enumerate(posted):
            if request.matches(src, tag):
                del posted[position]
                self._claim(request, mid)
                return
        self._unexpected[self._dst[mid]].append(mid)

    def _claim(self, request: RecvRequest, mid: int) -> None:
        self._recv_req[mid] = request
        self._match(mid)

    def _complete_send(self, mid: int) -> None:
        self._send_req[mid].complete(self.engine.now)

    def _complete_recv(self, mid: int) -> None:
        request = self._recv_req.pop(mid)
        request.source = self._src[mid]
        request.tag = self._tag[mid]
        request.nbytes = self._nbytes[mid]
        request.complete(self.engine.now)
        self.trace.emit(
            self.engine.now, "mpi.recv_complete", rank=request.rank,
            src=request.source, tag=request.tag, nbytes=request.nbytes,
        )

    def _inject(self, mid: int) -> None:
        self.network.inject(
            self._src[mid],
            self._dst[mid],
            self.transport.wire_bytes(self._nbytes[mid]),
            on_complete=lambda flow, m=mid: self._flow_done(m, flow.inbound_at_completion),
            label=f"msg{mid}",
        )

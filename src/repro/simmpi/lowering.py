"""Lowering: compile rank programs into static phase schedules.

The reference interpreter (:class:`repro.simmpi.runtime.Runtime`) drives
every rank's generator step by step, matching sends to receives with
runtime queues.  For the collectives this repo studies that generality
is unused: the communication structure of ``direct``, ``rounds``,
``bruck``, ``ring`` and the ``alltoallv_*`` variants depends only on
``(n, msg_size/matrix)`` — never on wildcards, message contents, or the
simulation clock.  This module exploits that: it *records* one dry run
of each rank's generator — through the runtime's own
:class:`~repro.simmpi.runtime.RankContext`, with a recorder standing in
for the runtime — and emits a :class:`LoweredProgram`, a static
schedule of

* **messages** — every send with its (src, dst, tag, payload) and the
  receive it pairs with, resolved at compile time (the runtime's FIFO
  matching reduces to positional pairing when both sides use concrete
  source/tag keys and delivery is per-pair in-order);
* **segments** — the spans of each rank's program between ``yield``
  points, each with its ordered operation list and the *gate* (the set
  of requests the yield blocks on) that must complete before the next
  segment posts.

Segment k+1 of a rank depends on gate k; a message edges from its send
segment on the source rank to its receive segment on the destination —
together these are the phase dependency graph that batched engines
(:mod:`repro.simnet.vector`) execute without ever resuming a Python
generator mid-simulation.

Programs whose behaviour cannot be known statically — wildcard receives
(``ANY_SOURCE``/``ANY_TAG``), reads of ``ctx.now``, or send/receive
counts that do not pair up — raise :class:`~repro.exceptions.LoweringError`;
callers fall back to the reference interpreter for those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from ..exceptions import LoweringError
from .request import ANY_SOURCE, ANY_TAG
from .runtime import RankContext, as_requests

__all__ = [
    "LoweredMessage",
    "Segment",
    "LoweredProgram",
    "lower_program",
]


@dataclass(frozen=True)
class LoweredMessage:
    """One matched point-to-point transfer of the schedule.

    ``seq`` is the per-ordered-pair (src, dst) sequence number — the
    same numbering the runtime uses for its non-overtaking guarantee.
    ``local`` transfers (src == dst) never touch the wire; they model
    the rank's message to itself.
    """

    mid: int
    src: int
    dst: int
    tag: int
    nbytes: int
    seq: int
    send_segment: int
    recv_segment: int
    local: bool


@dataclass(frozen=True)
class Segment:
    """One span of a rank's program between two yields.

    ``ops`` is the ordered list of operations the span executes:
    ``("send", mid)``, ``("recv", mid)`` or ``("copy", nbytes)``.  The
    op order is semantically load-bearing — it fixes per-pair sequence
    numbers, jitter draws and submit-queue arrival order.  ``gate`` is
    the tuple of ``(kind, mid)`` requests the terminating yield blocks
    on, or ``None`` for the trailing segment (program runs to
    ``StopIteration``).
    """

    rank: int
    index: int
    ops: tuple[tuple, ...]
    gate: tuple[tuple[str, int], ...] | None


@dataclass(frozen=True)
class LoweredProgram:
    """A rank program compiled to a static phase schedule."""

    nprocs: int
    messages: tuple[LoweredMessage, ...]
    segments: tuple[tuple[Segment, ...], ...]  # [rank][segment index]

    @property
    def n_phases(self) -> int:
        """Largest segment count over all ranks (phases of the schedule)."""
        return max(len(segs) for segs in self.segments)

    def flow_matrix(self, phase: int) -> np.ndarray:
        """(n, n) byte matrix of messages *posted* in segment *phase*.

        Row = source rank, column = destination; the diagonal holds
        local self-copies posted in that phase.  Ranks with fewer
        segments than *phase* contribute nothing.
        """
        matrix = np.zeros((self.nprocs, self.nprocs), dtype=np.int64)
        for message in self.messages:
            if message.send_segment == phase:
                matrix[message.src, message.dst] += message.nbytes
        return matrix

    def dependency_edges(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """Cross-rank dependency edges ``((src, send_seg), (dst, recv_seg))``.

        Together with the implicit intra-rank chain (segment k+1 waits
        on gate k) these are the full dependency structure of the
        schedule.
        """
        return [
            ((m.src, m.send_segment), (m.dst, m.recv_segment))
            for m in self.messages
            if not m.local
        ]

    def describe(self) -> str:
        """One-line shape summary."""
        remote = sum(1 for m in self.messages if not m.local)
        local = len(self.messages) - remote
        return (
            f"{self.nprocs} ranks, {self.n_phases} phases, "
            f"{remote} wire messages, {local} local copies"
        )


class _SendToken:
    __slots__ = ("mid",)

    def __init__(self, mid: int) -> None:
        self.mid = mid


class _RecvToken:
    __slots__ = ("rank", "index")

    def __init__(self, rank: int, index: int) -> None:
        self.rank = rank
        self.index = index


class _RecordedSend:
    __slots__ = ("mid", "src", "dst", "tag", "nbytes", "seq", "segment")

    def __init__(self, mid, src, dst, tag, nbytes, seq) -> None:
        self.mid = mid
        self.src = src
        self.dst = dst
        self.tag = tag
        self.nbytes = nbytes
        self.seq = seq
        self.segment = -1


class _RecordedRecv:
    __slots__ = ("rank", "index", "src", "tag", "segment")

    def __init__(self, rank, index, src, tag) -> None:
        self.rank = rank
        self.index = index
        self.src = src
        self.tag = tag
        self.segment = -1


class _Recorder:
    """Accumulates recorded operations while one rank's generator runs.

    It stands behind a :class:`~repro.simmpi.runtime.RankContext` in
    place of the runtime, so programs see the same API (and the same
    argument checks) while being lowered.
    """

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        self.sends: list[_RecordedSend] = []
        self.recvs_by_rank: list[list[_RecordedRecv]] = [[] for _ in range(nprocs)]
        self.copies: list[tuple[int, int]] = []
        self._send_seq: dict[tuple[int, int], int] = {}
        self._current_ops: list[tuple] = []

    @property
    def now(self) -> float:
        raise LoweringError(
            "rank program reads ctx.now: time-dependent programs cannot "
            "be lowered to a static schedule (use the fluid engine)"
        )

    def _isend(self, rank: int, dst: int, nbytes: int, tag: int) -> _SendToken:
        key = (rank, dst)
        seq = self._send_seq.get(key, 0)
        self._send_seq[key] = seq + 1
        send = _RecordedSend(len(self.sends), rank, dst, tag, nbytes, seq)
        self.sends.append(send)
        self._current_ops.append(("send", send))
        return _SendToken(send.mid)

    def _irecv(self, rank: int, src: int, tag: int) -> _RecvToken:
        if src == ANY_SOURCE or tag == ANY_TAG:
            raise LoweringError(
                "rank program posts a wildcard receive (ANY_SOURCE/ANY_TAG): "
                "its matching depends on runtime arrival order and cannot "
                "be lowered (use the fluid engine)"
            )
        recvs = self.recvs_by_rank[rank]
        recv = _RecordedRecv(rank, len(recvs), src, tag)
        recvs.append(recv)
        self._current_ops.append(("recv", recv))
        return _RecvToken(rank, recv.index)

    def _local_copy(self, rank: int, nbytes: int) -> None:
        self.copies.append((rank, nbytes))
        self._current_ops.append(("copy", nbytes))

    def take_ops(self) -> tuple[tuple, ...]:
        ops = tuple(self._current_ops)
        self._current_ops = []
        return ops


def lower_program(
    program, nprocs: int, *args: Any, **kwargs: Any
) -> LoweredProgram:
    """Compile *program* at *nprocs* ranks into a :class:`LoweredProgram`.

    The program is called exactly as the runtime would call it —
    ``program(ctx, *args, **kwargs)`` per rank — with the runtime's own
    :class:`~repro.simmpi.runtime.RankContext` over a recorder, so
    malformed programs raise the runtime's :class:`ValueError`/
    :class:`TypeError`.  Raises :class:`~repro.exceptions.LoweringError`
    for programs that cannot be scheduled statically.
    """
    if nprocs < 1:
        raise ValueError("need at least one rank")
    recorder = _Recorder(nprocs)
    raw_segments: list[list[tuple]] = []  # [rank] -> [(ops, gate_tokens|None)]
    for rank in range(nprocs):
        gen = program(RankContext(recorder, rank), *args, **kwargs)
        if not isinstance(gen, Generator):
            raise TypeError(
                "rank program must be a generator function "
                f"(got {type(gen).__name__})"
            )
        spans: list[tuple] = []
        while True:
            try:
                yielded = next(gen)
            except StopIteration:
                spans.append((recorder.take_ops(), None))
                break
            tokens = as_requests(yielded, (_SendToken, _RecvToken))
            spans.append((recorder.take_ops(), tuple(tokens)))
        raw_segments.append(spans)

    # Stamp send segments and receive segments on the recorded ops.
    for rank, spans in enumerate(raw_segments):
        for index, (ops, _gate) in enumerate(spans):
            for kind, payload in ops:
                if kind in ("send", "recv"):
                    payload.segment = index

    # Static matching: within each (src, dst, tag) class both sides are
    # FIFO (sends by per-pair seq, receives by post order), so the k-th
    # send pairs with the k-th receive — exactly what the runtime's
    # queue scan produces for concrete keys under in-order delivery.
    recv_classes: dict[tuple[int, int, int], list[_RecordedRecv]] = {}
    for rank in range(nprocs):
        for recv in recorder.recvs_by_rank[rank]:
            recv_classes.setdefault((recv.src, rank, recv.tag), []).append(recv)
    send_classes: dict[tuple[int, int, int], list[_RecordedSend]] = {}
    for send in recorder.sends:
        send_classes.setdefault((send.src, send.dst, send.tag), []).append(send)

    recv_of_send: dict[int, _RecordedRecv] = {}
    for key, sends in send_classes.items():
        recvs = recv_classes.pop(key, [])
        src, dst, tag = key
        if len(sends) != len(recvs):
            raise LoweringError(
                f"unmatched traffic {src}->{dst} tag={tag}: "
                f"{len(sends)} send(s) vs {len(recvs)} receive(s) "
                "(the reference runtime would deadlock)"
            )
        for send, recv in zip(sends, recvs):
            recv_of_send[send.mid] = recv
    if recv_classes:
        (src, dst, tag), recvs = next(iter(sorted(recv_classes.items())))
        raise LoweringError(
            f"unmatched traffic {src}->{dst} tag={tag}: "
            f"0 send(s) vs {len(recvs)} receive(s) "
            "(the reference runtime would deadlock)"
        )

    messages = tuple(
        LoweredMessage(
            mid=send.mid,
            src=send.src,
            dst=send.dst,
            tag=send.tag,
            nbytes=send.nbytes,
            seq=send.seq,
            send_segment=send.segment,
            recv_segment=recv_of_send[send.mid].segment,
            local=send.src == send.dst,
        )
        for send in recorder.sends
    )

    # Receives are identified by (rank, index); gates reference messages,
    # so map each receive token back to the message it pairs with.
    mid_of_recv: dict[tuple[int, int], int] = {
        (recv.rank, recv.index): mid for mid, recv in recv_of_send.items()
    }

    def _gate_entry(token) -> tuple[str, int]:
        if isinstance(token, _SendToken):
            return ("send", token.mid)
        return ("recv", mid_of_recv[(token.rank, token.index)])

    segments: list[tuple[Segment, ...]] = []
    for rank, spans in enumerate(raw_segments):
        rank_segments = []
        for index, (ops, gate_tokens) in enumerate(spans):
            baked_ops = []
            for kind, payload in ops:
                if kind == "send":
                    baked_ops.append(("send", payload.mid))
                elif kind == "recv":
                    baked_ops.append(
                        ("recv", mid_of_recv[(payload.rank, payload.index)])
                    )
                else:
                    baked_ops.append(("copy", payload))
            gate = (
                None
                if gate_tokens is None
                else tuple(_gate_entry(t) for t in gate_tokens)
            )
            rank_segments.append(
                Segment(rank=rank, index=index, ops=tuple(baked_ops), gate=gate)
            )
        segments.append(tuple(rank_segments))

    return LoweredProgram(
        nprocs=nprocs, messages=messages, segments=tuple(segments)
    )

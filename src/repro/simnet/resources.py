"""Host-side queues: CPU FIFO service and sender wire admission.

Models the per-message host processing that a kernel network stack pays
when demultiplexing many concurrent inbound streams: requests queue and
are served one at a time.  This is the mechanism behind the paper's δ
parameter (see DESIGN.md §5) — with n-1 simultaneous arrivals the queue
serialises, contributing an affine per-round overhead, while a single
ping-pong message (queue of one) pays only its own service time.

:class:`SenderScheduler` is the send side: the order in which a host
puts its queued messages on the wire.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable

from .engine import Engine

__all__ = ["SerialResource", "SenderScheduler"]


class SerialResource:
    """A FIFO server with deterministic service order.

    Examples
    --------
    >>> eng = Engine()
    >>> cpu = SerialResource(eng, name="host0.cpu")
    >>> done = []
    >>> cpu.request(0.5, lambda: done.append(eng.now))
    >>> cpu.request(0.25, lambda: done.append(eng.now))
    >>> eng.run()
    >>> done
    [0.5, 0.75]
    """

    def __init__(self, engine: Engine, *, name: str = "resource") -> None:
        self._engine = engine
        self._queue: deque[tuple[float, Callable[[], None]]] = deque()
        self._busy = False
        self.name = name
        self.total_busy_time = 0.0
        self.served = 0

    @property
    def queue_length(self) -> int:
        """Number of requests waiting (not counting the one in service)."""
        return len(self._queue)

    @property
    def busy(self) -> bool:
        """Whether a request is currently in service."""
        return self._busy

    def request(self, duration: float, callback: Callable[[], None]) -> None:
        """Enqueue a service request of *duration* seconds.

        *callback* fires when service completes.  Zero-duration requests
        still respect FIFO ordering.
        """
        if duration < 0:
            raise ValueError(f"negative service duration {duration!r}")
        self._queue.append((duration, callback))
        if not self._busy:
            self._serve_next()

    def _serve_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        duration, callback = self._queue.popleft()
        self.total_busy_time += duration
        self.served += 1

        def _finish() -> None:
            callback()
            self._serve_next()

        self._engine.schedule_after(duration, _finish)


class SenderScheduler:
    """Per-host wire admission: pair-FIFO channels plus a concurrency cap.

    Submitted items dispatch (``start(item)``) in FIFO order while fewer
    than *concurrency* are in flight (``None``: no cap), skipping items
    whose destination already has one in flight; per-pair order still
    holds, since only the head item of each pair can be eligible.
    ``release(dst)`` retires the in-flight item to *dst*.  Both
    simulation engines share it, so they dispatch in the same order.
    """

    __slots__ = ("_start", "_limit", "_queue", "_busy_pairs", "_in_flight")

    def __init__(self, start: Callable, concurrency: int | None) -> None:
        self._start = start
        self._limit = concurrency if concurrency is not None else math.inf
        self._queue: deque[tuple] = deque()
        self._busy_pairs: set[int] = set()
        self._in_flight = 0

    def submit(self, dst: int, item) -> None:
        self._queue.append((dst, item))
        self._pump()

    def release(self, dst: int) -> None:
        self._in_flight -= 1
        self._busy_pairs.discard(dst)
        self._pump()

    def _pump(self) -> None:
        if not self._queue:
            return
        blocked: deque[tuple] = deque()
        while self._queue and self._in_flight < self._limit:
            entry = self._queue.popleft()
            dst, item = entry
            if dst in self._busy_pairs:
                blocked.append(entry)
                continue
            self._busy_pairs.add(dst)
            self._in_flight += 1
            self._start(item)
        blocked.extend(self._queue)
        self._queue = blocked

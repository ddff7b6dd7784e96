"""Pluggable executors: *how* cache-missed sweep points run.

An executor consumes :class:`~repro.exec.task.ExecutionTask` batches and
yields :class:`~repro.exec.task.TaskOutcome` objects **as they
complete** (any order; the runner reassembles by index).  Built-ins:

* ``serial``  — in-process, in-order; zero overhead, always safe.
* ``process`` — a **persistent** ``multiprocessing.Pool`` streamed
  through ``imap_unordered`` with batched chunks.  The pool survives
  across ``run()`` calls, so consecutive sweeps on one runner reuse
  warm workers instead of re-forking (the dominant cost of short
  sweeps).  It is recycled automatically when the plugin registries
  change, so forked workers never run with a stale plugin view.
  ``futures`` and ``concurrent-futures`` are aliases of it.

Register additional executors (SLURM, async, …) with
:func:`repro.registry.register_executor`::

    from repro.api import register_executor

    @register_executor("my-grid")
    def make(workers):
        return MyGridExecutor(workers)

Executors only ever see *portable* tasks when crossing process
boundaries — the sweep planner keeps unpicklable profile-recipe tasks
on the serial path (see ``SweepRunner._plan``).
"""

from __future__ import annotations

import atexit
import multiprocessing
from typing import Iterable, Iterator, Sequence

from ..registry import EXECUTORS, register_executor, registry_epoch
from . import task as _task
from .task import ExecutionTask, TaskOutcome

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "get_executor",
]


class Executor:
    """Protocol for execution backends (subclass or duck-type it).

    Attributes
    ----------
    name:
        Registry name, echoed in logs and ``repro-alltoall list``.
    distributed:
        True when ``run`` ships tasks to other processes; the planner
        only fans out registry/scenario-recipe (picklable) tasks to
        distributed executors.
    """

    name = "base"
    distributed = False

    def run(self, tasks: Sequence[ExecutionTask]) -> Iterator[TaskOutcome]:
        """Yield one outcome per task, in completion order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any long-lived resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """In-process, in-order execution (the ``workers=1`` path)."""

    name = "serial"
    distributed = False

    def run(self, tasks: Iterable[ExecutionTask]) -> Iterator[TaskOutcome]:
        for task in tasks:
            # Resolved through the module so tests can intercept the
            # single execution entry point for every executor at once.
            yield _task.run_task(task)


class ProcessExecutor(Executor):
    """Persistent ``multiprocessing.Pool`` streaming ``imap_unordered``.

    The pool is created lazily on first ``run`` and **reused** across
    calls — a runner doing many consecutive ``run_points`` batches pays
    the spin-up cost once (warm start).  It is recycled automatically
    when the plugin registries change (forked workers must never
    resolve a stale registry view), and an ``atexit`` hook — registered
    only while a pool is live, unregistered on :meth:`close` so closed
    executors are not pinned in memory — reaps leftovers at interpreter
    exit.

    Chunked submission amortises IPC: with *k* tasks and *w* workers,
    chunks of ``max(1, k // (4 w))`` keep the pool busy while bounding
    the tail latency of the final chunk.  Results stream back as
    workers finish, so the runner can append to sinks and fill the
    cache while later points are still simulating — memory stays
    bounded by the in-flight window, not the sweep size.
    """

    name = "process"
    distributed = True

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._pool = None
        self._epoch: int | None = None

    @property
    def warm(self) -> bool:
        """Whether a live pool is ready for reuse."""
        return self._pool is not None

    @staticmethod
    def chunksize(n_tasks: int, workers: int) -> int:
        """Batched-streaming chunk size (4 waves per worker)."""
        return max(1, n_tasks // (workers * 4))

    def _ensure_pool(self):
        epoch = registry_epoch()
        if self._pool is not None and epoch != self._epoch:
            # Plugins were (un)registered after the workers started; a
            # stale pool would resolve yesterday's registry view.
            self.close()
        if self._pool is None:
            self._pool = multiprocessing.Pool(self.workers)
            self._epoch = epoch
            atexit.register(self.close)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            atexit.unregister(self.close)

    def run(self, tasks: Sequence[ExecutionTask]) -> Iterator[TaskOutcome]:
        pool = self._ensure_pool()
        yield from pool.imap_unordered(
            _task.run_task, tasks, chunksize=self.chunksize(len(tasks), self.workers)
        )


@register_executor("serial", aliases=("inline", "sync"))
def _make_serial(workers: int = 1) -> SerialExecutor:
    """In-process execution; ``workers`` is accepted for uniformity."""
    return SerialExecutor()


@register_executor(
    "process",
    aliases=("pool", "multiprocessing", "futures", "concurrent-futures"),
)
def _make_process(workers: int = 1) -> ProcessExecutor:
    """Persistent multiprocessing pool with chunked unordered streaming."""
    return ProcessExecutor(workers)


def get_executor(kind: str, workers: int = 1) -> Executor:
    """Executor factory, resolved through the executor registry.

    Unknown kinds raise :class:`~repro.exceptions.UnknownNameError`
    naming the registered executors.
    """
    return EXECUTORS.get(kind)(workers)

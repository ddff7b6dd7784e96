"""Execution subsystem: pluggable backends + streaming result delivery.

The sweep engine used to hard-wire one blocking ``Pool.map`` call with
three copy-pasted execution branches; this package replaces that hot
path with three small, separately-testable pieces:

* :mod:`~repro.exec.task` — :class:`ExecutionTask` (point + cluster
  rebuild recipe) and :func:`run_task`, the never-raising
  failure-isolation boundary every executor funnels through;
* :mod:`~repro.exec.executors` — the :class:`Executor` protocol behind
  the ``@register_executor`` registry, with built-ins ``serial``,
  ``process`` (persistent warm pool + chunked ``imap_unordered``
  streaming; ``futures`` is an alias);
* :mod:`~repro.exec.sinks` — streaming :class:`ResultSink` targets
  (incremental CSV/JSONL append, callbacks) fed one row per point as
  it lands, keeping arbitrarily large sweeps in bounded memory.

Results are bit-identical across executors: every point derives its
random streams by name from its own coordinates (see
:mod:`repro.sweeps`), so ordering, worker count, and backend choice
can never change a sample — only how fast it arrives.
"""

from .executors import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    get_executor,
)
from .sinks import (
    ROW_FIELDS,
    CallbackSink,
    CsvSink,
    JsonlSink,
    ResultSink,
    sink_for,
)
from .task import ExecutionTask, TaskOutcome, run_task

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "get_executor",
    "ExecutionTask",
    "TaskOutcome",
    "run_task",
    "ResultSink",
    "CsvSink",
    "JsonlSink",
    "CallbackSink",
    "sink_for",
    "ROW_FIELDS",
]

"""Outside-in layer tracing for the benchmark.

Nothing under ``src/`` knows about this module.  :func:`instrument`
replaces public functions and methods of the ``repro`` package at import
time with thin wrappers that

* record a span (name, start, end, parent span, run id) when the tracer
  is enabled, and
* hand each call's result to an optional observer, enabled or not, so
  the output checks see every engine result and sample.

A function bound by name in a caller module (``from .x import f``) is
replaced in every loaded ``repro`` module that holds it, so the caller's
attribute points at the wrapper too.  The two ``max_min_allocation``
call sites are wrapped separately, so the vector and fluid solves get
their own span names.
"""

from __future__ import annotations

import functools
import sys
import time

#: (span name, module, attribute) of the module-level functions timed.
FUNCTIONS = (
    ("experiments", "repro.experiments.registry", "run_experiment"),
    ("cache.key", "repro.sweeps.cache", "point_key"),
    ("cache.key", "repro.sweeps.cache", "profile_fingerprint"),
    ("exec", "repro.exec.task", "run_task"),
    ("measure.alltoall", "repro.measure.alltoall", "measure_alltoall"),
    ("measure.pingpong", "repro.measure.pingpong", "measure_pingpong"),
    ("lowering", "repro.simmpi.lowering", "lower_program"),
    ("fit", "repro.core.signature", "fit_signature"),
    ("models", "repro.models.selection", "compare_models"),
)

#: (span name, module, class, method) of the methods timed.
METHODS = (
    ("sweeps", "repro.sweeps.runner", "SweepRunner", "run_points"),
    ("cache.get", "repro.sweeps.cache", "ResultCache", "get"),
    ("cache.put", "repro.sweeps.cache", "ResultCache", "put"),
    ("vector.init", "repro.simnet.vector", "VectorSimulator", "__init__"),
    ("vector.run", "repro.simnet.vector", "VectorSimulator", "run"),
    ("topology.route", "repro.simnet.topology", "Topology", "route"),
    ("kernel", "repro.simnet.engine", "Engine", "run"),
    ("loss", "repro.simnet.loss", "LossModel", "flow_hazards"),
    ("fluid.run", "repro.simmpi.runtime", "Runtime", "run"),
)

#: Call sites that bind the solver by name: one span name per caller.
SOLVERS = (
    ("solve", "repro.simnet.vector"),
    ("fluid.solve", "repro.simnet.fluid"),
)


class Tracer:
    """In-memory span recorder; spans of one worker share ``run_id``.

    A span is ``(span_id, name, start, end, parent_id)`` with times from
    :func:`time.perf_counter`.  Everything runs on one thread, so the
    open spans form a stack and a span's parent is the one below it.
    """

    def __init__(self, run_id: str, *, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn, observe=None):
        """*fn* wrapped: a span when enabled, ``observe(result, args, kwargs)``
        always."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                result = fn(*args, **kwargs)
            else:
                span_id = self._next_id
                self._next_id += 1
                parent = self._stack[-1] if self._stack else None
                self._stack.append(span_id)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                    self.spans.append((span_id, name, start, end, parent))
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return wrapper

    def layer_times(self, since: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds and call count.

        Self time is a span's duration minus its direct children's
        durations (children never overlap on one thread).  Only spans
        from index *since* on are counted.
        """
        spans = self.spans[since:]
        child_time: dict[int, float] = {}
        for _, _, start, end, parent in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        out: dict[str, dict[str, float]] = {}
        for span_id, name, start, end, _ in spans:
            row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            row["s"] += end - start
            row["self_s"] += end - start - child_time.get(span_id, 0.0)
            row["calls"] += 1
        return out

    def root_time(self, since: int = 0) -> float:
        """Seconds covered by spans that have no parent."""
        return sum(end - start for _, _, start, end, parent in self.spans[since:]
                   if parent is None)

    def chrome_events(self) -> list[dict]:
        """Spans as Chrome trace-event ``X`` records (Perfetto opens them)."""
        return [
            {
                "name": name, "ph": "X", "pid": 0, "tid": 0,
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "args": {"span": span_id, "parent": parent,
                         "run_id": self.run_id},
            }
            for span_id, name, start, end, parent in self.spans
        ]


def _replace_everywhere(original, wrapper) -> None:
    """Point every loaded ``repro`` module attribute holding *original*
    at *wrapper*."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def instrument(tracer: Tracer, observers: dict | None = None) -> None:
    """Install the wrappers; *observers* maps span names to callbacks.

    Every module that binds a wrapped function by name is imported
    first, because a module imported afterwards would keep the original.
    """
    import importlib

    import repro.engines  # noqa: F401  (binds lower_program)
    import repro.experiments.registry  # noqa: F401  (imports every experiment)

    observers = observers or {}
    for name, mod_name, attr in FUNCTIONS:
        module = importlib.import_module(mod_name)
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(name, original, observers.get(name)))
    for name, mod_name, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        original = getattr(cls, meth)
        setattr(cls, meth, tracer.wrap(name, original, observers.get(name)))
    for name, mod_name in SOLVERS:
        module = importlib.import_module(mod_name)
        module.max_min_allocation = tracer.wrap(name, module.max_min_allocation)

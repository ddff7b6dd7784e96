"""Sweep execution on pluggable backends, cache-first, streaming.

The runner resolves every point against the :class:`ResultCache` first,
plans the remaining (cache-miss) points as
:class:`~repro.exec.ExecutionTask` payloads, and hands them to an
**executor** from the :data:`repro.registry.EXECUTORS` registry —
``serial`` (in-process), ``process`` (persistent warm worker pool with
chunked ``imap_unordered`` streaming, the default when ``workers > 1``).
Simulation order never affects results: each point's
random streams are derived *by name* from its own coordinates (see the
package docstring), so a point simulated by worker 3 of an 8-way pool
is bit-identical to the same point simulated serially — and so are the
cache keys.

Three cluster rebuild recipes mirror the three kinds of call site
(plain registry names, scenario specs, ad-hoc profile objects); the
planner picks per batch, falling back to in-process execution whenever
a fabric cannot be rebuilt faithfully in a worker (non-registry
profiles, spawn-started platforms with user plugins — see
``_parallel_safe``).

Failures are isolated per point: a worker exception becomes an error
:class:`PointResult` (optionally retried ``retries`` times) instead of
killing the sweep; with the default ``on_error="raise"`` the original
exception is re-raised *after* every other point has resolved — and
been cached/streamed — so no completed work is ever lost.

Results stream as they land: pass ``sinks`` (incremental CSV/JSONL
appenders from :mod:`repro.exec.sinks`) and/or a ``progress`` callback
to ``run``/``run_points`` and arbitrarily large sweeps run in bounded
memory.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..analysis.io import write_csv
from ..clusters.profiles import ClusterProfile, get_cluster
from ..core.signature import AlltoallSample
from ..exec.executors import Executor, SerialExecutor
from ..exec.sinks import ResultSink, row_fields
from ..simnet.stats import stats_enabled
from ..exec.task import ExecutionTask
from ..exceptions import ExecutionError, UnknownNameError
from ..registry import CLUSTERS, EXECUTORS
from ..scenario import ScenarioSpec
from .cache import ResultCache, point_key, profile_fingerprint
from .spec import SweepPoint, SweepSpec

__all__ = [
    "PointResult",
    "SweepResult",
    "SweepRunner",
    "configure_default_runner",
    "default_runner",
]

#: Shared fallback for batches that must run in-process (unpicklable
#: profile recipes, single misses, spawn-unsafe plugins).  Stateless.
_INLINE = SerialExecutor()


class _OrderedEmitter:
    """Stream rows to sinks in expansion order despite unordered landings.

    Executors complete points in arbitrary order; files written in that
    order would differ byte-for-byte between worker counts.  This
    buffer flushes the contiguous prefix the moment it is complete —
    the serial path therefore streams with zero buffering — and
    :meth:`drain` writes any landed-but-gapped rows (index order) when
    a sweep ends early, so interruption never loses a completed point.
    """

    def __init__(self, total: int, sinks) -> None:
        self.total = total
        self.sinks = sinks
        self._pending: dict[int, PointResult] = {}
        self._next = 0

    def _write(self, result: PointResult) -> None:
        row = result.to_row()
        for sink in self.sinks:
            sink.write(row)

    def land(self, index: int, result: PointResult) -> None:
        if not self.sinks:
            return
        self._pending[index] = result
        while self._next in self._pending:
            self._write(self._pending.pop(self._next))
            self._next += 1

    def drain(self) -> None:
        for index in sorted(self._pending):
            self._write(self._pending.pop(index))


@dataclass(frozen=True)
class PointResult:
    """One resolved point: where its sample came from — or why it failed."""

    point: SweepPoint
    sample: AlltoallSample | None
    cached: bool
    error: str | None = None
    error_type: str | None = None
    attempts: int = 1
    #: In-worker wall seconds of the final attempt (0 for cache hits).
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_row(self) -> dict[str, object]:
        """Flat tabular view of this point (:func:`row_fields` schema).

        The base columns are fixed; with ``REPRO_SIM_STATS`` set, the
        engine name and simulation-effort counters are appended (empty
        for cache hits — cached samples carry no counters).
        """
        row: dict[str, object] = {
            "cluster": self.point.cluster,
            "algorithm": self.point.algorithm,
            "pattern": (
                "uniform" if self.point.pattern is None
                else self.point.pattern.key()
            ),
            "placement": (
                "identity" if self.point.placement is None
                else self.point.placement.key()
            ),
            "n_processes": self.point.n_processes,
            "msg_size": self.point.msg_size,
            "seed": self.point.seed,
            "reps": self.point.reps,
            "mean_time": None if self.sample is None else self.sample.mean_time,
            "std_time": None if self.sample is None else self.sample.std_time,
            "cached": int(self.cached),
            "error": self.error or "",
        }
        if stats_enabled():
            stats = getattr(self.sample, "sim_stats", None)
            row["engine"] = self.point.engine
            row["sim_resolves"] = "" if stats is None else stats.resolves
            row["sim_epochs"] = "" if stats is None else stats.epochs
            row["sim_events"] = "" if stats is None else stats.events
            row["sim_losses"] = "" if stats is None else stats.losses
            row["sim_stalls"] = "" if stats is None else stats.stalls
            row["sim_solve_reuses"] = (
                "" if stats is None else stats.solve_reuses
            )
        return row


@dataclass
class SweepResult:
    """All resolved points of one sweep, in spec expansion order."""

    results: list[PointResult]
    elapsed: float
    workers: int
    #: Wall time of the execution (cache-miss) phase alone; the gap to
    #: ``elapsed`` is cache probing, keying and streaming.
    exec_elapsed: float = 0.0
    spec: SweepSpec | None = field(default=None, repr=False)
    #: Per-cluster cost-model comparisons (populated by :meth:`SweepRunner.run`
    #: when the spec carries a ``models`` hook, or on demand by
    #: :meth:`compare_models`).
    comparisons: dict | None = field(default=None, repr=False)

    @property
    def samples(self) -> list[AlltoallSample]:
        """The samples alone (expansion order; ``None`` for failed points)."""
        return [r.sample for r in self.results]

    @property
    def n_points(self) -> int:
        return len(self.results)

    @property
    def n_cached(self) -> int:
        """Points served from the cache."""
        return sum(1 for r in self.results if r.cached)

    @property
    def n_simulated(self) -> int:
        """Points that ran a fresh simulation (successfully)."""
        return sum(1 for r in self.results if not r.cached and r.ok)

    @property
    def n_failed(self) -> int:
        """Points whose simulation errored (after any retries)."""
        return sum(1 for r in self.results if not r.ok)

    @property
    def failures(self) -> list[PointResult]:
        """The failed points (expansion order)."""
        return [r for r in self.results if not r.ok]

    @property
    def hit_rate(self) -> float:
        """Fraction of points served from the cache (0 on empty sweeps)."""
        return self.n_cached / self.n_points if self.n_points else 0.0

    @property
    def sim_time(self) -> float:
        """Summed in-worker simulation seconds across simulated points."""
        return sum(r.elapsed for r in self.results if not r.cached and r.ok)

    def profile(self, *, slowest: int = 3):
        """Timing/cache profile of this sweep (:class:`repro.obs.SweepProfile`)."""
        from ..obs import SweepProfile

        return SweepProfile.from_result(self, slowest=slowest)

    def to_rows(self) -> tuple[list[str], list[dict[str, object]]]:
        """Flat tabular view (CSV/JSONL-ready)."""
        return row_fields(), [r.to_row() for r in self.results]

    def save_csv(self, path: str | Path) -> Path:
        """Persist rows as CSV (parents created)."""
        fieldnames, rows = self.to_rows()
        return write_csv(path, fieldnames, rows)

    def save_jsonl(self, path: str | Path) -> Path:
        """Persist rows as JSON lines (parents created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        _, rows = self.to_rows()
        with path.open("w") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
        return path

    def compare_models(
        self, models=None, *, k: int = 4, seed: int | None = None
    ) -> dict:
        """Fit cost models per cluster on this sweep's samples, ranked.

        *models* defaults to the spec's ``models`` hook, else the full
        built-in zoo; *seed* (for the ping-pong context measurement)
        defaults to the spec's smallest seed, so calling this after the
        fact reproduces exactly what ``run()`` attached.  The
        comparisons are cached on :attr:`comparisons` and returned
        (``{cluster: ModelComparison}``).
        """
        from ..models.builtins import DEFAULT_MODELS
        from ..models.selection import compare_for_sweep

        if models is None:
            models = (
                self.spec.models if self.spec is not None and self.spec.models
                else DEFAULT_MODELS
            )
        if seed is None:
            seed = min(self.spec.seeds) if self.spec is not None else 0
        self.comparisons = compare_for_sweep(self, models, k=k, seed=seed)
        return self.comparisons


class SweepRunner:
    """Execute sweep points on a pluggable executor, cache-first.

    Parameters
    ----------
    workers:
        Worker count handed to the executor factory; ``1`` keeps
        everything in-process.
    cache:
        Result cache, or ``None`` to always simulate.
    executor:
        Executor registry name (``serial`` / ``process`` or a
        user-registered one), or a live
        :class:`~repro.exec.Executor` instance.  Default: ``process``
        when ``workers > 1``, else ``serial``.  The instance is built
        lazily and **kept** — consecutive ``run_points`` calls on one
        runner reuse a warm worker pool.
    retries:
        How many times a failed point is re-run before its error is
        recorded (transient worker failures; deterministic simulation
        errors fail identically every attempt).
    on_error:
        ``"raise"`` (default): after the whole batch resolves, re-raise
        the first failure (completed points are already cached and
        streamed).  ``"keep"``: record failures as error
        :class:`PointResult` rows and return normally.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        cache: ResultCache | None = None,
        executor: str | Executor | None = None,
        retries: int = 0,
        on_error: str = "raise",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if on_error not in ("raise", "keep"):
            raise ValueError(f"on_error must be 'raise' or 'keep', got {on_error!r}")
        self.workers = workers
        self.cache = cache
        self.retries = retries
        self.on_error = on_error
        if executor is None:
            executor = "process" if workers > 1 else "serial"
        if isinstance(executor, str):
            # Resolve eagerly: unknown names fail at construction with
            # the known-executors message, not mid-sweep.
            self.executor_name = EXECUTORS.canonical(executor)
            self._executor: Executor | None = None
        else:
            self.executor_name = getattr(executor, "name", type(executor).__name__)
            self._executor = executor

    @property
    def executor(self) -> Executor:
        """The live executor (built on first use, then reused warm)."""
        if self._executor is None:
            self._executor = EXECUTORS.get(self.executor_name)(self.workers)
        return self._executor

    def close(self) -> None:
        """Shut down the executor (its worker pool, if any)."""
        if self._executor is not None:
            self._executor.close()

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- public API -----------------------------------------------------

    def run(
        self,
        spec: SweepSpec,
        *,
        sinks: tuple[ResultSink, ...] = (),
        progress=None,
    ) -> SweepResult:
        """Resolve every point of *spec* (cache hits + fresh simulations).

        When the spec carries a ``models`` post-processing hook, the
        registered cost models are fitted per cluster on the finished
        sweep's samples and the ranked comparisons attached to
        :attr:`SweepResult.comparisons`.
        """
        result = self.run_points(spec.points(), sinks=sinks, progress=progress)
        result.spec = spec
        if spec.models:
            result.compare_models(spec.models)
        return result

    def run_points(
        self,
        points: list[SweepPoint],
        *,
        profile: ClusterProfile | None = None,
        scenario: ScenarioSpec | None = None,
        sinks: tuple[ResultSink, ...] = (),
        progress=None,
    ) -> SweepResult:
        """Resolve an explicit point list.

        With *profile* set, every point is simulated on that object (its
        ``cluster`` field is used only for cache keying/labels); without
        it, cluster names are resolved through the registry — unknown
        names fail fast here with the known-names message, never inside
        a worker.

        With *scenario* set (a :class:`~repro.scenario.ScenarioSpec`),
        the profile defaults to ``scenario.build_profile()``, cache keys
        additionally hash the scenario definition (so two different
        scenarios can never collide), and misses fan out to worker
        processes by shipping the spec dict instead of the profile.

        *sinks* receive one flat row per point, each write flushed, in
        **expansion order**: the contiguous prefix streams out as soon
        as its points land (so the files are byte-identical across
        executors and worker counts), and any landed-but-gapped rows
        are drained on close — an interrupted sweep keeps every
        completed row.  *progress* is called as
        ``progress(done, total, point_result)`` in live completion
        order.
        """
        start = time.perf_counter()
        if profile is None and scenario is not None:
            profile = scenario.build_profile()
        if profile is None and scenario is None:
            unknown = sorted({p.cluster for p in points if p.cluster not in CLUSTERS})
            if unknown:
                known = ", ".join(CLUSTERS.names())
                raise UnknownNameError(f"unknown clusters {unknown}; known: {known}")
        scenario_payload = (
            scenario.cache_payload() if scenario is not None else None
        )
        samples: dict[int, AlltoallSample] = {}
        cached: set[int] = set()
        keys: list[str] = []
        if self.cache is not None:
            # Each point is keyed against the fabric it actually
            # simulates: the profile fingerprint probed at the point's
            # own process count (memoised per (cluster, n)).
            fingerprints: dict[tuple[str, int], dict[str, object]] = {}

            def fingerprint_for(point: SweepPoint) -> dict[str, object]:
                memo = (point.cluster, point.n_processes)
                if memo not in fingerprints:
                    cluster = (
                        profile if profile is not None else get_cluster(point.cluster)
                    )
                    fingerprints[memo] = profile_fingerprint(
                        cluster, probe_sizes=(point.n_processes,)
                    )
                return fingerprints[memo]

            keys = [
                point_key(p, fingerprint_for(p), scenario_payload)
                for p in points
            ]
            for idx, key in enumerate(keys):
                hit = self.cache.get(key)
                if hit is not None:
                    samples[idx] = hit
                    cached.add(idx)
        misses = [idx for idx in range(len(points)) if idx not in samples]

        total = len(points)
        resolved: dict[int, PointResult] = {}
        opened: list[ResultSink] = []
        emitter = _OrderedEmitter(total, opened)
        try:
            for sink in sinks:
                sink.open(row_fields())
                opened.append(sink)
            for idx in sorted(cached):
                result = PointResult(
                    point=points[idx], sample=samples[idx], cached=True
                )
                resolved[idx] = result
                emitter.land(idx, result)
                if progress is not None:
                    progress(len(resolved), total, result)
            exec_start = time.perf_counter()
            for outcome in self._execute(misses, points, profile, scenario):
                idx = outcome.index
                if outcome.ok and self.cache is not None:
                    self.cache.put(keys[idx], points[idx], outcome.sample)
                result = PointResult(
                    point=points[idx],
                    sample=outcome.sample,
                    cached=False,
                    error=outcome.error,
                    error_type=outcome.error_type,
                    attempts=outcome.attempts,
                    elapsed=outcome.elapsed,
                )
                resolved[idx] = result
                emitter.land(idx, result)
                if progress is not None:
                    progress(len(resolved), total, result)
            exec_elapsed = time.perf_counter() - exec_start if misses else 0.0
        finally:
            # Drain landed-but-gapped rows (interrupted runs keep every
            # completed point), then release every successfully-opened
            # sink — a sink whose open() raised leaks nothing.
            emitter.drain()
            for sink in opened:
                sink.close()

        results = [resolved[idx] for idx in range(total)]
        failures = [r for r in results if not r.ok]
        if failures and self.on_error == "raise":
            raise self._rehydrate(failures[0])
        return SweepResult(
            results=results,
            elapsed=time.perf_counter() - start,
            workers=self.workers,
            exec_elapsed=exec_elapsed,
        )

    # -- streaming ------------------------------------------------------

    @staticmethod
    def _rehydrate(failure: PointResult) -> Exception:
        """Rebuild the exception a failed point's worker reported.

        Errors cross process boundaries as ``(message, type name)``
        strings; the type is looked up in :mod:`repro.exceptions`, then
        in builtins, else wrapped as
        :class:`~repro.exceptions.ExecutionError` — so call sites keep
        catching :class:`MeasurementError` & co. exactly as before the
        isolation boundary existed.
        """
        import builtins

        from .. import exceptions as _exceptions

        name = failure.error_type or ""
        cls = getattr(_exceptions, name, None) or getattr(builtins, name, None)
        if not (isinstance(cls, type) and issubclass(cls, Exception)):
            cls = ExecutionError
        try:
            return cls(failure.error)
        except Exception:
            # Some exception types need multiple constructor arguments
            # (e.g. UnicodeDecodeError); never let the re-raise path
            # itself blow up and mask the point's real failure.
            return ExecutionError(f"{name}: {failure.error}")

    # -- execution ------------------------------------------------------

    @staticmethod
    def _spawn_safe(points, cluster_names) -> bool:
        """Whether fresh worker processes can resolve the referenced plugins.

        ``fork`` workers inherit the parent's registries, so anything
        resolvable here is resolvable there; ``spawn``/``forkserver``
        workers start from a bare ``import repro`` and only see built-in
        registrations, so points referencing user-registered clusters or
        algorithms must stay in-process.
        """
        if multiprocessing.get_start_method() == "fork":
            return True
        from ..registry import ALGORITHMS, PATTERNS, PLACEMENTS

        objects = [CLUSTERS.get(n) for n in cluster_names]
        objects += [ALGORITHMS.get(p.algorithm) for p in points]
        objects += [
            PATTERNS.get(p.pattern.name)
            for p in points
            if p.pattern is not None
        ]
        objects += [
            PLACEMENTS.get(p.placement.name)
            for p in points
            if p.placement is not None and not p.placement.is_explicit
        ]
        return all(
            (getattr(obj, "__module__", "") or "").split(".")[0] == "repro"
            for obj in objects
        )

    def _parallel_safe(
        self, profile: ClusterProfile | None, points: list[SweepPoint]
    ) -> bool:
        """Whether misses may run in worker processes (registry-resolvable)."""
        names = {p.cluster for p in points} if profile is None else {profile.name}
        if any(name not in CLUSTERS for name in names):
            return False
        if not self._spawn_safe(points, names):
            return False
        if profile is None:
            return True
        if CLUSTERS.canonical(profile.name) != profile.name:
            # The name resolves through an alias to a different profile;
            # rebuilding by name would silently swap fabrics.
            return False
        # A profile object is safe to re-build by name only if it is
        # indistinguishable from the registry one *at every process
        # count actually being swept* (topology closures cannot be
        # hashed, so they are compared through probes at those sizes).
        sizes = tuple(sorted({p.n_processes for p in points}))
        return profile_fingerprint(
            get_cluster(profile.name), probe_sizes=sizes
        ) == profile_fingerprint(profile, probe_sizes=sizes)

    @staticmethod
    def _scenario_parallel_safe(scenario: ScenarioSpec) -> bool:
        """Whether workers can rebuild *scenario* from its spec dict.

        ``fork`` workers inherit the parent's registries, so any
        scenario is safe; ``spawn``/``forkserver`` workers start from a
        bare ``import repro`` and only see built-in registrations —
        scenarios referencing user plugins fall back to in-process
        execution there instead of crashing mid-sweep.
        """
        if multiprocessing.get_start_method() == "fork":
            return True
        return scenario.uses_only_builtin_plugins()

    def _plan(
        self,
        misses: list[int],
        points: list[SweepPoint],
        profile: ClusterProfile | None,
        scenario: ScenarioSpec | None,
    ) -> tuple[list[ExecutionTask], bool]:
        """Choose the rebuild recipe for a miss batch.

        Returns ``(tasks, fan_out)``; with ``fan_out`` false the batch
        runs on the in-process serial fallback regardless of the
        configured executor (unpicklable profiles, single misses,
        plugins a fresh worker could not resolve).
        """
        fan_out = (
            self.workers > 1
            and len(misses) > 1
            and getattr(self.executor, "distributed", False)
        )
        if scenario is not None:
            if fan_out and self._scenario_parallel_safe(scenario):
                # Scenario specs are picklable even when their profiles
                # are not: workers rebuild the profile from the dict.
                payload = scenario.to_dict()
                return (
                    [ExecutionTask(i, points[i], scenario=payload) for i in misses],
                    True,
                )
            return (
                [ExecutionTask(i, points[i], profile=profile) for i in misses],
                False,
            )
        if fan_out and self._parallel_safe(profile, [points[i] for i in misses]):
            # Registry-resolvable (by construction when profile is set:
            # it probed identical to the registry entry): workers
            # rebuild clusters by name.
            return [ExecutionTask(i, points[i]) for i in misses], True
        if profile is not None:
            return (
                [ExecutionTask(i, points[i], profile=profile) for i in misses],
                False,
            )
        return [ExecutionTask(i, points[i]) for i in misses], False

    def _execute(
        self,
        misses: list[int],
        points: list[SweepPoint],
        profile: ClusterProfile | None,
        scenario: ScenarioSpec | None = None,
    ):
        """Yield a final :class:`TaskOutcome` per miss (completion order)."""
        if not misses:
            return
        tasks, fan_out = self._plan(misses, points, profile, scenario)
        executor = self.executor if fan_out else _INLINE
        if fan_out:
            # Worker-side metric deltas ride back on the outcomes; fold
            # them into this process's registry.  In-process execution
            # already incremented it directly — merging there would
            # double-count, so the merge is fan-out-only.
            from ..obs.metrics import REGISTRY

            for outcome in self._with_retries(executor, tasks):
                REGISTRY.merge(outcome.metrics)
                yield outcome
        else:
            yield from self._with_retries(executor, tasks)

    def _with_retries(self, executor: Executor, tasks: list[ExecutionTask]):
        """Run *tasks*, re-submitting failures up to ``retries`` times."""
        by_index = {task.index: task for task in tasks}
        pending = tasks
        for attempt in range(1, self.retries + 2):
            last = attempt == self.retries + 1
            retry: list[ExecutionTask] = []
            for outcome in executor.run(pending):
                outcome = dataclasses.replace(outcome, attempts=attempt)
                if outcome.ok or last:
                    yield outcome
                else:
                    retry.append(by_index[outcome.index])
            if not retry:
                return
            pending = retry


# ----------------------------------------------------------------------
# Process-wide default runner (what library call sites route through).
# ----------------------------------------------------------------------

_default_runner: SweepRunner | None = None


def _env_int(name: str, default: int) -> int:
    """Parse a positive-integer env knob with a friendly error."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be an integer >= 1, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {raw!r}")
    return value


def configure_default_runner(
    *,
    workers: int | None = None,
    cache_dir: str | Path | None = None,
    enable_cache: bool | None = None,
    executor: str | Executor | None = None,
    retries: int | None = None,
) -> SweepRunner:
    """(Re)build the process-wide runner used by library sweep helpers.

    With no arguments, configuration comes from the environment:
    ``REPRO_SWEEP_WORKERS`` (default 1), ``REPRO_SWEEP_EXECUTOR``
    (an executor registry name; default ``process``/``serial`` by
    worker count) and ``REPRO_SWEEP_CACHE`` (a directory; unset
    disables caching).  Malformed values raise immediately with the
    offending variable named, instead of surfacing as a bare
    ``ValueError``/``KeyError`` at the first sweep.

    Replacing the runner closes the previous one (shutting down its
    warm worker pool, if any).
    """
    global _default_runner
    if workers is None:
        workers = _env_int("REPRO_SWEEP_WORKERS", 1)
    if executor is None:
        raw = os.environ.get("REPRO_SWEEP_EXECUTOR")
        if raw is not None and raw.strip():
            if raw not in EXECUTORS:
                known = ", ".join(EXECUTORS.names())
                raise UnknownNameError(
                    f"REPRO_SWEEP_EXECUTOR: unknown executor {raw!r}; known: {known}"
                )
            executor = raw
    if enable_cache is None:
        enable_cache = cache_dir is not None or bool(os.environ.get("REPRO_SWEEP_CACHE"))
    cache = ResultCache(cache_dir) if enable_cache else None
    if _default_runner is not None:
        _default_runner.close()
    _default_runner = SweepRunner(
        workers=workers,
        cache=cache,
        executor=executor,
        retries=retries if retries is not None else 0,
    )
    return _default_runner


def default_runner() -> SweepRunner:
    """The process-wide runner (built from the environment on first use)."""
    global _default_runner
    if _default_runner is None:
        _default_runner = configure_default_runner()
    return _default_runner

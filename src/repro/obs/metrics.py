"""Process-safe metrics: labeled counters, gauges and histograms.

The simulator self-measures — every engine run, cache probe and
executed task bumps cheap in-process counters — and this module is the
ledger those numbers live in.  There is no shared memory and no lock:
**process safety comes from the snapshot/merge protocol** instead.
Each process owns its private :class:`MetricsRegistry`; a worker
serialises its contribution with :meth:`MetricsRegistry.snapshot` (a
plain JSON-able dict that pickles across any executor), the delta of
one unit of work is :func:`diff_snapshots`, and the parent folds worker
deltas back in with :meth:`MetricsRegistry.merge`.  The sweep engine
wires exactly this: :func:`repro.exec.task.run_task` attaches its delta
to the :class:`~repro.exec.task.TaskOutcome`, and the runner merges it
when (and only when) the outcome crossed a process boundary — so
serial and process executors land the same totals.

Three metric kinds:

* :class:`Counter` — monotonically increasing float; merged by sum.
* :class:`Gauge` — last-written value; merged by overwrite.
* :class:`Histogram` — fixed-bucket value distribution (bucket counts
  plus sum/count); merged element-wise.

Labels are free-form keyword arguments (``inc(3, engine="vector")``);
each label combination is an independent series.  Collection is always
on — an increment is a dict update, far below simulation cost — and the
registry never touches cache keys, row schemas or RNG streams.
"""

from __future__ import annotations

import bisect
from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "diff_snapshots",
    "merge_snapshots",
    "record_sim_stats",
]

#: Default histogram bucket upper bounds (seconds-flavoured; callers
#: measuring other units pass their own).
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0, 60.0, 300.0,
)


def _label_key(labels: dict[str, object]) -> str:
    """Canonical series key: ``"a=1,b=x"`` (sorted by label name)."""
    if not labels:
        return ""
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


class _Metric:
    """Shared name/help/series plumbing of all three kinds."""

    kind = "abstract"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: dict[str, object] = {}

    @property
    def series(self) -> dict[str, object]:
        """Live label-key → value view (do not mutate)."""
        return self._series

    def value(self, **labels) -> object:
        """The series value for a label combination (None if unseen)."""
        return self._series.get(_label_key(labels))

    def _snapshot_values(self) -> dict[str, object]:
        return dict(self._series)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r}, series={len(self._series)})"


class Counter(_Metric):
    """Monotonically increasing value; merged across processes by sum."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount


class Gauge(_Metric):
    """Last-written value (queue depth, worker count); merge overwrites."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._series[_label_key(labels)] = float(value)


class Histogram(_Metric):
    """Fixed-bucket distribution: per-bucket counts plus sum and count.

    A series value is ``{"counts": [...], "sum": s, "count": n}`` where
    ``counts`` has one cell per bucket bound plus a final overflow cell.
    """

    kind = "histogram"

    def __init__(
        self, name: str, help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError(f"histogram {self.name}: needs at least one bucket")

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        cell = self._series.get(key)
        if cell is None:
            cell = {
                "counts": [0] * (len(self.buckets) + 1),
                "sum": 0.0,
                "count": 0,
            }
            self._series[key] = cell
        cell["counts"][bisect.bisect_left(self.buckets, value)] += 1
        cell["sum"] += float(value)
        cell["count"] += 1

    def _snapshot_values(self) -> dict[str, object]:
        return {
            key: {
                "counts": list(cell["counts"]),
                "sum": cell["sum"],
                "count": cell["count"],
            }
            for key, cell in self._series.items()
        }


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


class MetricsRegistry:
    """One process's metrics, keyed by dotted name.

    ``counter``/``gauge``/``histogram`` are get-or-create and
    idempotent; asking for an existing name with a different kind is a
    programming error and raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    # -- registration ---------------------------------------------------

    def _get(self, cls, name: str, help: str, **kwargs) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    # -- introspection --------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> _Metric | None:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    # -- snapshot / merge protocol --------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """JSON-able capture of every series (picklable, order-stable)."""
        out: dict[str, dict] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            entry: dict[str, object] = {
                "kind": metric.kind,
                "values": metric._snapshot_values(),
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
            out[name] = entry
        return out

    def merge(self, snapshot: dict[str, dict] | None) -> None:
        """Fold a snapshot (typically a worker delta) into this registry.

        Counters and histograms add; gauges overwrite (the snapshot is
        the fresher observation).  Metrics unseen here are created with
        the snapshot's kind.
        """
        if not snapshot:
            return
        for name, entry in snapshot.items():
            kind = entry.get("kind")
            if kind not in _KINDS:
                raise ValueError(f"snapshot metric {name!r}: unknown kind {kind!r}")
            if kind == "histogram":
                metric = self.histogram(
                    name, buckets=entry.get("buckets", DEFAULT_BUCKETS)
                )
            elif kind == "gauge":
                metric = self.gauge(name)
            else:
                metric = self.counter(name)
            for key, value in entry.get("values", {}).items():
                if kind == "counter":
                    metric._series[key] = metric._series.get(key, 0.0) + value
                elif kind == "gauge":
                    metric._series[key] = value
                else:
                    cell = metric._series.get(key)
                    if cell is None:
                        metric._series[key] = {
                            "counts": list(value["counts"]),
                            "sum": value["sum"],
                            "count": value["count"],
                        }
                    else:
                        if len(cell["counts"]) != len(value["counts"]):
                            raise ValueError(
                                f"histogram {name!r}: bucket shape mismatch"
                            )
                        cell["counts"] = [
                            a + b for a, b in zip(cell["counts"], value["counts"])
                        ]
                        cell["sum"] += value["sum"]
                        cell["count"] += value["count"]

    def reset(self) -> None:
        """Drop every metric (tests and fresh-run isolation)."""
        self._metrics.clear()


def merge_snapshots(*snapshots: dict | None) -> dict[str, dict]:
    """Combine snapshots without touching any live registry."""
    scratch = MetricsRegistry()
    for snap in snapshots:
        scratch.merge(snap)
    return scratch.snapshot()


def diff_snapshots(
    before: dict[str, dict] | None, after: dict[str, dict] | None
) -> dict[str, dict]:
    """What happened between two snapshots of one registry.

    Counters and histograms subtract (all-zero series are dropped, so
    the delta of an idle stretch is ``{}``); gauges pass through from
    *after* (a gauge is a reading, not an accumulation).
    """
    before = before or {}
    out: dict[str, dict] = {}
    for name, entry in (after or {}).items():
        kind = entry["kind"]
        prior = before.get(name, {}).get("values", {})
        values: dict[str, object] = {}
        for key, value in entry.get("values", {}).items():
            if kind == "counter":
                delta = value - prior.get(key, 0.0)
                if delta:
                    values[key] = delta
            elif kind == "gauge":
                values[key] = value
            else:
                prev = prior.get(key)
                if prev is None:
                    cell = {
                        "counts": list(value["counts"]),
                        "sum": value["sum"],
                        "count": value["count"],
                    }
                else:
                    cell = {
                        "counts": [
                            a - b
                            for a, b in zip(value["counts"], prev["counts"])
                        ],
                        "sum": value["sum"] - prev["sum"],
                        "count": value["count"] - prev["count"],
                    }
                if cell["count"]:
                    values[key] = cell
        if values:
            out[name] = {
                "kind": kind,
                "values": values,
                **(
                    {"buckets": entry["buckets"]}
                    if "buckets" in entry else {}
                ),
            }
    return out


#: The process-wide registry every built-in layer records into.
REGISTRY = MetricsRegistry()


def record_sim_stats(stats) -> None:
    """Fold one engine run's :class:`~repro.simnet.stats.SimStats` in.

    Called once per simulated repetition by the measurement layer — a
    handful of counter increments, far below the cost of the simulation
    they describe.
    """
    if stats is None:
        return
    engine = stats.engine
    REGISTRY.counter("sim.runs").inc(1, engine=engine)
    REGISTRY.counter("sim.epochs").inc(stats.epochs, engine=engine)
    REGISTRY.counter("sim.solves").inc(stats.resolves, engine=engine)
    REGISTRY.counter("sim.solve_reuses").inc(stats.solve_reuses, engine=engine)
    REGISTRY.counter("sim.events").inc(stats.events, engine=engine)
    REGISTRY.counter("sim.losses").inc(stats.losses, engine=engine)
    REGISTRY.counter("sim.stalls").inc(stats.stalls, engine=engine)

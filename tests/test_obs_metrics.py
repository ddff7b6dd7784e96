"""Observability: the process-safe metrics registry.

Covers the three metric kinds, the snapshot/merge/diff protocol, and —
the load-bearing part — its threading through the stack: engine runs
land in ``sim.*`` counters, the sweep cache counts hits/misses/bytes,
and worker-side deltas ride ``TaskOutcome.metrics`` across the process
executor back into the parent registry without double counting.
"""

from __future__ import annotations

import pytest

from repro.exec.task import ExecutionTask, run_task
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    merge_snapshots,
    record_sim_stats,
)
from repro.simnet.stats import SimStats
from repro.sweeps.cache import ResultCache
from repro.sweeps.runner import SweepRunner
from repro.sweeps.spec import SweepPoint


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Each test starts and ends with an empty process registry."""
    REGISTRY.reset()
    yield
    REGISTRY.reset()


def _points(sizes=(2048, 8192, 32768, 131072)):
    return [
        SweepPoint(
            cluster="myrinet", n_processes=4, msg_size=size,
            algorithm="direct", seed=0, reps=1,
        )
        for size in sizes
    ]


def _total(name: str) -> float:
    """Summed-over-labels value of one counter in the global registry."""
    metric = REGISTRY.get(name)
    assert metric is not None, f"{name} never registered"
    return sum(metric.series.values())


class TestCounter:
    def test_labeled_series_are_independent(self):
        reg = MetricsRegistry()
        c = reg.counter("sim.runs")
        c.inc(1, engine="fluid")
        c.inc(2, engine="vector")
        c.inc(1, engine="fluid")
        assert c.value(engine="fluid") == 2.0
        assert c.value(engine="vector") == 2.0
        assert c.value(engine="unseen") is None

    def test_unlabeled_series_and_rejection_of_negatives(self):
        c = MetricsRegistry().counter("hits")
        c.inc()
        c.inc(0.5)
        assert c.value() == 1.5
        with pytest.raises(ValueError, match="negative"):
            c.inc(-1)

    def test_label_order_does_not_split_series(self):
        c = MetricsRegistry().counter("x")
        c.inc(1, a=1, b=2)
        c.inc(1, b=2, a=1)
        assert c.value(a=1, b=2) == 2.0


class TestGaugeAndHistogram:
    def test_gauge_keeps_the_last_write(self):
        g = MetricsRegistry().gauge("workers")
        g.set(4)
        g.set(2)
        assert g.value() == 2.0

    def test_histogram_buckets_and_aggregates(self):
        h = MetricsRegistry().histogram("t", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        cell = h.value()
        assert cell["counts"] == [1, 2, 1]  # <=0.1, <=1.0, overflow
        assert cell["count"] == 4
        assert cell["sum"] == pytest.approx(6.05)

    def test_histogram_requires_buckets(self):
        with pytest.raises(ValueError, match="bucket"):
            MetricsRegistry().histogram("t", buckets=())


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert "a" in reg
        assert reg.names() == ["a"]

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("a")

    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(1)
        snap = reg.snapshot()
        reg.counter("a").inc(5)
        assert snap["a"]["values"][""] == 1.0


class TestSnapshotMergeDiff:
    def _registry(self, runs=2.0, depth=3.0):
        reg = MetricsRegistry()
        reg.counter("runs").inc(runs, engine="fluid")
        reg.gauge("depth").set(depth)
        reg.histogram("t", buckets=(1.0,)).observe(0.5)
        return reg

    def test_merge_sums_counters_and_overwrites_gauges(self):
        parent = self._registry(runs=2, depth=3)
        worker = self._registry(runs=5, depth=7)
        parent.merge(worker.snapshot())
        assert parent.counter("runs").value(engine="fluid") == 7.0
        assert parent.gauge("depth").value() == 7.0
        assert parent.histogram("t", buckets=(1.0,)).value()["count"] == 2

    def test_merge_creates_unseen_metrics(self):
        parent = MetricsRegistry()
        parent.merge(self._registry().snapshot())
        assert parent.counter("runs").value(engine="fluid") == 2.0

    def test_merge_none_and_empty_are_noops(self):
        reg = MetricsRegistry()
        reg.merge(None)
        reg.merge({})
        assert reg.names() == []

    def test_merge_rejects_unknown_kinds(self):
        with pytest.raises(ValueError, match="unknown kind"):
            MetricsRegistry().merge({"x": {"kind": "summary", "values": {}}})

    def test_snapshot_merge_round_trip_is_exact(self):
        a, b = self._registry(runs=1), self._registry(runs=9)
        combined = merge_snapshots(a.snapshot(), b.snapshot(), None)
        restored = MetricsRegistry()
        restored.merge(combined)
        assert restored.counter("runs").value(engine="fluid") == 10.0
        assert restored.snapshot() == combined

    def test_diff_subtracts_and_drops_idle_series(self):
        reg = self._registry(runs=2)
        before = reg.snapshot()
        reg.counter("runs").inc(3, engine="fluid")
        reg.counter("other").inc(0)  # registered but idle
        delta = diff_snapshots(before, reg.snapshot())
        assert delta["runs"]["values"]["engine=fluid"] == 3.0
        assert "other" not in delta

    def test_diff_of_idle_stretch_keeps_only_gauges(self):
        # Counters/histograms subtract away to nothing; a gauge is a
        # reading, not an accumulation, so it passes through unchanged.
        reg = self._registry()
        snap = reg.snapshot()
        delta = diff_snapshots(snap, snap)
        assert set(delta) == {"depth"}
        assert delta["depth"]["values"][""] == 3.0
        assert diff_snapshots(None, None) == {}

    def test_diff_of_idle_counters_is_empty(self):
        reg = MetricsRegistry()
        reg.counter("runs").inc(2)
        snap = reg.snapshot()
        assert diff_snapshots(snap, snap) == {}

    def test_diff_histograms_subtract_per_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("t", buckets=(1.0,))
        h.observe(0.5)
        before = reg.snapshot()
        h.observe(2.0)
        delta = diff_snapshots(before, reg.snapshot())
        assert delta["t"]["values"][""]["counts"] == [0, 1]
        assert delta["t"]["buckets"] == [1.0]


class TestRecordSimStats:
    def test_stats_land_labeled_by_engine(self):
        record_sim_stats(SimStats(
            engine="vector", epochs=3, resolves=2, events=10,
            losses=1, stalls=0, solve_reuses=4,
        ))
        assert REGISTRY.counter("sim.runs").value(engine="vector") == 1.0
        assert REGISTRY.counter("sim.epochs").value(engine="vector") == 3.0
        assert REGISTRY.counter("sim.solve_reuses").value(engine="vector") == 4.0

    def test_none_is_a_noop(self):
        record_sim_stats(None)
        assert REGISTRY.names() == []


class TestMeasurementThreading:
    def test_engine_runs_register_sim_counters(self):
        SweepRunner(cache=None).run_points(_points(sizes=(2048,)))
        assert _total("sim.runs") == 1.0
        assert _total("measure.samples") == 1.0
        assert _total("sim.epochs") > 0

    def test_cache_counters_track_misses_hits_and_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache).run_points(_points(sizes=(2048, 8192)))
        assert _total("cache.misses") == 2.0
        assert _total("cache.writes") == 2.0
        assert _total("cache.bytes_written") > 0
        SweepRunner(cache=cache).run_points(_points(sizes=(2048, 8192)))
        assert _total("cache.hits") == 2.0
        assert _total("cache.bytes_read") > 0


class TestExecutorRoundTrip:
    """The tentpole invariant: worker metrics land in the parent exactly
    once, and observability changes nothing about the rows."""

    def test_task_outcome_carries_its_delta(self):
        outcome = run_task(ExecutionTask(index=0, point=_points()[0]))
        assert outcome.ok
        assert outcome.metrics is not None
        assert outcome.metrics["sim.runs"]["values"]["engine=fluid"] == 1.0

    def test_process_executor_metrics_land_in_parent(self):
        points = _points()
        with SweepRunner(workers=2, cache=None, executor="process") as runner:
            result = runner.run_points(points)
        assert result.n_simulated == len(points)
        # The simulations ran in worker processes; their deltas must
        # have merged into this (parent) process's registry.
        assert _total("sim.runs") == float(len(points))
        assert _total("measure.samples") == float(len(points))

    def test_serial_execution_does_not_double_count(self):
        # In-process execution increments the parent registry directly;
        # merging the outcome delta again would double every counter.
        points = _points(sizes=(2048, 8192))
        SweepRunner(workers=1, cache=None).run_points(points)
        assert _total("sim.runs") == 2.0

    def test_rows_bit_identical_across_executors(self):
        points = _points()
        serial = SweepRunner(workers=1, cache=None).run_points(points)
        with SweepRunner(workers=2, cache=None, executor="process") as runner:
            pooled = runner.run_points(points)
        assert serial.to_rows() == pooled.to_rows()

"""Benchmark of the All-to-All contention simulator: one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload for about ``S`` seconds in fresh worker interpreters
(``worker.py``), checks every simulated output, prints a readable report
and, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``, measured with tracing off.  With ``--trace 1`` they
are the per-layer ones: traced and untraced workers alternate, so the
tracing overhead is measured in the same run, and the spans are written
to ``.perfbench-out/`` as a Chrome/Perfetto trace.  Exits non-zero when
an output check or a point fails.

End-to-end times are medians over the bodies of one run, in host
seconds rescaled to a fixed reference host speed by a CPU probe that
the benchmark owns (``worker.HostProbe``); no part of the program under
test sets the scale.  The report prints raw host seconds beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import POINTS, PROBE_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("reproduce", *POINTS)
#: The experiments that fit each network's (γ, δ, M) signature.
FIT_FIGURES = {"fig06": "fast-ethernet", "fig09": "gigabit-ethernet", "fig12": "myrinet"}
#: A worker that runs longer than this is killed and counted as failed.
WORKER_TIMEOUT_S = 120.0

#: End-to-end metric units (order as in BENCHMARK.json).
E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "warm_s": "s", "points_per_s": "1/s",
    "point_p50_s": "s", "point_p90_s": "s", "peak_rss_mb": "MiB",
}

#: Per-layer metrics: name -> (unit, how it is derived from one body).
#: ``("s"|"self_s"|"calls", span)`` sums a span field; ``("counter", name)``
#: reads a registry counter delta; other kinds are computed below.
LAYER_METRICS = {
    "experiments.self_s": ("s", ("self_s", "experiments")),
    "sweeps.run_points_s": ("s", ("s", "sweeps")),
    "sweeps.self_s": ("s", ("self_s", "sweeps")),
    "sweeps.points": ("count", ("extra", "points")),
    "sweeps.simulated": ("count", ("extra", "simulated")),
    "cache.get_s": ("s", ("s", "cache.get")),
    "cache.put_s": ("s", ("s", "cache.put")),
    "cache.key_s": ("s", ("s", "cache.key")),
    "cache.hits": ("count", ("counter", "cache.hits")),
    "cache.misses": ("count", ("counter", "cache.misses")),
    "cache.hit_ratio": ("ratio", ("ratio", "cache.hits", "cache.misses")),
    "cache.bytes_read": ("B", ("counter", "cache.bytes_read")),
    "cache.bytes_written": ("B", ("counter", "cache.bytes_written")),
    "cache.bypass_runs": ("count", ("extra", "bypass_runs")),
    "exec.task_s": ("s", ("s", "exec")),
    "exec.self_s": ("s", ("self_s", "exec")),
    "measure.alltoall_s": ("s", ("s", "measure.alltoall")),
    "measure.pingpong_s": ("s", ("s", "measure.pingpong")),
    "measure.self_s": ("s", ("self_s", "measure.alltoall", "measure.pingpong")),
    "measure.samples": ("count", ("counter", "measure.samples")),
    "lowering.s": ("s", ("s", "lowering")),
    "lowering.calls": ("count", ("calls", "lowering")),
    "lowering.messages": ("count", ("extra", "lowered_messages")),
    "vector.init_s": ("s", ("s", "vector.init")),
    "vector.setup_s": ("s", ("self_s", "vector.run")),
    "topology.route_s": ("s", ("s", "topology.route")),
    "topology.route_calls": ("count", ("calls", "topology.route")),
    "kernel.s": ("s", ("s", "kernel")),
    "kernel.self_s": ("s", ("self_s", "kernel")),
    "kernel.events": ("count", ("counter", "sim.events")),
    "kernel.epochs": ("count", ("counter", "sim.epochs")),
    "kernel.us_per_event": ("us", ("per", "kernel", "sim.events", 1e6)),
    "solve.s": ("s", ("s", "solve")),
    "solve.calls": ("count", ("calls", "solve")),
    "solve.reuses": ("count", ("counter", "sim.solve_reuses{engine=vector}")),
    "solve.per_epoch": ("ratio", ("calls_per", "solve", "sim.epochs{engine=vector}")),
    "loss.s": ("s", ("s", "loss")),
    "loss.losses": ("count", ("counter", "sim.losses")),
    "loss.stalls": ("count", ("counter", "sim.stalls")),
    "fluid.run_s": ("s", ("s", "fluid.run")),
    "fluid.solve_s": ("s", ("s", "fluid.solve")),
    "fluid.events": ("count", ("counter", "sim.events{engine=fluid}")),
    "fluid.epochs": ("count", ("counter", "sim.epochs{engine=fluid}")),
    "fit.s": ("s", ("s", "fit")),
    "models.s": ("s", ("s", "models")),
    "trace.overhead": ("ratio", None),
    "trace.unattributed_s": ("s", ("extra", "unattributed_s")),
}


def layer_values(body: dict) -> dict[str, float]:
    """Every per-layer metric of one traced body (spans absent → 0)."""
    layers, counters = body["layers"], body["counters"]

    def span(field, *names):
        return sum(layers.get(name, {}).get(field, 0.0) for name in names)

    out = {}
    for name, (_, rule) in LAYER_METRICS.items():
        if rule is None:
            continue
        kind, *ref = rule
        if kind in ("s", "self_s", "calls"):
            out[name] = span(kind, *ref)
        elif kind == "counter":
            out[name] = counters.get(ref[0], 0.0)
        elif kind == "extra":
            out[name] = body.get(ref[0], 0.0)
        elif kind == "ratio":
            hits, misses = counters.get(ref[0], 0.0), counters.get(ref[1], 0.0)
            out[name] = hits / (hits + misses) if hits + misses else 0.0
        elif kind == "per":
            events = counters.get(ref[1], 0.0)
            out[name] = span("self_s", ref[0]) / events * ref[2] if events else 0.0
        elif kind == "calls_per":
            epochs = counters.get(ref[1], 0.0)
            out[name] = span("calls", ref[0]) / epochs if epochs else 0.0
    return out


def child_env(cache_dir: Path | None) -> dict[str, str]:
    """Isolated worker environment: private cache, no ledger, capped threads."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    env.update(REPRO_LEDGER="off", REPRO_SWEEP_WORKERS="1",
               REPRO_SWEEP_EXECUTOR="serial", REPRO_SIM_ENGINE="vector",
               PYTHONHASHSEED="0")
    if cache_dir is not None:
        env["REPRO_SWEEP_CACHE"] = str(cache_dir)
    return env


class Runner:
    """Spawns workers, one at a time, and keeps what they report."""

    def __init__(self, workload: str, seed: int, scratch: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.problems: list[str] = []
        self.spawned = 0

    def spawn(self, mode: str, trace: bool, cache_dir: Path | None = None,
              cold_results: Path | None = None) -> dict | None:
        self.spawned += 1
        out = self.scratch / f"worker-{self.spawned}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), self.workload,
               "--mode", mode, "--seed", str(self.seed), "--trace", str(int(trace)),
               "--out", str(out), "--run-id", str(self.spawned)]
        if cold_results is not None:
            cmd += ["--cold-results", str(cold_results)]
        cmd += ["--spawned", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, env=child_env(cache_dir), cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.problems.append(f"{mode} worker timed out after {WORKER_TIMEOUT_S} s")
            return None
        if proc.returncode != 0 or not out.exists():
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
            self.problems.append(f"{mode} worker exited {proc.returncode}: "
                                 + " | ".join(tail))
            return None
        record = json.loads(out.read_text())
        self.problems.extend(record["problems"])
        return record

    def iteration(self, trace: bool) -> list[dict] | None:
        """One body: a point worker, or a cold then a warm reproduce worker."""
        if self.workload != "reproduce":
            record = self.spawn("point", trace)
            return None if record is None else [record]
        cache_dir = self.scratch / f"cache-{self.spawned}"
        cold = self.spawn("cold", trace, cache_dir)
        if cold is None:
            return None
        cold_results = self.scratch / f"cold-{self.spawned}.json"
        cold_results.write_text(json.dumps(cold["results"]))
        warm = self.spawn("warm", trace, cache_dir, cold_results)
        shutil.rmtree(cache_dir, ignore_errors=True)
        return None if warm is None else [cold, warm]


def p90(values: list[float]) -> float:
    """90th percentile by ``statistics.quantiles`` (the value itself if alone)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def rescaled(seconds: float, probe_s: float) -> float:
    """Host seconds at the reference host speed (see ``worker.HostProbe``)."""
    return seconds * PROBE_REF_S / probe_s


def end_to_end(workload: str, iterations: list[list[dict]]) -> tuple[dict, dict, dict]:
    """End-to-end metrics at the reference host speed, the same medians in
    raw host seconds, and the sample counts."""
    setups = [(r["setup_s"], r["setup_probe_s"]) for it in iterations for r in it]
    rss = [max(r["peak_rss_mb"] for r in it) for it in iterations]
    if workload == "reproduce":
        walls = [it[0]["bodies"][0] for it in iterations]
        warm = [it[1]["bodies"][0] for it in iterations]
        points = [(t, it[0]["bodies"][0]["probe_s"])
                  for it in iterations for t in it[0]["point_elapsed"]]
        done = sum(it[0]["simulated"] for it in iterations)
    else:
        # Every run of the point is a timed body; all but the first in
        # each interpreter are warm.
        walls = [b for it in iterations for b in it[0]["bodies"]]
        warm = [b for it in iterations for b in it[0]["bodies"][1:]]
        points = [(b["wall_s"], b["probe_s"]) for b in walls]
        done = len(points)
    samples = {
        "setup_s": setups,
        "wall_s": [(b["wall_s"], b["probe_s"]) for b in walls],
        "warm_s": [(b["wall_s"], b["probe_s"]) for b in warm],
        "point_p50_s": points,
        "point_p90_s": points,
    }
    values, raw = {}, {}
    for name, pairs in samples.items():
        stat = p90 if name == "point_p90_s" else statistics.median
        values[name] = stat([rescaled(t, probe) for t, probe in pairs])
        raw[name] = stat([t for t, _ in pairs])
    wall_pairs = samples["wall_s"]
    values["points_per_s"] = done / sum(rescaled(t, probe) for t, probe in wall_pairs)
    raw["points_per_s"] = done / sum(t for t, _ in wall_pairs)
    values["peak_rss_mb"] = raw["peak_rss_mb"] = statistics.median(rss)
    counts = {name: len(pairs) for name, pairs in samples.items()}
    counts.update(points_per_s=len(points), peak_rss_mb=len(rss))
    return values, raw, counts


def merge_bodies(bodies: list[dict]) -> dict:
    """One body whose spans, counters and extras are the sums of *bodies*."""
    merged: dict = {"layers": {}, "counters": {}}
    for body in bodies:
        for name, row in body["layers"].items():
            into = merged["layers"].setdefault(name, {})
            for field, value in row.items():
                into[field] = into.get(field, 0.0) + value
        for name, value in body["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0.0) + value
        for name, value in body.items():
            if isinstance(value, (int, float)):
                merged[name] = merged.get(name, 0.0) + value
    return merged


def per_layer(workload: str, traced: list[list[dict]], untraced: list[list[dict]]) -> dict:
    """Per-layer metrics: medians over traced iterations.

    A reproduce iteration sums its cold and warm pass; a single-point
    iteration reports the mean of its runs, like the end-to-end metrics.
    """
    rows = []
    for iteration in traced:
        bodies = []
        for record in iteration:
            for body in record["bodies"]:
                if workload == "reproduce":
                    warm = record is iteration[1]
                    body = dict(body, points=record["points"], simulated=record["simulated"],
                                bypass_runs=body["counters"].get("sim.runs", 0.0) if warm else 0)
                bodies.append(body)
        row = layer_values(merge_bodies(bodies))
        if workload != "reproduce":
            row = {name: value / len(bodies) if LAYER_METRICS[name][0] in ("s", "count", "B")
                   else value for name, value in row.items()}
        rows.append(row)
    values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}

    def median_wall(iterations):
        return statistics.median(rescaled(b["wall_s"], b["probe_s"])
                                 for it in iterations for b in it[0]["bodies"])

    values["trace.overhead"] = median_wall(traced) / median_wall(untraced) - 1.0
    return values


def write_trace(path: Path, traced: list[list[dict]]) -> None:
    """All spans of the run as one Chrome trace, a process per worker."""
    records = (r for it in traced for r in it)
    events = [dict(event, pid=pid) for pid, record in enumerate(records, start=1)
              for event in record["spans"]]
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    runner = Runner(args.workload, args.seed, scratch)
    traced: list[list[dict]] = []
    untraced: list[list[dict]] = []
    start = time.monotonic()
    try:
        # Alternate untraced and traced bodies under --trace 1, so both
        # see the same machine state.  Launch another iteration only if
        # it should end within --seconds, judged by the mean so far.
        mean = 0.0
        while (time.monotonic() - start + mean <= args.seconds or not untraced
               or (args.trace and not traced)):
            trace = bool(args.trace) and len(traced) < len(untraced)
            iteration = runner.iteration(trace)
            if iteration is None:
                break
            (traced if trace else untraced).append(iteration)
            mean = (time.monotonic() - start) / (len(traced) + len(untraced))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    records = [r for it in traced + untraced for r in it]
    attempted = sum(r["attempted"] for r in records) or 1
    failed = sum(r["failed_points"] for r in records) + len(runner.problems)
    correct = not runner.problems and bool(untraced) and (not args.trace or bool(traced))
    failed = max(failed, 0 if correct else 1)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"bodies {len(untraced)} untraced + {len(traced)} traced")
    for problem in runner.problems:
        print(f"CHECK FAILED: {problem}")
    for fit in next(iter(untraced), [{}])[0].get("fits", []):
        if fit["experiment"] in FIT_FIGURES:  # reported, not gated: lossy fits are statistical
            print(f"fitted signature, {FIT_FIGURES[fit['experiment']]}: gamma={fit['gamma']:.4g} "
                  f"delta={fit['delta']:.4g} s M={fit['threshold']} B")
    metrics: dict[str, dict] = {}
    if correct and not args.trace:
        values, raw, counts = end_to_end(args.workload, untraced)
        print(f"  {'metric':<14} {'reference':>14} {'raw host':>14}  (reference host "
              f"speed: probe = {PROBE_REF_S} s)")
        for name, unit in E2E_UNITS.items():
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:<14} {values[name]:>14.6g} {raw[name]:>14.6g} {unit:<5} "
                  f"(n={counts[name]})")
    elif correct:
        values = per_layer(args.workload, traced, untraced)
        for name, (unit, _) in LAYER_METRICS.items():
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:<22} {values[name]:>14.6g} {unit}")
        print(f"  {'wait_s':<22} {0.0:>14.6g} s  (one process, serial executor: "
              "no layer waits on another)")
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(trace_path, traced)
        print(f"spans written to {trace_path.relative_to(ROOT)} (Chrome/Perfetto)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

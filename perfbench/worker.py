"""One benchmark worker: a fresh interpreter that runs one workload body.

Started by ``run.py``; not meant to be run by hand.  The worker imports
``repro`` from ``src/``, installs the outside-in wrappers of
``tracer.py``, runs its body and writes one JSON record to ``--out``:

* ``setup_s`` — interpreter start (the parent's spawn time, on the
  shared monotonic clock) until the workload is ready to time;
* one entry per timed body with its wall seconds, work counters from
  ``repro.obs.metrics.REGISTRY`` and, when traced, per-layer times;
* ``problems`` — every failed output check, as text.

Modes: ``point`` runs a single-point workload ``RUNS_PER_WORKER`` times
in this interpreter (the first run is "cold", the others "warm"); ``cold`` runs every
registered experiment against an empty result cache; ``warm`` runs them
again, in a new interpreter, against the cache ``cold`` filled.
"""

from __future__ import annotations

import argparse
import dataclasses
import heapq
import inspect
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import Tracer, instrument  # noqa: E402

#: Single-point workloads.  The lossless ones are compared with the
#: stored outputs in ``reference.json`` (see ``make_reference.py``).
POINTS = {
    "jitter-n48": dict(engine="vector", n=48, msg=4_096, lossy=False, sync=False),
    "sync-n128": dict(engine="vector", n=128, msg=4_096, lossy=False, sync=True),
    "fluid-n20": dict(engine="fluid", n=20, msg=4_096, lossy=False, sync=False),
    "lossy-n32": dict(engine="vector", n=32, msg=131_072, lossy=True, sync=False),
}
#: Runs of a single-point workload per interpreter: many short bodies
#: per run make the medians steady on a noisy shared host.
RUNS_PER_WORKER = 6
#: Scale of the ``reproduce`` workload (see BENCHMARK.json for why).
REPRODUCE_SCALE = "smoke"
#: Number of stored reference seeds; the run seed picks one modulo this.
REFERENCE_SEEDS = 16
#: Relative tolerance of the lossless reference comparison.
REL_TOL = 1e-9
REFERENCE_PATH = HERE / "reference.json"


class Observations:
    """Results the wrappers hand over; checked after timing ends."""

    def __init__(self) -> None:
        self.runs = []          # RunResult of every engine run
        self.measures = []      # (cluster, n, m, pattern, seed, sample)
        self.points = []        # PointResult of every sweep
        self.fits = []          # (experiment, ContentionSignature)
        self.lowered_messages = 0
        self.experiment = None

    def callbacks(self) -> dict:
        from repro.measure.alltoall import measure_alltoall

        signature = inspect.signature(measure_alltoall)

        def run(result, args, kwargs):
            self.runs.append(result)

        def measure(sample, args, kwargs):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            a = call.arguments
            self.measures.append((a["cluster"], a["n_processes"], a["msg_size"],
                                  a["pattern"], a["seed"], sample))

        def sweep(result, args, kwargs):
            self.points.extend(result.results)

        def fit(result, args, kwargs):
            self.fits.append((self.experiment, result.signature))

        def lowered(result, args, kwargs):
            self.lowered_messages += len(result.messages)

        return {"vector.run": run, "fluid.run": run, "measure.alltoall": measure,
                "sweeps": sweep, "fit": fit, "lowering": lowered}


def point_cluster(spec: dict):
    """The cluster profile of a single-point workload."""
    from repro.clusters.profiles import get_cluster

    cluster = get_cluster("gigabit-ethernet").with_overrides(max_hosts=1024)
    if not spec["lossy"]:
        cluster = cluster.with_overrides(loss=None)
    if spec["sync"]:
        cluster = cluster.with_overrides(
            transport=dataclasses.replace(cluster.transport, jitter_scale=0.0),
            start_skew_scale=0.0,
        )
    return cluster


def med_lower_bound(cluster, n: int, m: int, pattern, seed: int) -> float:
    """Claim 2 of ``repro.core.bounds``: the busiest host's bytes at NIC speed.

    β is the inverse of the fastest host NIC, so no schedule on this
    fabric can beat the bound.  The start-up term of Claim 3 is left
    out: the simulator overlaps message latencies, which the 1-port
    model behind Claim 1 does not.
    """
    from repro.core.bounds import bandwidth_lower_bound
    from repro.core.hockney import HockneyParams
    from repro.core.med import MED
    from repro.traffic import as_pattern

    topology = cluster.topology(n)
    nic = max(topology.links[host.tx_link].capacity for host in topology.hosts)
    pattern = as_pattern(pattern)
    med = (MED.alltoall(n, m) if pattern is None
           else MED.from_matrix(pattern.matrix(n, m, seed=seed)))
    return bandwidth_lower_bound(med, HockneyParams(alpha=0.0, beta=1.0 / nic))


def _counters(before: dict, after: dict) -> dict[str, float]:
    """Registry delta flattened to ``name`` / ``name{labels}`` → value."""
    from repro.obs.metrics import diff_snapshots

    flat: dict[str, float] = {}
    for name, entry in diff_snapshots(before, after).items():
        if entry.get("kind") != "counter":
            continue
        for labels, value in entry["values"].items():
            flat[name] = flat.get(name, 0.0) + value
            if labels:
                flat[f"{name}{{{labels}}}"] = value
    return flat


#: Host-probe time that defines the reference host speed of reported times.
PROBE_REF_S = 0.06


class HostProbe:
    """A fixed piece of CPU work owned by the benchmark, timed between bodies.

    The shared host this benchmark runs on drifts in speed by a third
    over tens of seconds, moving every timing of a run together.  The
    probe mixes what the simulator spends its time on (heap events,
    dict updates, small NumPy array operations) but runs no ``repro``
    code, so no change to the program can move it.  ``run.py`` rescales
    host seconds by ``PROBE_REF_S / probe_s`` to a fixed host speed.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        start = time.perf_counter()
        heap, counts = [], {}
        values = np.linspace(0.0, 1.0, 2_000)
        for i in range(30_000):
            heapq.heappush(heap, ((i * 7_919) % 10_007, i))
            counts[i & 1_023] = counts.get(i & 1_023, 0) + 1
            if i % 100 == 0:
                values = np.minimum(values * 1.0001, 1.0)
                np.bincount(np.arange(2_000) % 50, minlength=50)
        while heap:
            heapq.heappop(heap)
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed


def timed_body(tracer: Tracer, probe: HostProbe, fn) -> dict:
    """Run *fn* once; its wall time, registry delta and span summary, and
    the mean of the host probes taken just before and just after it."""
    from repro.obs.metrics import REGISTRY

    if not probe.samples:
        probe.sample()
    mark = len(tracer.spans)
    before = REGISTRY.snapshot()
    start = time.perf_counter()
    fn()
    wall = time.perf_counter() - start
    body = {"wall_s": wall, "counters": _counters(before, REGISTRY.snapshot()),
            "probe_s": (probe.samples[-1] + probe.sample()) / 2}
    if tracer.enabled:
        body["layers"] = tracer.layer_times(mark)
        body["unattributed_s"] = wall - tracer.root_time(mark)
    return body


def run_point(name: str, seed: int, tracer: Tracer, probe: HostProbe, obs: Observations,
              problems: list):
    """``RUNS_PER_WORKER`` runs of one single-point workload; checks them all."""
    from repro.measure.alltoall import measure_alltoall

    spec = POINTS[name]
    cluster = point_cluster(spec)
    sim_seed = seed % REFERENCE_SEEDS
    yield  # set-up ends here

    bodies, outputs = [], []
    for _ in range(RUNS_PER_WORKER):
        samples = []
        body = timed_body(tracer, probe, lambda: samples.append(measure_alltoall(
            cluster, spec["n"], spec["msg"], reps=1, seed=sim_seed,
            algorithm="direct", engine=spec["engine"],
        )))
        result = obs.runs[-1]
        body["lowered_messages"] = obs.lowered_messages
        obs.lowered_messages = 0
        outputs.append({"time": samples[0].mean_time,
                        "flows": result.flows_completed,
                        "losses": result.total_losses})
        bodies.append(body)

    first = outputs[0]
    if any(output != first for output in outputs):
        problems.append(f"{name}: reruns with the same seed differ: {outputs}")
    bound = med_lower_bound(cluster, spec["n"], spec["msg"], None, sim_seed)
    if first["time"] < bound:
        problems.append(f"{name}: time {first['time']} below MED bound {bound}")
    if not spec["lossy"]:
        refs = json.loads(REFERENCE_PATH.read_text())[name][str(sim_seed)]
        for key, want in refs.items():
            got = first[key]
            if abs(got - want) > REL_TOL * abs(want):
                problems.append(f"{name} seed {sim_seed}: {key} {got!r} != reference {want!r}")
    yield {"bodies": bodies, "outputs": outputs, "sim_seed": sim_seed,
           "attempted": len(outputs), "failed_points": 0}


def run_reproduce(mode: str, seed: int, cold_results: Path | None, tracer: Tracer,
                  probe: HostProbe, obs: Observations, problems: list):
    """Every registered experiment once, against the cache in ``REPRO_SWEEP_CACHE``."""
    from repro.experiments import registry
    from repro.sweeps.runner import configure_default_runner

    configure_default_runner()
    yield  # set-up ends here

    failed_experiments = []

    def body():
        for exp_id in registry.EXPERIMENTS:
            obs.experiment = exp_id
            try:
                registry.run_experiment(exp_id, scale=REPRODUCE_SCALE, seed=seed)
            except Exception as exc:  # every failure is reported, none stops the pass
                failed_experiments.append(f"{exp_id}: {type(exc).__name__}: {exc}")

    timed = timed_body(tracer, probe, body)
    timed["lowered_messages"] = obs.lowered_messages

    problems.extend(f"experiment failed: {text}" for text in failed_experiments)
    failed_points = [p for p in obs.points if not p.ok]
    problems.extend(f"point failed: {p.point}: {p.error}" for p in failed_points)
    results = {repr(p.point): p.sample.mean_time for p in obs.points if p.ok}
    for cluster, n, m, pattern, sample_seed, sample in obs.measures:
        bound = med_lower_bound(cluster, n, m, pattern, sample_seed)
        if sample.mean_time < bound:
            problems.append(f"{cluster.name} n={n} m={m}: time {sample.mean_time} "
                            f"below MED bound {bound}")
    if mode == "warm":
        cold = json.loads(cold_results.read_text())
        for key, value in results.items():
            if key in cold and cold[key] != value:
                problems.append(f"warm result differs from cold: {key}: {value} != {cold[key]}")
        missing = sorted(set(cold) - set(results))
        if missing:
            problems.append(f"warm pass lost {len(missing)} points, e.g. {missing[0]}")
    yield {
        "bodies": [timed],
        "results": results,
        "point_elapsed": [p.elapsed for p in obs.points if p.ok and not p.cached],
        "points": len(obs.points),
        "simulated": sum(1 for p in obs.points if p.ok and not p.cached),
        "attempted": len(obs.points) + len(failed_experiments),
        "failed_points": len(failed_points) + len(failed_experiments),
        "fits": [{"experiment": exp, "gamma": sig.gamma, "delta": sig.delta,
                  "threshold": sig.threshold} for exp, sig in obs.fits],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--mode", choices=("point", "cold", "warm"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="parent's time.monotonic() just before the spawn")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--cold-results", type=Path)
    parser.add_argument("--run-id", default="0")
    args = parser.parse_args(argv)

    tracer = Tracer(args.run_id, enabled=bool(args.trace))
    probe = HostProbe()
    obs = Observations()
    instrument(tracer, obs.callbacks())
    problems: list[str] = []
    # A workload is a generator: it yields once when set-up is done, then
    # runs its timed bodies and checks, and yields its record.
    if args.mode == "point":
        steps = run_point(args.workload, args.seed, tracer, probe, obs, problems)
    else:
        steps = run_reproduce(args.mode, args.seed, args.cold_results, tracer, probe, obs,
                              problems)
    next(steps)
    setup_s = time.monotonic() - args.spawned
    probe.sample()  # the first sample pays one-off costs; keep only the second
    setup_probe_s = probe.sample()
    tracer.spans.clear()  # spans of set-up are not part of any body
    record = next(steps)
    record.update(
        setup_s=setup_s,
        setup_probe_s=setup_probe_s,
        problems=problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        spans=tracer.chrome_events(),
    )
    args.out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

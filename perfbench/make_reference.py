"""Regenerate ``reference.json``: the lossless single-point outputs.

    python3 perfbench/make_reference.py

For each lossless single-point workload and each of the
``REFERENCE_SEEDS`` simulation seeds, stores the simulated completion
time, flows completed and losses.  The benchmark compares every run
against these within ``REL_TOL``.  Regenerate only when a change is
meant to alter simulated results, and say so in the change.
"""

from __future__ import annotations

import json

import worker
from tracer import Tracer, instrument


def main() -> None:
    from repro.measure.alltoall import measure_alltoall

    obs = worker.Observations()
    instrument(Tracer("reference", enabled=False), obs.callbacks())
    reference = {}
    for name, spec in worker.POINTS.items():
        if spec["lossy"]:
            continue
        cluster = worker.point_cluster(spec)
        reference[name] = {}
        for seed in range(worker.REFERENCE_SEEDS):
            sample = measure_alltoall(cluster, spec["n"], spec["msg"], reps=1, seed=seed,
                                      algorithm="direct", engine=spec["engine"])
            run = obs.runs[-1]
            reference[name][str(seed)] = {"time": sample.mean_time,
                                          "flows": run.flows_completed,
                                          "losses": run.total_losses}
            print(name, seed, reference[name][str(seed)], flush=True)
    worker.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()

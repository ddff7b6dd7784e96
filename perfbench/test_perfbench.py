"""Tests of the benchmark itself; outside the repository's tier-1 suite.

    python3 -m pytest perfbench -q

Each test runs ``run.py`` with ``--seconds 0``: one body per mode, the
smallest run the benchmark makes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

#: A seed never used while the benchmark was tuned.
HELD_OUT_SEED = 7919
#: Per-layer metrics that count work; they must repeat exactly.
COUNT_METRICS = [name for name, (unit, _) in run.LAYER_METRICS.items()
                 if unit in ("count", "B")]


def bench(workload: str, seed: int, trace: int, script: Path = run.HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    return proc


def result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_same_work_counters(workload):
    first, second = (result(bench(workload, 11, trace=1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    counts = [{name: r["metrics"][name]["value"] for name in COUNT_METRICS}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["kernel.events"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_held_out_seed_passes_output_checks(workload):
    proc = bench(workload, HELD_OUT_SEED, trace=0)
    assert proc.returncode == 0, proc.stdout[-2000:]
    out = result(proc)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == set(run.E2E_UNITS)
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("jitter-n48", 0, trace=0, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Tests for the traffic-pattern subsystem (repro.traffic).

Covers the pattern registry and generators, PatternSpec round-trips,
cross-process determinism (the sweep-cache soundness guard), the
uniform-pattern ⇔ legacy-scalar bit-for-bit equivalence, pattern-aware
measurement/sweeps/scenarios, and the MED-based signature prediction.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import Scenario
from repro.clusters.profiles import gigabit_ethernet
from repro.core.bounds import combined_lower_bound, delta_eligible_rounds
from repro.core.hockney import HockneyParams
from repro.core.med import MED
from repro.core.signature import ContentionSignature
from repro.exceptions import MeasurementError, ScenarioError
from repro.measure.alltoall import measure_alltoall
from repro.registry import PATTERNS
from repro.scenario import ScenarioSpec, WorkloadSpec
from repro.sweeps import (
    ResultCache,
    SweepPoint,
    SweepRunner,
    SweepSpec,
    point_key,
    profile_fingerprint,
)
from repro.traffic import PatternSpec, as_pattern

SEEDED_SIZES = [(4, 1_000), (7, 4_096), (12, 65_536)]


class TestPatternSpec:
    def test_name_canonicalised(self):
        assert PatternSpec("Random_Sparse").name == "random-sparse"
        assert PatternSpec("incast").name == "hotspot"

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ScenarioError, match="unknown pattern"):
            PatternSpec("teleport")

    def test_unknown_param_rejected_at_construction(self):
        with pytest.raises(ScenarioError, match="unknown param"):
            PatternSpec("hotspot", {"victims": 3})

    def test_user_generator_without_star_separator_accepted(self):
        # The extension point must not require keyword-only params.
        from repro.registry import PATTERNS, register_pattern

        @register_pattern("test-plain-params")
        def plain(n_processes, msg_size, rng=None, skew=1.0):
            return np.full((n_processes, n_processes), int(msg_size * skew))

        try:
            spec = PatternSpec("test-plain-params", {"skew": 2.0})
            assert spec.matrix(3, 100)[0, 1] == 200
            with pytest.raises(ScenarioError, match="unknown param"):
                PatternSpec("test-plain-params", {"n_processes": 5})
        finally:
            PATTERNS.unregister("test-plain-params")

    def test_non_scalar_param_rejected(self):
        with pytest.raises(ScenarioError, match="scalar"):
            PatternSpec("hotspot", {"targets": [1, 2]})

    @pytest.mark.parametrize("params", [None, [1], "factor"])
    def test_malformed_params_rejected_naming_the_field(self, params):
        with pytest.raises(ScenarioError, match="pattern params"):
            PatternSpec.from_dict({"name": "hotspot", "params": params})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_param_rejected(self, value):
        with pytest.raises(ScenarioError, match="factor.*finite"):
            PatternSpec("hotspot", {"factor": value})

    def test_params_canonicalise_to_sorted_pairs(self):
        a = PatternSpec("hotspot", {"targets": 2, "factor": 4.0})
        b = PatternSpec("hotspot", {"factor": 4.0, "targets": 2})
        assert a == b
        assert hash(a) == hash(b)
        assert a.key() == "hotspot(factor=4,targets=2)"

    def test_integral_floats_collapse_to_ints(self):
        # 8 and 8.0 must be one identity: same key (RNG stream), same
        # cache payload — CLI int parses and TOML float literals meet.
        a = PatternSpec("zipf", {"exponent": 1})
        b = PatternSpec("zipf", {"exponent": 1.0})
        assert a == b
        assert a.key() == b.key() == "zipf(exponent=1)"
        assert a.cache_payload() == b.cache_payload()
        np.testing.assert_array_equal(
            a.matrix(6, 1_000, seed=3), b.matrix(6, 1_000, seed=3)
        )
        assert PatternSpec("zipf", {"exponent": 1.5}).key() == "zipf(exponent=1.5)"

    def test_dict_round_trip(self):
        spec = PatternSpec("zipf", {"exponent": 1.5})
        assert PatternSpec.from_dict(spec.to_dict()) == spec
        assert PatternSpec.from_dict("shift") == PatternSpec("shift")

    def test_uniform_collapses_to_none(self):
        assert as_pattern(None) is None
        assert as_pattern("uniform") is None
        assert as_pattern({"name": "uniform"}) is None
        assert as_pattern("hotspot") == PatternSpec("hotspot")

    def test_matrix_validates_coordinates(self):
        with pytest.raises(ValueError, match="msg_size"):
            PatternSpec("shift").matrix(4, 0)
        with pytest.raises(ValueError, match="n_processes"):
            PatternSpec("shift").matrix(0, 128)

    def test_med_lowering_drops_diagonal_and_zeros(self):
        med = PatternSpec("shift", {"offset": 1}).med(5, 100)
        assert med.n_messages == 5
        assert med.max_out_degree == 1
        assert med.max_in_degree == 1


class TestGenerators:
    @pytest.mark.parametrize("name", sorted(PATTERNS.names()))
    @pytest.mark.parametrize("n,m", SEEDED_SIZES)
    def test_shape_dtype_and_nonnegative(self, name, n, m):
        W = PatternSpec(name).matrix(n, m, seed=3)
        assert W.shape == (n, n)
        assert W.dtype == np.int64
        assert np.all(W >= 0)

    def test_uniform_is_the_regular_alltoall(self):
        W = PatternSpec("uniform").matrix(5, 777)
        assert np.all(W == 777)

    def test_zipf_preserves_total_volume_approximately(self):
        n, m = 8, 10_000
        W = PatternSpec("zipf", {"exponent": 1.2}).matrix(n, m, seed=1)
        off_diag = W.sum() - np.trace(W)
        uniform_volume = n * (n - 1) * m
        # floor() rounding loses at most one byte per pair.
        assert uniform_volume - n * n <= off_diag <= uniform_volume
        # And it is genuinely skewed: receive columns differ.
        col_bytes = W.sum(axis=0) - np.diag(W)
        assert col_bytes.max() > 2 * col_bytes.min()

    def test_hotspot_concentrates_receive_bytes(self):
        n, m = 8, 1_000
        med = PatternSpec("hotspot", {"targets": 2, "factor": 8.0}).med(n, m)
        hot = [med.recv_bytes(0), med.recv_bytes(1)]
        cold = [med.recv_bytes(r) for r in range(2, n)]
        assert min(hot) > max(cold)
        with pytest.raises(ValueError, match="targets"):
            PatternSpec("hotspot", {"targets": 99}).matrix(4, 100)

    def test_shift_and_permutation_are_single_destination(self):
        for name in ("shift", "permutation"):
            W = PatternSpec(name).matrix(9, 512, seed=5)
            assert np.all((W > 0).sum(axis=1) == 1)
            assert np.all((W > 0).sum(axis=0) == 1)

    def test_permutation_has_no_fixed_points(self):
        for seed in range(6):
            W = PatternSpec("permutation").matrix(7, 100, seed=seed)
            assert np.all(np.diag(W) == 0)

    def test_block_sparse_structure(self):
        W = PatternSpec("block-sparse", {"block": 3}).matrix(7, 100)
        assert W[0, 2] == 100 and W[0, 3] == 0
        assert W[6, 6] == 100 and W[6, 0] == 0  # tail block of one

    def test_random_sparse_has_zero_arcs(self):
        W = PatternSpec("random-sparse", {"density": 0.2}).matrix(10, 1_000, seed=2)
        off_diag = W[~np.eye(10, dtype=bool)]
        assert np.any(off_diag == 0)
        assert np.any(off_diag > 0)
        assert np.all(np.diag(W) == 0)


class TestDeterminism:
    """Same seed ⇒ identical matrix, in-process and across processes."""

    @pytest.mark.parametrize("name", sorted(PATTERNS.names()))
    def test_same_seed_same_matrix(self, name):
        a = PatternSpec(name).matrix(9, 4_096, seed=42)
        b = PatternSpec(name).matrix(9, 4_096, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_changes_random_patterns(self):
        spec = PatternSpec("random-sparse", {"density": 0.5})
        a = spec.matrix(10, 4_096, seed=0)
        b = spec.matrix(10, 4_096, seed=1)
        assert not np.array_equal(a, b)

    def test_every_pattern_identical_across_two_processes(self):
        """Guards the sweep cache against seed leakage: a worker process
        must derive bit-identical matrices from the same coordinates."""
        script = (
            "import hashlib, json, sys\n"
            "from repro.registry import PATTERNS\n"
            "from repro.traffic import PatternSpec\n"
            "out = {}\n"
            "for name in PATTERNS.names():\n"
            "    W = PatternSpec(name).matrix(11, 8_192, seed=1234)\n"
            "    out[name] = hashlib.sha256(W.tobytes()).hexdigest()\n"
            "print(json.dumps(out))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
            check=True,
        )
        remote = json.loads(result.stdout)
        import hashlib

        for name in PATTERNS.names():
            W = PatternSpec(name).matrix(11, 8_192, seed=1234)
            assert remote[name] == hashlib.sha256(W.tobytes()).hexdigest(), (
                f"pattern {name!r} is not cross-process deterministic"
            )


class TestMeasureIntegration:
    @pytest.fixture(scope="class")
    def gige(self):
        return gigabit_ethernet()

    def test_uniform_pattern_bit_for_bit_legacy(self, gige):
        legacy = measure_alltoall(gige, 4, 2_048, reps=2, seed=0)
        via_pattern = measure_alltoall(
            gige, 4, 2_048, reps=2, seed=0, pattern="uniform"
        )
        assert legacy == via_pattern

    def test_irregular_pattern_changes_result(self, gige):
        legacy = measure_alltoall(gige, 4, 2_048, reps=1, seed=0)
        hot = measure_alltoall(
            gige, 4, 2_048, reps=1, seed=0,
            pattern={"name": "hotspot", "params": {"targets": 1, "factor": 16.0}},
        )
        assert hot.mean_time != legacy.mean_time

    def test_incast_slower_than_uniform(self, gige):
        uniform = measure_alltoall(gige, 8, 32_768, reps=1, seed=0)
        incast = measure_alltoall(
            gige, 8, 32_768, reps=1, seed=0,
            pattern={"name": "hotspot", "params": {"targets": 1, "factor": 8.0}},
        )
        assert incast.mean_time > uniform.mean_time

    def test_matrix_algorithm_without_pattern_rejected(self, gige):
        with pytest.raises(MeasurementError, match="byte matrix"):
            measure_alltoall(gige, 4, 2_048, reps=1, algorithm="alltoallv-direct")

    def test_forwarding_algorithm_with_pattern_rejected(self, gige):
        with pytest.raises(MeasurementError, match="no alltoallv variant"):
            measure_alltoall(
                gige, 4, 2_048, reps=1, algorithm="bruck", pattern="hotspot"
            )

    def test_explicit_alltoallv_algorithm_accepted(self, gige):
        sample = measure_alltoall(
            gige, 4, 2_048, reps=1, algorithm="vdirect", pattern="shift"
        )
        assert sample.mean_time > 0

    def test_empty_exchange_rejected_cleanly(self, gige):
        # shift:offset=0 degenerates to pure local copies — nothing on
        # the wire, so there is no completion time to measure.
        with pytest.raises(MeasurementError, match="no network traffic"):
            measure_alltoall(
                gige, 4, 2_048, reps=1,
                pattern={"name": "shift", "params": {"offset": 0}},
            )

    def test_rounds_variant_runs_irregular(self, gige):
        sample = measure_alltoall(
            gige, 5, 2_048, reps=1, algorithm="rounds",
            pattern={"name": "random-sparse", "params": {"density": 0.5}},
        )
        assert sample.mean_time > 0


class TestSweepIntegration:
    def test_patterns_axis_expands_grid(self):
        spec = SweepSpec(
            clusters=("gigabit-ethernet",),
            nprocs=(4,),
            sizes=(2_048,),
            algorithms=("direct",),
            patterns=(None, "hotspot", {"name": "zipf"}),
            seeds=(0,),
            reps=1,
        )
        assert spec.n_points == 3
        points = spec.points()
        assert points[0].pattern is None
        assert points[1].pattern == PatternSpec("hotspot")
        assert "patterns" in spec.describe()

    def test_matrix_algorithm_needs_pattern_in_spec(self):
        with pytest.raises(ValueError, match="byte matrix"):
            SweepSpec(
                clusters=("gigabit-ethernet",), nprocs=(4,), sizes=(2_048,),
                algorithms=("alltoallv-direct",), reps=1,
            )
        with pytest.raises(ValueError, match="no alltoallv variant"):
            SweepSpec(
                clusters=("gigabit-ethernet",), nprocs=(4,), sizes=(2_048,),
                algorithms=("ring",), patterns=("hotspot",), reps=1,
            )

    def test_uniform_point_key_matches_patternless_key(self):
        """`uniform` must hit the very same cache entries as the legacy
        scalar path (the acceptance-criterion regression test)."""
        fp = profile_fingerprint(gigabit_ethernet())
        legacy = SweepPoint("gigabit-ethernet", 4, 2_048, "direct", 0, 1)
        uniform = SweepPoint(
            "gigabit-ethernet", 4, 2_048, "direct", 0, 1, pattern="uniform"
        )
        assert uniform.pattern is None
        assert point_key(legacy, fp) == point_key(uniform, fp)

    def test_pattern_points_never_collide_with_uniform(self):
        fp = profile_fingerprint(gigabit_ethernet())
        base = SweepPoint("gigabit-ethernet", 4, 2_048, "direct", 0, 1)
        hot = SweepPoint(
            "gigabit-ethernet", 4, 2_048, "direct", 0, 1, pattern="hotspot"
        )
        tuned = SweepPoint(
            "gigabit-ethernet", 4, 2_048, "direct", 0, 1,
            pattern={"name": "hotspot", "params": {"factor": 2.0}},
        )
        keys = {point_key(p, fp) for p in (base, hot, tuned)}
        assert len(keys) == 3

    def test_pattern_sweep_caches_and_reruns_zero_simulations(self, tmp_path):
        spec = SweepSpec(
            clusters=("gigabit-ethernet",),
            nprocs=(4,),
            sizes=(2_048, 4_096),
            algorithms=("direct",),
            patterns=("hotspot", None),
            seeds=(0,),
            reps=1,
        )
        runner = SweepRunner(workers=1, cache=ResultCache(tmp_path))
        first = runner.run(spec)
        assert first.n_simulated == 4
        second = runner.run(spec)
        assert second.n_simulated == 0
        assert second.n_cached == 4
        assert [r.sample for r in first.results] == [
            r.sample for r in second.results
        ]

    def test_rows_carry_pattern_column(self, tmp_path):
        spec = SweepSpec(
            clusters=("gigabit-ethernet",), nprocs=(4,), sizes=(2_048,),
            algorithms=("direct",), patterns=("shift",), reps=1,
        )
        result = SweepRunner(workers=1).run(spec)
        fieldnames, rows = result.to_rows()
        assert "pattern" in fieldnames
        assert rows[0]["pattern"] == "shift"


class TestScenarioIntegration:
    def scenario_dict(self, **workload_extra):
        workload = {
            "nprocs": [4],
            "sizes": ["2kB", "4kB"],
            "seeds": [0],
            "reps": 1,
        }
        workload.update(workload_extra)
        return {
            "name": "pattern-test",
            "base": "gigabit-ethernet",
            "workload": workload,
        }

    def test_workload_pattern_round_trips(self):
        spec = ScenarioSpec.from_dict(
            self.scenario_dict(
                pattern={"name": "hotspot", "params": {"targets": 2, "factor": 8.0}}
            )
        )
        assert spec.workload.pattern == PatternSpec(
            "hotspot", {"targets": 2, "factor": 8.0}
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert ScenarioSpec.from_toml(spec.to_toml()) == spec

    def test_workload_pattern_accepts_bare_name(self):
        spec = ScenarioSpec.from_dict(self.scenario_dict(pattern="zipf"))
        assert spec.workload.pattern == PatternSpec("zipf")
        assert ScenarioSpec.from_toml(spec.to_toml()) == spec

    def test_uniform_pattern_normalises_away(self):
        spec = ScenarioSpec.from_dict(self.scenario_dict(pattern="uniform"))
        assert spec.workload.pattern is None
        assert "pattern" not in spec.to_dict()["workload"]

    def test_unknown_pattern_fails_at_load(self):
        with pytest.raises(ScenarioError, match="unknown pattern"):
            ScenarioSpec.from_dict(self.scenario_dict(pattern="teleport"))

    def test_matrix_algorithm_requires_pattern(self):
        data = self.scenario_dict()
        data["algorithm"] = "alltoallv-direct"
        with pytest.raises(ScenarioError, match="byte matrix"):
            ScenarioSpec.from_dict(data)

    def test_forwarding_algorithm_rejects_pattern(self):
        data = self.scenario_dict(pattern="hotspot")
        data["algorithm"] = "bruck"
        with pytest.raises(ScenarioError, match="no alltoallv variant"):
            ScenarioSpec.from_dict(data)

    def test_sample_nprocs_must_be_swept(self):
        # Regression: silently accepting an unswept n' made the fit
        # sample a column the grid never measured.
        with pytest.raises(ScenarioError, match="sample_nprocs 16"):
            WorkloadSpec(nprocs=(4, 8), sizes=(2_048,) * 4, sample_nprocs=16)
        # A swept value is still fine.
        workload = WorkloadSpec(nprocs=(4, 8), sizes=(2_048,) * 4, sample_nprocs=8)
        assert workload.fit_nprocs == 8

    def test_scenario_sweep_points_carry_pattern(self):
        sc = Scenario.from_dict(self.scenario_dict(pattern="hotspot"))
        points = sc.sweep_points()
        assert all(p.pattern == PatternSpec("hotspot") for p in points)
        assert "pattern=hotspot" in sc.describe()

    def test_scenario_sweep_executes_pattern(self, tmp_path):
        sc = Scenario.from_dict(
            self.scenario_dict(
                pattern={"name": "hotspot", "params": {"targets": 1}}
            )
        )
        runner = SweepRunner(workers=1, cache=ResultCache(tmp_path))
        first = sc.sweep(runner=runner)
        assert first.n_simulated == 2
        second = sc.sweep(runner=runner)
        assert second.n_simulated == 0 and second.n_cached == 2


class TestMedPrediction:
    HOCKNEY = HockneyParams(alpha=50e-6, beta=8.5e-9)

    def test_predict_med_reduces_to_predict_on_uniform(self):
        sig = ContentionSignature(
            gamma=4.36, delta=4.9e-3, threshold=8_192, hockney=self.HOCKNEY
        )
        for n, m in ((4, 2_048), (8, 8_192), (16, 1_048_576)):
            med = MED.alltoall(n, m)
            assert sig.predict_med(med) == pytest.approx(sig.predict(n, m))

    def test_predict_med_global_mode(self):
        sig = ContentionSignature(
            gamma=2.0, delta=3e-3, threshold=1_024,
            hockney=self.HOCKNEY, delta_mode="global",
        )
        med = MED.alltoall(6, 4_096)
        assert sig.predict_med(med) == pytest.approx(sig.predict(6, 4_096))

    def test_delta_eligible_rounds_counts_bottleneck(self):
        med = PatternSpec("hotspot", {"targets": 1, "factor": 8.0}).med(6, 1_000)
        # Only the 8000-byte messages into the hotspot cross M=4000;
        # the bottleneck is the hotspot's in-degree.
        assert delta_eligible_rounds(med, 4_000) == 5
        assert delta_eligible_rounds(med, 10_000) == 0
        assert delta_eligible_rounds(med, 0) == 5  # every arc counts

    def test_incast_prediction_exceeds_uniform(self):
        sig = ContentionSignature(
            gamma=4.36, delta=4.9e-3, threshold=8_192, hockney=self.HOCKNEY
        )
        uniform = MED.alltoall(8, 32_768)
        incast = PatternSpec("hotspot", {"targets": 1, "factor": 8.0}).med(8, 32_768)
        assert sig.predict_med(incast) > sig.predict_med(uniform)
        assert combined_lower_bound(incast, self.HOCKNEY) > combined_lower_bound(
            uniform, self.HOCKNEY
        )


class TestCliIntegration:
    def test_list_patterns_section(self, capsys):
        from repro.cli import main

        assert main(["list", "patterns"]) == 0
        out = capsys.readouterr().out
        for name in ("uniform", "hotspot", "zipf", "random-sparse"):
            assert name in out

    def test_sweep_pattern_flag(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "sweep", "--clusters", "gigabit-ethernet", "--nprocs", "4",
            "--sizes", "2kB", "--pattern", "hotspot:targets=2,factor=4",
            "--pattern", "shift", "--reps", "1",
            "--cache-dir", str(tmp_path),
            "--csv", str(tmp_path / "rows.csv"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "simulated : 2" in out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "simulated : 0" in out
        assert "cached    : 2" in out
        text = (tmp_path / "rows.csv").read_text()
        assert "hotspot(factor=4,targets=2)" in text
        assert "shift" in text

    def test_sweep_bad_pattern_param_is_clean_exit(self, capsys):
        from repro.cli import main

        assert main(
            ["sweep", "--pattern", "hotspot:targets", "--reps", "1"]
        ) == 2
        assert "pattern" in capsys.readouterr().err

    def test_sweep_unknown_pattern_is_clean_exit(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--pattern", "teleport", "--reps", "1"]) == 2
        assert "unknown pattern" in capsys.readouterr().err

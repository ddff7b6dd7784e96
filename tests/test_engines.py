"""The engine layer: registry, lowering, vector-vs-fluid equivalence,
cache-key stability, env/CLI plumbing and the stats columns."""

from __future__ import annotations

import dataclasses

import pytest

from repro import api
from repro.cli import main
from repro.clusters.profiles import get_cluster
from repro.engines import DEFAULT_ENGINE, ENGINE_ENV, default_engine
from repro.exceptions import (
    LoweringError,
    MeasurementError,
    ScenarioError,
    UnknownNameError,
)
from repro.measure.alltoall import measure_alltoall
from repro.registry import ENGINES
from repro.scenario import ScenarioSpec
from repro.simmpi.lowering import lower_program
from repro.sweeps.cache import point_key, profile_fingerprint
from repro.sweeps.spec import SweepPoint, SweepSpec
from repro.traffic import as_pattern

REL_TOL = 1e-6

#: The three paper fabrics.  The bit-exact equivalence suite disables
#: the TCP loss overlay (lossy runs sample the same stochastic process
#: through different RNG streams, so they only match statistically —
#: see TestLossyVector).
PAPER_CLUSTERS = ("fast-ethernet", "gigabit-ethernet", "myrinet")

#: Scalar (regular All-to-All) algorithms — every registered name that
#: is not a matrix variant.
SCALAR_ALGORITHMS = tuple(
    name for name in api.list_algorithms() if not name.startswith("alltoallv-")
)


def _lossless(name: str):
    return get_cluster(name).with_overrides(loss=None)


def _mean(cluster, engine, **kwargs):
    kwargs.setdefault("reps", 1)
    kwargs.setdefault("seed", 0)
    sample = measure_alltoall(cluster, kwargs.pop("n", 6), kwargs.pop("m", 4096), engine=engine, **kwargs)
    return sample.mean_time


class TestRegistry:
    def test_builtins_registered(self):
        assert "fluid" in ENGINES and "vector" in ENGINES
        assert api.list_engines() == ["fluid", "vector"]

    def test_aliases_resolve(self):
        assert ENGINES.canonical("reference") == "fluid"
        assert ENGINES.canonical("batched") == "vector"

    def test_unknown_engine_raises(self):
        with pytest.raises(UnknownNameError):
            ENGINES.get("verlet")


class TestEquivalence:
    """The tentpole acceptance bar: vector matches fluid within 1e-6
    relative on every lossless algorithm x cluster combination."""

    @pytest.mark.parametrize("cluster_name", PAPER_CLUSTERS)
    @pytest.mark.parametrize("algorithm", SCALAR_ALGORITHMS)
    def test_scalar_algorithms(self, cluster_name, algorithm):
        cluster = _lossless(cluster_name)
        fluid = _mean(cluster, "fluid", algorithm=algorithm)
        vector = _mean(cluster, "vector", algorithm=algorithm)
        assert vector == pytest.approx(fluid, rel=REL_TOL)

    @pytest.mark.parametrize("cluster_name", PAPER_CLUSTERS)
    def test_rendezvous_sizes(self, cluster_name):
        # 70 kB crosses every profile's rendezvous threshold, so the
        # two-phase protocol replay (RTS edge) is exercised too.
        cluster = _lossless(cluster_name)
        fluid = _mean(cluster, "fluid", m=70_000)
        vector = _mean(cluster, "vector", m=70_000)
        assert vector == pytest.approx(fluid, rel=REL_TOL)

    @pytest.mark.parametrize("pattern", ("zipf", "hotspot", "shift"))
    @pytest.mark.parametrize("algorithm", ("direct", "rounds"))
    def test_irregular_patterns(self, pattern, algorithm):
        cluster = _lossless("gigabit-ethernet")
        spec = as_pattern(pattern)
        fluid = _mean(cluster, "fluid", algorithm=algorithm, pattern=spec)
        vector = _mean(cluster, "vector", algorithm=algorithm, pattern=spec)
        assert vector == pytest.approx(fluid, rel=REL_TOL)

    def test_seed_sensitivity_matches(self):
        # Skew/jitter RNG streams must replay identically per seed.
        cluster = _lossless("gigabit-ethernet")
        for seed in (0, 3):
            fluid = _mean(cluster, "fluid", seed=seed)
            vector = _mean(cluster, "vector", seed=seed)
            assert vector == pytest.approx(fluid, rel=REL_TOL)


class TestVectorLimits:
    def test_lowering_rejects_clock_reads(self):
        def clocky(ctx, msg_size):
            _ = ctx.now
            yield from ()

        with pytest.raises(LoweringError, match="ctx.now"):
            lower_program(clocky, 4, 2_048)


def _ragged_edge_core():
    """Lossless Fast Ethernet on 3-host edge switches: routes inside an
    edge switch are shorter than routes through the core, so the vector
    engine pads its link rows."""
    from repro.simnet.topology import edge_core

    return _lossless("fast-ethernet").with_overrides(
        topology_factory=lambda n: edge_core(
            n, nic_bandwidth=12.2e6, hosts_per_edge=3,
            trunk_bandwidth=117e6, core_backplane=2e9,
        )
    )


def _with_hol(cluster):
    from repro.simnet.entities import LinkKind
    from repro.simnet.penalty import HolPenalty

    return cluster.with_overrides(hol=HolPenalty(eta={
        LinkKind.HOST_RX: 0.5, LinkKind.HOST_TX: 0.25, LinkKind.TRUNK: 0.1,
    }))


def _vector_sim(cluster, n, **kwargs):
    from repro.simnet.vector import VectorSimulator

    return VectorSimulator(
        cluster.topology(n), cluster.transport, nprocs=n,
        loss_params=cluster.loss, hol_penalty=cluster.hol,
        start_skew_scale=cluster.start_skew_scale, **kwargs,
    )


class TestVectorIncidence:
    """Paths of the delta-maintained incidence and the single-level
    closed form that no benchmark workload reaches: padded (ragged)
    routes, HoL-penalised capacities and an attached timeline."""

    def test_edge_core_routes_are_ragged(self):
        topology = _ragged_edge_core().topology(8)
        lengths = {
            len(topology.route(s, d))
            for s in range(8) for d in range(8) if s != d
        }
        assert len(lengths) > 1

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_ragged_routes_with_jitter(self, seed):
        cluster = _ragged_edge_core()
        assert cluster.transport.jitter_scale > 0
        fluid = _mean(cluster, "fluid", n=8, seed=seed)
        vector = _mean(cluster, "vector", n=8, seed=seed)
        assert vector == pytest.approx(fluid, rel=REL_TOL)

    @pytest.mark.parametrize(
        "make", (lambda: _lossless("myrinet"), _ragged_edge_core),
        ids=("myrinet", "ragged-edge-core"),
    )
    def test_hol_penalty(self, make):
        cluster = _with_hol(make())
        assert cluster.hol.enabled
        fluid = _mean(cluster, "fluid", n=8)
        vector = _mean(cluster, "vector", n=8)
        assert vector == pytest.approx(fluid, rel=REL_TOL)

    def test_timeline_leaves_result_unchanged(self):
        from repro.obs import LinkTimeline
        from repro.registry import ALGORITHMS
        from repro.simnet.entities import LinkKind

        cluster = _ragged_edge_core()
        lowered = lower_program(ALGORITHMS.get("direct"), 8, 4_096)
        plain = _vector_sim(cluster, 8, seed=1).run(lowered)
        timeline = LinkTimeline.for_topology(cluster.topology(8))
        sim = _vector_sim(cluster, 8, seed=1, timeline=timeline)
        observed = sim.run(lowered)
        assert observed.rank_finish_times == plain.rank_finish_times
        assert observed.events_processed == plain.events_processed
        assert observed.stats == plain.stats
        # Every wire byte leaves through exactly one host NIC; a flow
        # completes within half a byte of its end.
        tx = [
            i for i, link in enumerate(cluster.topology(8).links)
            if link.kind is LinkKind.HOST_TX
        ]
        missing = sim._msg_wire.sum() - timeline.delivered_bytes[tx].sum()
        assert 0.0 <= missing <= 0.5 * observed.flows_completed

    def test_closed_form_answers_most_solves(self, monkeypatch):
        # Jittered GigE at n=32: most epochs need one filling level, so
        # only a minority of solves reach the full fill.
        from repro.registry import ALGORITHMS
        from repro.simnet import vector

        fills = []
        full_fill = vector.max_min_allocation

        def counting(*args, **kwargs):
            fills.append(1)
            return full_fill(*args, **kwargs)

        monkeypatch.setattr(vector, "max_min_allocation", counting)
        sim = _vector_sim(_lossless("gigabit-ethernet"), 32, seed=0)
        sim.run(lower_program(ALGORITHMS.get("direct"), 32, 4_096))
        assert 0 < len(fills) < sim.solves / 2


class TestLossyVector:
    """The lossy overlay: acceptance, statistical equivalence with the
    fluid oracle, surfaced counters, stall/resume traces, determinism,
    and the warm-start solve cache."""

    #: Paired-seed configurations with measurable loss activity: the
    #: gige backplane saturates past n~11 (overload 9 at n=16) and the
    #: fast-ethernet fabric loses occasionally at the same scale.
    GIGE = ("gigabit-ethernet", 16, 1_000_000)
    FE = ("fast-ethernet", 16, 1_000_000)
    SEEDS = range(20)

    def test_lossy_profile_accepted(self):
        cluster = get_cluster("gigabit-ethernet")
        assert cluster.loss is not None and cluster.loss.enabled
        sample = measure_alltoall(cluster, 8, 4_096, reps=1, engine="vector")
        assert sample.mean_time > 0

    @pytest.mark.parametrize("config", (GIGE, FE), ids=("gige", "fe"))
    def test_statistical_equivalence(self, config):
        # Same stochastic process, different RNG streams: individual
        # runs differ, paired-seed means must agree within 10%.
        cluster_name, n, m = config
        cluster = get_cluster(cluster_name)
        fluid = [
            measure_alltoall(
                cluster, n, m, reps=1, seed=s, engine="fluid"
            ).mean_time
            for s in self.SEEDS
        ]
        vector = [
            measure_alltoall(
                cluster, n, m, reps=1, seed=s, engine="vector"
            ).mean_time
            for s in self.SEEDS
        ]
        fluid_mean = sum(fluid) / len(fluid)
        vector_mean = sum(vector) / len(vector)
        assert vector_mean == pytest.approx(fluid_mean, rel=0.10)

    def test_loss_counters_surfaced(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_STATS", "1")
        cluster_name, n, m = self.GIGE
        cluster = get_cluster(cluster_name)
        sample = measure_alltoall(
            cluster, n, m, reps=2, seed=0, engine="vector"
        )
        stats = sample.sim_stats
        assert stats.engine == "vector"
        assert stats.losses > 0
        assert 0 < stats.stalls <= stats.losses

    def test_result_total_losses_matches_stats(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_STATS", "1")
        cluster_name, n, m = self.GIGE
        for engine in ("fluid", "vector"):
            sample = measure_alltoall(
                get_cluster(cluster_name), n, m, reps=1, seed=0,
                engine=engine,
            )
            assert sample.sim_stats.losses > 0

    def test_stall_resume_trace(self):
        cluster_name, n, m = self.GIGE
        sample = measure_alltoall(
            get_cluster(cluster_name), n, m, reps=1, seed=0,
            engine="vector", observe=True,
        )
        trace = sample.observed.trace
        stalls = trace.by_category("flow.stall")
        resumes = trace.by_category("flow.resume")
        assert stalls and len(stalls) == len(resumes)
        by_fid = {r["fid"]: r for r in resumes}
        for stall in stalls:
            resume = by_fid[stall["fid"]]
            # The RTO gap: resume fires exactly penalty after the stall.
            assert resume.time == pytest.approx(
                stall.time + stall["penalty"]
            )
            assert stall["penalty"] >= 0.2  # rto_min
        # Completed flows report their loss counts (not hardcoded 0).
        completes = trace.by_category("flow.complete")
        assert sum(r["losses"] for r in completes) >= len(stalls)
        # The chrome exporter renders the new categories as instants.
        from repro.obs.export import to_chrome

        out = to_chrome(trace)
        assert "flow.stall" in out and "flow.resume" in out

    def test_cross_process_loss_determinism(self):
        # Named per-flow RNG streams make the loss sequence a pure
        # function of the seed: two fresh interpreters must produce an
        # identical stall-event timeline, bit for bit.
        import json
        import os
        import subprocess
        import sys

        script = (
            "import json\n"
            "from repro.clusters.profiles import get_cluster\n"
            "from repro.measure.alltoall import measure_alltoall\n"
            "s = measure_alltoall(get_cluster('gigabit-ethernet'), 16,\n"
            "                     1_000_000, reps=1, seed=3,\n"
            "                     engine='vector', observe=True)\n"
            "trace = s.observed.trace\n"
            "events = [(float(r.time).hex(), r['fid'], r['backoff'],\n"
            "           float(r['penalty']).hex())\n"
            "          for r in trace.by_category('flow.stall')]\n"
            "print(json.dumps({'events': events,\n"
            "                  'duration': float(s.mean_time).hex()}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["PYTHONHASHSEED"] = "0"
        outputs = []
        for run in range(2):
            env["PYTHONHASHSEED"] = str(run)  # hash order must not matter
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, env=env, cwd=os.path.dirname(
                    os.path.dirname(os.path.abspath(__file__))
                ),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(json.loads(proc.stdout))
        assert outputs[0] == outputs[1]
        assert outputs[0]["events"], "expected loss events at this config"

    def test_solve_reuse_when_set_unchanged(self):
        # White-box: a resolve that sees the exact same active set skips
        # the allocation solve and keeps the rates it computed.
        import numpy as np

        from repro.simmpi.lowering import lower_program
        from repro.simnet.vector import VectorSimulator

        cluster = _lossless("gigabit-ethernet")
        from repro.registry import ALGORITHMS

        program = ALGORITHMS.get("direct")
        lowered = lower_program(program, 8, 4_096)
        sim = VectorSimulator(
            cluster.topology(8), cluster.transport, nprocs=8,
            loss_params=cluster.loss, seed=0,
        )
        sim.run(lowered)
        remote = [
            mid for mid in range(len(sim._msg_wire)) if not sim._msg_local[mid]
        ][:4]
        # Admit through the engine's own entry point, so the resolve
        # sees the delta-maintained rows and link counts.
        for mid in remote:
            sim._inject(mid)
        sim._last_advance = sim.engine.now
        solves_before = sim.solves
        sim._resolve()
        assert np.array_equal(sim._act_mids, remote)
        assert sim.solves == solves_before + 1
        rates = sim._act_rates
        reuses_before = sim.solve_reuses
        sim._resolve()  # dt == 0, same set: must not re-solve
        assert sim.solves == solves_before + 1
        assert sim.solve_reuses == reuses_before + 1
        assert sim._act_rates is rates

    def test_lossless_runs_allocate_no_loss_state(self):
        from repro.simmpi.lowering import lower_program
        from repro.simnet.vector import VectorSimulator
        from repro.registry import ALGORITHMS

        cluster = _lossless("gigabit-ethernet")
        lowered = lower_program(ALGORITHMS.get("direct"), 6, 2_048)
        sim = VectorSimulator(
            cluster.topology(6), cluster.transport, nprocs=6,
            loss_params=cluster.loss, seed=0,
        )
        result = sim.run(lowered)
        assert result.total_losses == 0
        assert sim._loss_model is None
        assert len(sim._loss_budget) == 0


class TestCacheKeyStability:
    """Default-engine cache keys must stay byte-identical to the
    pre-engine-layer (PR 5) filenames, or every user's result cache is
    silently invalidated."""

    EXPECTED = {
        "gigabit-ethernet":
            "85b64bc1fb89a639f7835b46e012923c2e3e06f008fb844be02128ec9827ac94",
        "fast-ethernet":
            "fc9c0702ef7825163475c409cd7c8f5e17e5a7cac67f4291298ebfeb6af82636",
        "myrinet":
            "0c55e19095873e30ddad88e9cb0e6a3e9659d21af0112b6403c4fa5196642b0a",
    }
    EXPECTED_PATTERN = (
        "a389d34fe2ab19c9f98053ce46ad84ba1e5155bc8af63ea02a6f7d8ef2993b71"
    )
    EXPECTED_SCENARIO = (
        "55ca616a477f1531164d90b03258eb676bea1baa6eacb55c6205c19d3a4b5661"
    )

    @pytest.mark.parametrize("cluster_name", sorted(EXPECTED))
    def test_registry_cluster_keys_unchanged(self, cluster_name):
        point = SweepPoint(
            cluster=cluster_name, n_processes=8, msg_size=4096,
            algorithm="direct", seed=0, reps=3,
        )
        key = point_key(point, profile_fingerprint(get_cluster(cluster_name)))
        assert key == self.EXPECTED[cluster_name]

    def test_pattern_point_key_unchanged(self):
        point = SweepPoint(
            cluster="gigabit-ethernet", n_processes=8, msg_size=4096,
            algorithm="bruck", seed=1, reps=2, pattern=as_pattern("zipf"),
        )
        key = point_key(
            point, profile_fingerprint(get_cluster("gigabit-ethernet"))
        )
        assert key == self.EXPECTED_PATTERN

    def test_scenario_point_key_unchanged(self):
        spec = ScenarioSpec(
            name="demo", base="gigabit-ethernet",
            transport={"jitter_scale": 0.0},
        )
        point = SweepPoint(
            cluster="demo", n_processes=8, msg_size=4096,
            algorithm="direct", seed=0, reps=3,
        )
        key = point_key(
            point, profile_fingerprint(spec.build_profile()),
            scenario=spec.cache_payload(),
        )
        assert key == self.EXPECTED_SCENARIO

    #: Spec-layer keys: pattern params, non-identity placements (named
    #: and explicit) and a scenario carrying a placement.
    EXPECTED_SPEC_POINTS = {
        "round-robin": (
            {"placement": {"name": "round-robin", "params": {"groups": 4.0}}},
            {"placement": "round-robin(groups=4)"},
            "c265226250d2927927211db3b44d841a53eadc184db3038d8e584b21cbb2aae6",
        ),
        "explicit": (
            {"placement": [1, 0, 2, 3, 4, 5, 6, 7]},
            {"placement": "explicit[1,0,2,3,4,5,6,7]"},
            "5b79b8084b9545b8a9a8500de5b0358fa4c60d78facee64729ae4fa655ce0bff",
        ),
        "pattern+placement": (
            {
                "pattern": {
                    "name": "hotspot", "params": {"targets": 2, "factor": 8.0},
                },
                "placement": {"name": "round-robin", "params": {"groups": 2}},
            },
            {
                "pattern": "hotspot(factor=8,targets=2)",
                "placement": "round-robin(groups=2)",
            },
            "8dfda70c73a8ce80bee96ca6d54d824ebdbae04346f77337fe6634dbe8071c57",
        ),
    }
    EXPECTED_PLACED_SCENARIO = (
        "e224ce907f8ad4ca0764f97d20a20a575f25078252e1d3d8f3f90f15fbf486ce"
    )

    @pytest.mark.parametrize("case", sorted(EXPECTED_SPEC_POINTS))
    def test_spec_point_keys_unchanged(self, case):
        fields, keys, expected = self.EXPECTED_SPEC_POINTS[case]
        point = SweepPoint(
            cluster="gigabit-ethernet", n_processes=8, msg_size=4096,
            algorithm="direct", seed=0, reps=3, **fields,
        )
        assert {
            name: getattr(point, name).key() for name in keys
        } == keys
        key = point_key(
            point, profile_fingerprint(get_cluster("gigabit-ethernet"))
        )
        assert key == expected

    def test_placed_scenario_point_key_unchanged(self):
        spec = ScenarioSpec(
            name="demo", base="gigabit-ethernet",
            transport={"jitter_scale": 0.0},
            placement={"name": "round-robin", "params": {"groups": 2}},
        )
        point = SweepPoint(
            cluster="demo", n_processes=8, msg_size=4096,
            algorithm="direct", seed=0, reps=3,
        )
        key = point_key(
            point, profile_fingerprint(spec.build_profile()),
            scenario=spec.cache_payload(),
        )
        assert key == self.EXPECTED_PLACED_SCENARIO

    def test_non_default_engine_changes_key(self):
        base = SweepPoint(
            cluster="myrinet", n_processes=8, msg_size=4096,
            algorithm="direct", seed=0, reps=3,
        )
        vec = dataclasses.replace(base, engine="vector")
        fingerprint = profile_fingerprint(get_cluster("myrinet"))
        assert "engine" not in base.key_payload()
        assert vec.key_payload()["engine"] == "vector"
        assert point_key(base, fingerprint) != point_key(vec, fingerprint)


class TestEngineThreading:
    def test_point_resolves_default_engine_eagerly(self):
        point = SweepPoint(
            cluster="myrinet", n_processes=4, msg_size=2048,
            algorithm="direct", seed=0, reps=1,
        )
        assert point.engine == DEFAULT_ENGINE

    def test_point_canonicalises_alias(self):
        point = SweepPoint(
            cluster="myrinet", n_processes=4, msg_size=2048,
            algorithm="direct", seed=0, reps=1, engine="batched",
        )
        assert point.engine == "vector"

    def test_sweep_spec_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            SweepSpec(
                clusters=("myrinet",), nprocs=(4,), sizes=(2048,),
                engine="verlet",
            )

    def test_sweep_spec_threads_engine_to_points(self):
        spec = SweepSpec(
            clusters=("myrinet",), nprocs=(4,), sizes=(2048,),
            engine="vector",
        )
        assert all(p.engine == "vector" for p in spec.points())

    def test_scenario_spec_collapses_default_engine(self):
        spec = ScenarioSpec(name="d", base="myrinet", engine="fluid")
        assert spec.engine is None
        assert "engine" not in spec.to_dict()
        assert "engine" not in spec.cache_payload()

    def test_scenario_spec_round_trips_engine(self):
        spec = ScenarioSpec(name="d", base="myrinet", engine="vector")
        assert spec.engine == "vector"
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.cache_payload()["engine"] == "vector"

    def test_scenario_spec_rejects_unknown_engine(self):
        with pytest.raises(ScenarioError, match="unknown engine"):
            ScenarioSpec(name="d", base="myrinet", engine="verlet")

    def test_measure_rejects_unknown_engine(self):
        with pytest.raises(MeasurementError, match="unknown"):
            measure_alltoall(
                get_cluster("myrinet"), 4, 2048, reps=1, engine="verlet"
            )


class TestEnvDefault:
    def test_default_is_fluid(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert default_engine() == "fluid"

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "batched")
        assert default_engine() == "vector"
        point = SweepPoint(
            cluster="myrinet", n_processes=4, msg_size=2048,
            algorithm="direct", seed=0, reps=1,
        )
        assert point.engine == "vector"
        assert point.key_payload()["engine"] == "vector"

    def test_malformed_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "verlet")
        with pytest.raises(UnknownNameError, match=ENGINE_ENV):
            default_engine()


class TestStatsColumns:
    def test_rows_plain_by_default(self, monkeypatch):
        from repro.exec.sinks import ROW_FIELDS, row_fields

        monkeypatch.delenv("REPRO_SIM_STATS", raising=False)
        assert row_fields() == ROW_FIELDS

    def test_stats_columns_when_enabled(self, monkeypatch):
        from repro.exec.sinks import ROW_FIELDS, STATS_ROW_FIELDS, row_fields
        from repro.sweeps.runner import SweepRunner

        monkeypatch.setenv("REPRO_SIM_STATS", "1")
        assert row_fields() == ROW_FIELDS + STATS_ROW_FIELDS
        runner = SweepRunner(workers=1, cache=None, executor="serial")
        spec = SweepSpec(
            clusters=("myrinet",), nprocs=(4,), sizes=(2048,),
            reps=1, engine="vector",
        )
        result = runner.run(spec)
        fields, rows = result.to_rows()
        assert fields == ROW_FIELDS + STATS_ROW_FIELDS
        row = rows[0]
        assert row["engine"] == "vector"
        assert row["sim_resolves"] > 0
        assert row["sim_epochs"] > 0
        assert row["sim_events"] > 0
        # Myrinet is lossless: counters present, zero.
        assert row["sim_losses"] == 0
        assert row["sim_stalls"] == 0

    def test_sample_carries_merged_stats(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_STATS", "1")
        sample = measure_alltoall(
            get_cluster("myrinet"), 4, 2048, reps=2, engine="fluid"
        )
        stats = getattr(sample, "sim_stats", None)
        assert stats is not None and stats.engine == "fluid"
        assert stats.resolves > 0


class TestCli:
    def test_list_engines(self, capsys):
        assert main(["list", "engines"]) == 0
        out = capsys.readouterr().out
        assert "fluid" in out and "vector" in out

    def test_sweep_unknown_engine_clean_exit(self, capsys):
        code = main([
            "sweep", "--clusters", "myrinet", "--nprocs", "4",
            "--sizes", "2kB", "--no-cache", "--engine", "verlet",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown engine 'verlet'" in err

    def test_characterize_unknown_engine_clean_exit(self, capsys):
        assert main(["characterize", "myrinet", "--engine", "verlet"]) == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_sweep_vector_engine_runs(self, capsys):
        code = main([
            "sweep", "--clusters", "myrinet", "--nprocs", "4",
            "--sizes", "2kB", "--no-cache", "--engine", "vector",
        ])
        assert code == 0
        assert "simulated : 1" in capsys.readouterr().out

    def test_sweep_vector_on_lossy_cluster_runs(self, capsys):
        # Loss-enabled profiles run on the vector engine since the loss
        # overlay was vectorized (they used to be rejected).
        code = main([
            "sweep", "--clusters", "gigabit-ethernet", "--nprocs", "4",
            "--sizes", "2kB", "--no-cache", "--engine", "vector",
        ])
        assert code == 0
        assert "simulated : 1" in capsys.readouterr().out

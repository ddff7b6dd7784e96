"""Exact results of the message protocol on both engines.

The fluid and vector engines share one implementation of the MPI wire
protocol (:mod:`repro.simmpi.protocol`).  These tests pin the exact
``repr`` of the completion time and the full :class:`SimStats` of small
runs that each exercise one protocol path, so any reordering of
protocol events (or of random draws) shows up as a changed value rather
than as a drift inside a relative tolerance.
"""

import pytest

from repro.clusters.profiles import get_cluster
from repro.engines import run_fluid
from repro.simmpi.collectives import alltoall_direct
from repro.simmpi.lowering import lower_program
from repro.simmpi.runtime import Runtime
from repro.simmpi.transport import TransportParams
from repro.simnet.entities import LinkKind
from repro.simnet.loss import LossParams
from repro.simnet.stats import SimStats
from repro.simnet.topology import single_switch
from repro.simnet.trace import Trace
from repro.simnet.vector import VectorSimulator


def _transport(**kwargs) -> TransportParams:
    defaults = dict(base_latency=10e-6, jitter_scale=0.0)
    defaults.update(kwargs)
    return TransportParams(**defaults)


def _self_and_neighbour(ctx, nbytes):
    """Each rank sends to itself and to its right neighbour."""
    right = (ctx.rank + 1) % ctx.size
    left = (ctx.rank - 1) % ctx.size
    sends = [ctx.isend(ctx.rank, nbytes, tag=1), ctx.isend(right, nbytes, tag=2)]
    recvs = [ctx.irecv(ctx.rank, tag=1), ctx.irecv(left, tag=2)]
    yield sends + recvs


_LOSSY = LossParams(
    coeff_per_byte=2e-6,
    sat_flows={LinkKind.HOST_RX: 2, LinkKind.HOST_TX: 2},
    rto_min=0.001,
    rto_max=0.016,
    chain_probability=0.6,
    chain_decay=0.9,
    chain_max=3,
)

#: name -> (nprocs, transport, program, msg, engine kwargs)
CASES = {
    "eager": (4, _transport(), alltoall_direct, 2_000, {}),
    "rendezvous": (4, _transport(), alltoall_direct, 200_000, {}),
    "self-message": (4, _transport(), _self_and_neighbour, 10_000, {}),
    "mux-above": (
        6, _transport(mux_overhead=20e-6, mux_threshold=1_000), alltoall_direct, 4_000, {},
    ),
    "mux-below": (
        6, _transport(mux_overhead=20e-6, mux_threshold=1_000), alltoall_direct, 500, {},
    ),
    "sender-concurrency-1": (
        5, _transport(sender_concurrency=1), alltoall_direct, 30_000, {},
    ),
    "jitter-skew": (
        6, _transport(jitter_scale=20e-6, mux_overhead=20e-6, mux_threshold=1_000),
        alltoall_direct, 8_000,
        dict(start_skew_scale=50e-6, seed=3),
    ),
    "lossy-chained": (
        6, _transport(), alltoall_direct, 200_000,
        dict(loss_params=_LOSSY, seed=1),
    ),
}


def run_case(name: str, engine: str):
    nprocs, transport, program, msg, kwargs = CASES[name]
    topology = single_switch(nprocs, nic_bandwidth=100e6)
    if engine == "fluid":
        return Runtime(topology, transport, nprocs=nprocs, **kwargs).run(program, msg)
    lowered = lower_program(program, nprocs, msg)
    return VectorSimulator(topology, transport, nprocs=nprocs, **kwargs).run(lowered)


#: ``(repr(duration), stats)`` per case and engine.  A changed value means
#: the order of protocol events or random draws changed.
EXPECTED = {
    ("eager", "fluid"): (
        "8.039999999999999e-05",
        SimStats("fluid", resolves=2, epochs=1, events=34, losses=0, stalls=0),
    ),
    ("eager", "vector"): (
        "8.04e-05",
        SimStats("vector", resolves=2, epochs=1, events=34, losses=0, stalls=0),
    ),
    ("jitter-skew", "fluid"): (
        "0.000544815477003605",
        SimStats("fluid", resolves=60, epochs=59, events=156, losses=0, stalls=0),
    ),
    ("jitter-skew", "vector"): (
        "0.000544815477003605",
        SimStats("vector", resolves=60, epochs=59, events=156, losses=0, stalls=0),
    ),
    ("lossy-chained", "fluid"): (
        "0.02539439328748348",
        SimStats("fluid", resolves=45, epochs=39, events=159, losses=31, stalls=12),
    ),
    ("lossy-chained", "vector"): (
        "0.020103152674814252",
        SimStats("vector", resolves=38, epochs=33, events=149, losses=19, stalls=9),
    ),
    ("mux-above", "fluid"): (
        "0.00032690000000000003",
        SimStats("fluid", resolves=2, epochs=1, events=104, losses=0, stalls=0),
    ),
    ("mux-above", "vector"): (
        "0.00032690000000000003",
        SimStats("vector", resolves=2, epochs=1, events=104, losses=0, stalls=0),
    ),
    ("mux-below", "fluid"): (
        "4.6099999999999996e-05",
        SimStats("fluid", resolves=2, epochs=1, events=74, losses=0, stalls=0),
    ),
    ("mux-below", "vector"): (
        "4.6099999999999996e-05",
        SimStats("vector", resolves=2, epochs=1, events=74, losses=0, stalls=0),
    ),
    ("rendezvous", "fluid"): (
        "0.0062853",
        SimStats("fluid", resolves=2, epochs=1, events=46, losses=0, stalls=0),
    ),
    ("rendezvous", "vector"): (
        "0.0062853",
        SimStats("vector", resolves=2, epochs=1, events=46, losses=0, stalls=0),
    ),
    ("self-message", "fluid"): (
        "0.0001197",
        SimStats("fluid", resolves=2, epochs=1, events=22, losses=0, stalls=0),
    ),
    ("self-message", "vector"): (
        "0.0001197",
        SimStats("vector", resolves=2, epochs=1, events=22, losses=0, stalls=0),
    ),
    ("sender-concurrency-1", "fluid"): (
        "0.00126628",
        SimStats("fluid", resolves=8, epochs=4, events=58, losses=0, stalls=0),
    ),
    ("sender-concurrency-1", "vector"): (
        "0.00126628",
        SimStats("vector", resolves=8, epochs=4, events=58, losses=0, stalls=0),
    ),
}


@pytest.mark.parametrize("engine", ["fluid", "vector"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_exact_result_pinned(name, engine):
    result = run_case(name, engine)
    duration, stats = EXPECTED[name, engine]
    assert (repr(result.duration), result.stats) == (duration, stats)


def test_lossy_case_chains_timeouts():
    # The pinned lossy case must really sample chained timeouts, or it
    # would not guard the chain draw order.
    for engine in ("fluid", "vector"):
        stats = run_case("lossy-chained", engine).stats
        assert stats.losses > stats.stalls > 0


def test_fluid_trace_identical_across_runs_in_one_process():
    cluster = get_cluster("gigabit-ethernet").with_overrides(loss=None)
    traces = []
    for _ in range(2):
        trace = Trace()
        run_fluid(cluster, 3, alltoall_direct, 1_000, 0, trace=trace)
        traces.append([(r.time, r.category, r.payload) for r in trace])
    assert traces[0] == traces[1]

"""Unit tests for the MPI-like runtime: matching, protocols, semantics."""

import pytest

from repro.exceptions import DeadlockError
from repro.simmpi.lowering import lower_program
from repro.simmpi.request import ANY_SOURCE, ANY_TAG
from repro.simmpi.runtime import Runtime
from repro.simmpi.transport import TransportParams
from repro.simnet.topology import single_switch
from repro.simnet.vector import VectorSimulator


class _LoweringVector(VectorSimulator):
    """The vector engine, lowering each program it is asked to run."""

    def run(self, program):
        return super().run(lower_program(program, self.nprocs))


#: Both engines, each with ``run(program)``.
ENGINES = {"fluid": Runtime, "vector": _LoweringVector}


def make_runtime(n=2, nic=100e6, engine="fluid", **transport_kwargs) -> Runtime:
    defaults = dict(
        name="test",
        base_latency=10e-6,
        eager_threshold=65_536,
        envelope_bytes=0,
        mss=1_000_000_000,  # effectively no segmentation
        per_segment_wire_bytes=0,
        per_segment_host_time=0.0,
        per_message_send_overhead=0.0,
        ctrl_overhead=0.0,
        jitter_scale=0.0,
    )
    defaults.update(transport_kwargs)
    topo = single_switch(n, nic_bandwidth=nic)
    return ENGINES[engine](topo, TransportParams(**defaults), nprocs=n, seed=0)


class TestBasicSendRecv:
    def test_eager_message_delivered(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.isend(1, 1000, tag=5)
            else:
                req = ctx.irecv(0, tag=5)
                yield req
                assert req.nbytes == 1000
                assert req.source == 0

        make_runtime().run(prog)

    def test_one_way_time_close_to_alpha_plus_m_beta(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.isend(1, 100_000_000)  # rendezvous path
            else:
                yield ctx.irecv(0)

        result = make_runtime().run(prog)
        # wire time 1s + handshake/latency epsilon
        assert result.duration == pytest.approx(1.0, rel=0.01)

    def test_recv_before_send_matches(self):
        def prog(ctx):
            if ctx.rank == 1:
                req = ctx.irecv(0, tag=1)
                yield req
            else:
                yield ctx.isend(1, 10, tag=1)

        make_runtime().run(prog)

    def test_unexpected_message_queued_until_recv(self):
        # Rank 1 posts its receive only after waiting on an unrelated
        # exchange, so rank 0's message sits in the unexpected queue.
        def prog(ctx):
            if ctx.rank == 0:
                early = ctx.isend(1, 10, tag=9)
                yield early
                yield ctx.irecv(1, tag=123)
            else:
                yield ctx.isend(0, 5, tag=123)
                late = ctx.irecv(0, tag=9)
                yield late
                assert late.nbytes == 10

        make_runtime().run(prog)


class TestMatchingSemantics:
    def test_tag_selectivity(self):
        def prog(ctx):
            if ctx.rank == 0:
                a = ctx.isend(1, 100, tag=1)
                b = ctx.isend(1, 200, tag=2)
                yield [a, b]
            else:
                two = ctx.irecv(0, tag=2)
                one = ctx.irecv(0, tag=1)
                yield [one, two]
                assert one.nbytes == 100
                assert two.nbytes == 200

        make_runtime().run(prog)

    def test_any_source_any_tag(self):
        def prog(ctx):
            if ctx.rank == 0:
                req = ctx.irecv(ANY_SOURCE, tag=ANY_TAG)
                yield req
                assert req.source == 1
                assert req.tag == 42
            else:
                yield ctx.isend(0, 77, tag=42)

        make_runtime().run(prog)

    def test_non_overtaking_same_pair_same_tag(self):
        # Two same-tag messages must match posted receives in order.
        def prog(ctx):
            if ctx.rank == 0:
                first = ctx.isend(1, 1000, tag=7)
                second = ctx.isend(1, 2000, tag=7)
                yield [first, second]
            else:
                r1 = ctx.irecv(0, tag=7)
                r2 = ctx.irecv(0, tag=7)
                yield [r1, r2]
                assert r1.nbytes == 1000
                assert r2.nbytes == 2000

        make_runtime().run(prog)

    def test_non_overtaking_eager_after_rendezvous(self):
        # A big rendezvous message followed by a small eager one on the
        # same pair: MPI order must still hold.
        def prog(ctx):
            if ctx.rank == 0:
                big = ctx.isend(1, 200_000, tag=7)  # rendezvous
                small = ctx.isend(1, 8, tag=7)  # eager
                yield [big, small]
            else:
                r1 = ctx.irecv(0, tag=7)
                r2 = ctx.irecv(0, tag=7)
                yield [r1, r2]
                assert r1.nbytes == 200_000
                assert r2.nbytes == 8

        make_runtime().run(prog)

    def test_wildcard_fifo_ordering(self):
        def prog(ctx):
            if ctx.rank == 0:
                a = ctx.isend(1, 10, tag=1)
                b = ctx.isend(1, 20, tag=2)
                yield [a, b]
            else:
                r1 = ctx.irecv(ANY_SOURCE, tag=ANY_TAG)
                r2 = ctx.irecv(ANY_SOURCE, tag=ANY_TAG)
                yield [r1, r2]
                assert (r1.nbytes, r2.nbytes) == (10, 20)

        make_runtime().run(prog)


class TestSelfMessages:
    def test_send_to_self_completes(self):
        def prog(ctx):
            if ctx.rank == 0:
                send = ctx.isend(0, 1234, tag=3)
                recv = ctx.irecv(0, tag=3)
                yield [send, recv]
                assert recv.nbytes == 1234
            else:
                return
                yield  # pragma: no cover

        make_runtime().run(prog)

    def test_self_message_never_touches_network(self):
        runtime = make_runtime()

        def prog(ctx):
            if ctx.rank == 0:
                send = ctx.isend(0, 10_000, tag=3)
                recv = ctx.irecv(0, tag=3)
                yield [send, recv]
            else:
                return
                yield  # pragma: no cover

        result = runtime.run(prog)
        assert result.flows_completed == 0


class TestProtocols:
    def test_rendezvous_slower_than_eager_for_same_payload(self):
        # Same payload, flip the protocol by moving the threshold.
        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.isend(1, 50_000)
            else:
                yield ctx.irecv(0)

        eager = make_runtime(eager_threshold=1_000_000).run(prog)
        rendezvous = make_runtime(eager_threshold=1_000).run(prog)
        assert rendezvous.duration > eager.duration

    def test_envelope_bytes_slow_small_messages(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.isend(1, 100)
            else:
                yield ctx.irecv(0)

        lean = make_runtime(envelope_bytes=0).run(prog)
        fat = make_runtime(envelope_bytes=100_000).run(prog)
        assert fat.duration > lean.duration

    def test_sender_concurrency_serialises(self):
        def prog(ctx):
            if ctx.rank == 0:
                reqs = [ctx.isend(dst, 50_000_000) for dst in (1, 2)]
                yield reqs
            else:
                yield ctx.irecv(0)

        def run(concurrency):
            topo = single_switch(3, nic_bandwidth=100e6)
            params = TransportParams(
                name="t", base_latency=0.0, eager_threshold=10**9,
                envelope_bytes=0, mss=10**9, per_segment_wire_bytes=0,
                sender_concurrency=concurrency, jitter_scale=0.0,
                per_message_send_overhead=0.0, ctrl_overhead=0.0,
            )
            return Runtime(topo, params, nprocs=3, seed=0).run(prog)

        shared = run(None)  # both flows share the TX NIC: 1s total
        serial = run(1)  # one after the other: also 1s total... but
        # with eager_threshold high, rendezvous handshakes pipeline;
        # equal total is expected — check per-flow overlap instead via
        # duration equality.
        assert shared.duration == pytest.approx(serial.duration, rel=0.05)

    def test_mux_overhead_charged_above_threshold(self):
        def prog(ctx):
            n = ctx.size
            if ctx.rank < n - 1:
                yield ctx.isend(n - 1, 100_000)
            else:
                yield [ctx.irecv(src) for src in range(n - 1)]

        quiet = make_runtime(4, mux_overhead=0.0).run(prog)
        noisy = make_runtime(
            4, mux_overhead=0.05, mux_threshold=1_000
        ).run(prog)
        # 3 concurrent inbound messages, serialized 50 ms demux each.
        assert noisy.duration - quiet.duration > 0.09

    def test_mux_not_charged_below_threshold(self):
        def prog(ctx):
            n = ctx.size
            if ctx.rank < n - 1:
                yield ctx.isend(n - 1, 100)
            else:
                yield [ctx.irecv(src) for src in range(n - 1)]

        quiet = make_runtime(4, mux_overhead=0.0).run(prog)
        noisy = make_runtime(
            4, mux_overhead=0.05, mux_threshold=1_000
        ).run(prog)
        assert noisy.duration == pytest.approx(quiet.duration, rel=0.05)


class TestLifecycle:
    def test_deadlock_detected(self):
        def prog(ctx):
            yield ctx.irecv((ctx.rank + 1) % ctx.size, tag=1)

        with pytest.raises(DeadlockError):
            make_runtime().run(prog)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_run_twice_rejected(self, engine):
        def prog(ctx):
            return
            yield  # pragma: no cover

        runtime = make_runtime(engine=engine)
        runtime.run(prog)
        with pytest.raises(Exception, match="once"):
            runtime.run(prog)

    def test_non_generator_program_rejected(self):
        def prog(ctx):
            return None

        with pytest.raises(TypeError, match="generator"):
            make_runtime().run(prog)

    def test_bad_yield_type_rejected(self):
        def prog(ctx):
            yield 42

        with pytest.raises(TypeError):
            make_runtime().run(prog)

    def test_invalid_destination_rejected(self):
        def prog(ctx):
            yield ctx.isend(99, 10)

        with pytest.raises(ValueError, match="destination"):
            make_runtime().run(prog)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_rank_finish_times_recorded(self, engine):
        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.isend(1, 1000)
            else:
                yield ctx.irecv(0, tag=0)

        result = make_runtime(engine=engine).run(prog)
        assert len(result.rank_finish_times) == 2
        assert result.duration == max(result.rank_finish_times)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_nprocs_beyond_hosts_rejected(self, engine):
        topo = single_switch(2, nic_bandwidth=1e8)
        with pytest.raises(ValueError, match="exceeds"):
            ENGINES[engine](topo, TransportParams(), nprocs=5)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_negative_start_skew_rejected(self, engine):
        topo = single_switch(2, nic_bandwidth=1e8)
        with pytest.raises(ValueError, match="start_skew_scale"):
            ENGINES[engine](topo, TransportParams(), start_skew_scale=-1e-6)

    def test_sendrecv_helper(self):
        def prog(ctx):
            partner = 1 - ctx.rank
            recv = yield from ctx.sendrecv(partner, 500, partner, tag=4)
            assert recv.nbytes == 500

        make_runtime().run(prog)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_start_skew_shifts_completion(self, engine):
        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.isend(1, 1000)
            else:
                yield ctx.irecv(0, tag=0)

        topo = single_switch(2, nic_bandwidth=100e6)
        params = TransportParams(jitter_scale=0.0)
        no_skew = ENGINES[engine](topo, params, nprocs=2, seed=1).run(prog)
        topo2 = single_switch(2, nic_bandwidth=100e6)
        skewed = ENGINES[engine](
            topo2, params, nprocs=2, seed=1, start_skew_scale=0.5
        ).run(prog)
        assert skewed.duration > no_skew.duration

"""Direct unit tests for the TCP loss model (:mod:`repro.simnet.loss`).

Both engines consume :class:`LossModel` from their resolve loops; these
tests pin its array semantics down without a simulation in between.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simnet.entities import LinkKind
from repro.simnet.fairness import FlowPaths
from repro.simnet.loss import LossModel, LossParams

HOST_TX = LinkKind.HOST_TX
HOST_RX = LinkKind.HOST_RX
BACKPLANE = LinkKind.BACKPLANE


def _model(**kwargs) -> LossModel:
    """Three-link model (tx, backplane, rx) with small thresholds."""
    kwargs.setdefault("coeff_per_byte", 1e-6)
    kwargs.setdefault("sat_flows", {HOST_TX: 2, HOST_RX: 2, BACKPLANE: 4})
    params = LossParams(**kwargs)
    return LossModel(params, [HOST_TX, BACKPLANE, HOST_RX])


class TestParams:
    def test_enabled_iff_positive_coeff(self):
        assert not LossParams().enabled
        assert LossParams(coeff_per_byte=1e-9).enabled

    def test_rto_doubles_then_caps(self):
        params = LossParams(rto_min=0.2, rto_max=3.2)
        assert [params.rto(b) for b in range(6)] == [
            0.2, 0.4, 0.8, 1.6, 3.2, 3.2
        ]

    def test_rto_clamps_negative_backoff(self):
        assert LossParams().rto(-3) == LossParams().rto(0)

    def test_sat_flows_defaults_generous(self):
        # Kinds missing from the table effectively never overload.
        params = LossParams(sat_flows={HOST_TX: 2})
        assert params.sat_flows_for(BACKPLANE) == 1_000_000

    def test_validation(self):
        with pytest.raises(ValueError):
            LossParams(coeff_per_byte=-1.0)
        with pytest.raises(ValueError):
            LossParams(rto_min=0.0)
        with pytest.raises(ValueError):
            LossParams(chain_probability=1.0)


class _ScriptedRng:
    """Hands out scripted ``random()`` draws in order and counts them."""

    def __init__(self, draws) -> None:
        self.draws = list(draws)
        self.calls = 0

    def random(self) -> float:
        self.calls += 1
        return self.draws.pop(0)


class TestTimeout:
    def test_single_rto_without_chaining(self):
        rng = _ScriptedRng([])
        params = LossParams(rto_min=0.2, rto_max=3.2)
        assert params.timeout(1, rng) == (0.4, 2, 1)
        assert rng.calls == 0

    def test_chain_stops_at_first_failed_draw(self):
        params = LossParams(chain_probability=0.5, chain_decay=1.0, chain_max=4)
        rng = _ScriptedRng([0.1, 0.9, 0.0])
        assert params.timeout(0, rng) == (0.2 + 0.4, 2, 2)
        assert rng.calls == 2

    @pytest.mark.parametrize("chain_max", [0, 1, 3])
    def test_chain_max_caps_draws(self, chain_max):
        params = LossParams(
            rto_min=0.2, rto_max=0.8, chain_probability=0.9, chain_decay=1.0,
            chain_max=chain_max,
        )
        rng = _ScriptedRng([0.0] * 10)
        penalty, backoff, losses = params.timeout(0, rng)
        assert (backoff, losses, rng.calls) == (chain_max + 1, chain_max + 1, chain_max)
        # Every chained RTO doubles, up to rto_max.
        assert penalty == pytest.approx(sum(params.rto(b) for b in range(chain_max + 1)))

    def test_chain_decay_shrinks_probability(self):
        # Link probabilities 0.8, 0.4, 0.2: a draw of 0.3 passes the
        # first two links and fails the third.
        params = LossParams(chain_probability=0.8, chain_decay=0.5, chain_max=10)
        rng = _ScriptedRng([0.3, 0.3, 0.3, 0.0])
        _, backoff, losses = params.timeout(2, rng)
        assert (backoff, losses, rng.calls) == (5, 3, 3)


class TestOverloads:
    def test_requires_saturation_and_excess_flows(self):
        model = _model()
        counts = np.array([6, 6, 1])
        # Overloaded only where saturated AND flows exceed the threshold.
        over = model.overloads(counts, np.array([True, False, True]))
        assert over == pytest.approx([6 / 2 - 1, 0.0, 0.0])

    def test_unsaturated_links_never_overload(self):
        model = _model()
        over = model.overloads(np.array([100, 100, 100]), np.zeros(3, bool))
        assert not over.any()

    def test_within_buffering_clamps_to_zero(self):
        model = _model()
        # Saturated but fewer flows than the device buffers: no drops.
        over = model.overloads(np.array([1, 2, 1]), np.ones(3, bool))
        assert not over.any()


class TestFlowHazards:
    def test_empty_flow_set(self):
        model = _model()
        paths = FlowPaths.from_lists([])
        hazards = model.flow_hazards(
            paths.link_ids, paths.indptr, np.empty(0),
            np.zeros(3), np.zeros(3, bool),
        )
        assert hazards.shape == (0,)

    def test_disabled_params_zero_hazards(self):
        model = _model(coeff_per_byte=0.0)
        paths = FlowPaths.from_lists([(0, 1), (1, 2)])
        hazards = model.flow_hazards(
            paths.link_ids, paths.indptr, np.array([5.0, 5.0]),
            np.array([6, 6, 6]), np.ones(3, bool),
        )
        assert not hazards.any()

    def test_multi_link_worst_overload_segmented_max(self):
        model = _model()
        # Flow 0 crosses tx(0) + backplane(1); flow 1 only rx(2).
        paths = FlowPaths.from_lists([(0, 1), (2,)])
        counts = np.array([4, 12, 3])  # overloads: 1.0, 2.0, 0.5
        hazards = model.flow_hazards(
            paths.link_ids, paths.indptr, np.array([10.0, 20.0]),
            counts, np.ones(3, bool),
        )
        # Flow 0 takes the worst overload along its path (backplane 2.0).
        assert hazards[0] == pytest.approx(1e-6 * 10.0 * 2.0)
        assert hazards[1] == pytest.approx(1e-6 * 20.0 * 0.5)

    def test_hazard_scales_with_rate(self):
        model = _model()
        paths = FlowPaths.from_lists([(0,), (0,)])
        hazards = model.flow_hazards(
            paths.link_ids, paths.indptr, np.array([1.0, 3.0]),
            np.array([6, 0, 0]), np.array([True, False, False]),
        )
        assert hazards[1] == pytest.approx(3.0 * hazards[0])

    def test_backoff_factor_scaling(self):
        model = _model(backoff_hazard_factor=0.5)
        paths = FlowPaths.from_lists([(0,), (0,)])
        base = model.flow_hazards(
            paths.link_ids, paths.indptr, np.array([1.0, 1.0]),
            np.array([6, 0, 0]), np.array([True, False, False]),
        )
        scaled = model.flow_hazards(
            paths.link_ids, paths.indptr, np.array([1.0, 1.0]),
            np.array([6, 0, 0]), np.array([True, False, False]),
            backoffs=np.array([0.0, 4.0]),
        )
        assert scaled[0] == pytest.approx(base[0])
        assert scaled[1] == pytest.approx(base[1] * (1.0 + 0.5 * 4.0))

    def test_backoffs_ignored_when_factor_disabled(self):
        model = _model()  # backoff_hazard_factor = 0
        paths = FlowPaths.from_lists([(0,)])
        with_backoff = model.flow_hazards(
            paths.link_ids, paths.indptr, np.array([1.0]),
            np.array([6, 0, 0]), np.array([True, False, False]),
            backoffs=np.array([7.0]),
        )
        without = model.flow_hazards(
            paths.link_ids, paths.indptr, np.array([1.0]),
            np.array([6, 0, 0]), np.array([True, False, False]),
        )
        assert with_backoff == pytest.approx(without)

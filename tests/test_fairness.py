"""Unit + property tests for max-min fair allocation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simnet.fairness import (
    FlowPaths,
    max_min_allocation,
    single_level_allocation,
)


def alloc(capacities, paths):
    return max_min_allocation(
        np.asarray(capacities, dtype=float), FlowPaths.from_lists(paths)
    )


class TestBasics:
    def test_single_flow_gets_link_capacity(self):
        result = alloc([100.0], [(0,)])
        assert result.rates[0] == pytest.approx(100.0)

    def test_two_flows_share_equally(self):
        result = alloc([100.0], [(0,), (0,)])
        assert result.rates == pytest.approx([50.0, 50.0])

    def test_disjoint_flows_do_not_interact(self):
        result = alloc([100.0, 40.0], [(0,), (1,)])
        assert result.rates == pytest.approx([100.0, 40.0])

    def test_flow_limited_by_tightest_link(self):
        result = alloc([100.0, 10.0], [(0, 1)])
        assert result.rates[0] == pytest.approx(10.0)

    def test_empty_flow_set(self):
        result = alloc([100.0], [])
        assert result.rates.size == 0
        assert not result.saturated.any()

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="empty path"):
            alloc([100.0], [()])

    def test_unknown_link_rejected(self):
        with pytest.raises(ValueError, match="beyond"):
            alloc([100.0], [(3,)])


class TestMaxMinSemantics:
    def test_classic_three_flow_example(self):
        # Flow A uses links 0+1, B uses 0, C uses 1.
        # cap(0)=10, cap(1)=20 -> A=5, B=5, C=15 (textbook max-min).
        result = alloc([10.0, 20.0], [(0, 1), (0,), (1,)])
        assert result.rates == pytest.approx([5.0, 5.0, 15.0])

    def test_bottleneck_frees_capacity_elsewhere(self):
        # Two flows on link0 (cap 10) also cross link1 (cap 100);
        # a third flow on link1 alone gets the leftovers.
        result = alloc([10.0, 100.0], [(0, 1), (0, 1), (1,)])
        assert result.rates[0] == pytest.approx(5.0)
        assert result.rates[1] == pytest.approx(5.0)
        assert result.rates[2] == pytest.approx(90.0)

    def test_saturated_flags(self):
        result = alloc([10.0, 1000.0], [(0, 1)])
        assert bool(result.saturated[0]) is True
        assert bool(result.saturated[1]) is False

    def test_link_flow_count(self):
        result = alloc([10.0, 10.0], [(0,), (0, 1)])
        assert result.link_flow_count.tolist() == [2, 1]

    def test_link_load_never_exceeds_capacity(self):
        result = alloc([10.0, 7.0, 3.0], [(0, 1), (1, 2), (0, 2), (0,)])
        assert np.all(result.link_load <= np.array([10.0, 7.0, 3.0]) * (1 + 1e-9))


@st.composite
def random_networks(draw):
    n_links = draw(st.integers(min_value=1, max_value=6))
    capacities = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=1e4),
            min_size=n_links,
            max_size=n_links,
        )
    )
    n_flows = draw(st.integers(min_value=1, max_value=12))
    paths = []
    for _ in range(n_flows):
        length = draw(st.integers(min_value=1, max_value=n_links))
        path = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_links - 1),
                min_size=length,
                max_size=length,
                unique=True,
            )
        )
        paths.append(tuple(path))
    return capacities, paths


class TestProperties:
    @given(random_networks())
    def test_feasibility_no_link_oversubscribed(self, network):
        capacities, paths = network
        result = alloc(capacities, paths)
        assert np.all(
            result.link_load <= np.asarray(capacities) * (1 + 1e-6) + 1e-9
        )

    @given(random_networks())
    def test_all_rates_positive(self, network):
        capacities, paths = network
        result = alloc(capacities, paths)
        assert np.all(result.rates > 0)

    @given(random_networks())
    def test_every_flow_crosses_a_saturated_link(self, network):
        # Max-min optimality: each flow is blocked by at least one
        # saturated link (otherwise its rate could be raised).
        capacities, paths = network
        result = alloc(capacities, paths)
        for flow_idx, path in enumerate(paths):
            assert any(result.saturated[link] for link in path), (
                f"flow {flow_idx} has no bottleneck"
            )

    @given(random_networks())
    def test_symmetry_identical_paths_equal_rates(self, network):
        capacities, paths = network
        # Duplicate the first flow; the two clones must receive equal rate.
        paths = list(paths) + [paths[0]]
        result = alloc(capacities, paths)
        assert result.rates[0] == pytest.approx(result.rates[-1], rel=1e-9)

    @given(random_networks())
    def test_scale_invariance(self, network):
        capacities, paths = network
        base = alloc(capacities, paths)
        scaled = alloc(np.asarray(capacities) * 3.0, paths)
        assert scaled.rates == pytest.approx(base.rates * 3.0, rel=1e-9)


class TestFlowPaths:
    def test_from_lists_roundtrip(self):
        paths = FlowPaths.from_lists([(0, 2), (1,), (2, 0, 1)])
        assert paths.n_flows == 3
        assert paths.indptr.tolist() == [0, 2, 3, 6]
        assert paths.link_ids.tolist() == [0, 2, 1, 2, 0, 1]

    def test_gather_rows_vectorised_ragged(self):
        paths = FlowPaths.from_lists([(0, 2), (1,), (2, 0, 1)])
        rows = paths.gather_rows(np.array([0, 2]))
        assert paths.link_ids[rows].tolist() == [0, 2, 2, 0, 1]

    def test_gather_rows_empty(self):
        paths = FlowPaths.from_lists([(0,)])
        assert paths.gather_rows(np.array([], dtype=np.int64)).size == 0


@st.composite
def padded_incidences(draw):
    """Capacities and dense ``(F, W)`` link rows, as the vector engine
    keeps them: ragged paths are padded with the id of one extra link of
    infinite capacity.  Equal capacities make one-level fills common."""
    n_links = draw(st.integers(min_value=1, max_value=6))
    if draw(st.booleans()):
        capacities = [draw(st.floats(min_value=1.0, max_value=1e4))] * n_links
    else:
        capacities = draw(
            st.lists(
                st.floats(min_value=1.0, max_value=1e4),
                min_size=n_links,
                max_size=n_links,
            )
        )
    width = draw(st.integers(min_value=1, max_value=n_links))
    ragged = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        length = draw(st.integers(min_value=1, max_value=width)) if ragged else width
        path = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_links - 1),
                min_size=length,
                max_size=length,
                unique=True,
            )
        )
        rows.append(path + [n_links] * (width - length))
    return np.append(capacities, np.inf), np.asarray(rows, dtype=np.int64)


def _full_fill(capacities, rows, **kwargs):
    n_flows, width = rows.shape
    paths = FlowPaths(
        indptr=np.arange(0, (n_flows + 1) * width, width, dtype=np.int64),
        link_ids=rows.reshape(-1),
    )
    return max_min_allocation(capacities, paths, **kwargs)


class TestSingleLevel:
    """The closed form either declines or equals the batched fill bit
    for bit, and never declines a fill that freezes every flow at once."""

    @given(
        padded_incidences(),
        st.sampled_from([1e-9, 0.05]),
        st.booleans(),
    )
    def test_declines_or_matches_full_fill(self, incidence, tie_eps, need_loads):
        capacities, rows = incidence
        counts = np.bincount(rows.reshape(-1), minlength=len(capacities))
        full = _full_fill(capacities, rows, tie_eps=tie_eps, need_loads=need_loads)
        level = single_level_allocation(
            capacities, rows, counts, tie_eps=tie_eps, need_loads=need_loads
        )
        # Every later filling level grants strictly more than the first
        # (by over tie_eps relative), so equal rates mean one level.
        one_level = bool(np.all(full.rates == full.rates.min()))
        if level is None:
            assert not one_level
            return
        assert np.array_equal(np.full(len(rows), level.share), full.rates)
        assert np.array_equal(counts, full.link_flow_count)
        if need_loads:
            assert np.array_equal(level.link_load, full.link_load)
            assert np.array_equal(level.saturated, full.saturated)
        else:
            assert level.link_load is None and level.saturated is None

    def test_shared_bottleneck_is_one_level(self):
        rows = np.array([[0, 1], [0, 2], [0, 2]])
        capacities = np.array([30.0, 100.0, 100.0])
        counts = np.bincount(rows.reshape(-1), minlength=3)
        level = single_level_allocation(capacities, rows, counts, tie_eps=1e-9)
        assert level is not None and level.share == 10.0

    def test_two_levels_decline(self):
        # The textbook example: A=5, B=5, C=15 needs a second level.
        rows = np.array([[0, 1], [0, 2], [1, 2]])
        capacities = np.array([10.0, 20.0, np.inf])
        counts = np.bincount(rows.reshape(-1), minlength=3)
        assert single_level_allocation(capacities, rows, counts, tie_eps=1e-9) is None

    @pytest.mark.parametrize("tie_eps", (1e-9, 0.05))
    @pytest.mark.parametrize("ratio", (0.5, 1.5))
    def test_tie_band_edge(self, tie_eps, ratio):
        # Link 1's fair share sits just inside (ratio 0.5) or just
        # outside (1.5) the tie band of link 0's: one level or two.
        capacities = np.array([10.0, 10.0 * (1.0 + ratio * tie_eps)])
        rows = np.array([[0], [1]])
        counts = np.ones(2, dtype=np.int64)
        level = single_level_allocation(capacities, rows, counts, tie_eps=tie_eps)
        full = _full_fill(capacities, rows, tie_eps=tie_eps)
        assert (level is None) == (ratio > 1.0)
        if level is not None:
            assert np.array_equal(np.full(2, level.share), full.rates)

    def test_rejects_empty_active_set(self):
        with pytest.raises(ValueError, match="no flows"):
            single_level_allocation(
                np.array([1.0]), np.empty((0, 1), dtype=np.int64),
                np.zeros(1, dtype=np.int64), tie_eps=1e-9,
            )

    def test_rejects_exact_fill(self):
        with pytest.raises(ValueError, match="tie_eps"):
            single_level_allocation(
                np.array([1.0]), np.zeros((1, 1), dtype=np.int64),
                np.ones(1, dtype=np.int64), tie_eps=0.0,
            )

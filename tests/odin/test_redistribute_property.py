"""Property-based redistribution invariants over random distribution pairs.

For any pair of distributions (including grids), redistribute must
preserve every element: gather(redistribute(x)) == gather(x), and a
round trip restores the exact layout.  Single-axis plans must also equal,
array for array, the plans of a sorted-intersection planner kept here as
the oracle, and planning a regular pair must never sort.
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import odin
from repro.odin.distribution import (ArbitraryDistribution,
                                     BlockCyclicDistribution,
                                     BlockDistribution, CyclicDistribution,
                                     GridDistribution)
from repro.odin.worker import (WorkerState, _build_redist_plan,
                               _slice_survivors)

W = 4  # matches the odin4 fixture


def _dist_strategy(shape):
    """Random distribution of a 2-D shape over W workers."""
    single_axis = st.sampled_from([0, 1]).flatmap(
        lambda ax: st.one_of(
            st.just(BlockDistribution(shape, ax, W)),
            st.just(CyclicDistribution(shape, ax, W)),
            st.integers(1, 4).map(
                lambda b: BlockCyclicDistribution(shape, ax, W,
                                                  block_size=b)),
        ))
    grid = st.sampled_from([(2, 2), (4, 1), (1, 4)]).map(
        lambda g: GridDistribution(shape, (0, 1), g))
    # a one-axis grid is split like a block layout but located by grid
    # coordinates: it must take the general engine
    grid_1d = st.sampled_from([0, 1]).map(
        lambda ax: GridDistribution(shape, (ax,), (W,)))
    return st.one_of(single_axis, grid, grid_1d)


class TestRedistributeProperty:
    @given(data=st.data(), rows=st.integers(2, 24),
           cols=st.integers(2, 12), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_any_pair_preserves_elements(self, odin4, data, rows, cols,
                                         seed):
        shape = (rows, cols)
        src = data.draw(_dist_strategy(shape))
        dst = data.draw(_dist_strategy(shape))
        values = np.random.default_rng(seed).normal(size=shape)
        x = odin.array(values, dist=src)
        y = x.redistribute(dst)
        assert np.allclose(y.gather(), values)
        # round trip restores the original layout exactly
        z = y.redistribute(src)
        assert np.allclose(z.gather(), values)
        assert z.dist.same_as(src)

    @given(data=st.data(), n=st.integers(2, 100), seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_1d_pairs(self, odin4, data, n, seed):
        shape = (n,)
        dists = st.one_of(
            st.just(BlockDistribution(shape, 0, W)),
            st.just(CyclicDistribution(shape, 0, W)),
            st.integers(1, 5).map(
                lambda b: BlockCyclicDistribution(shape, 0, W,
                                                  block_size=b)))
        src = data.draw(dists)
        dst = data.draw(dists)
        values = np.random.default_rng(seed).normal(size=n)
        x = odin.array(values, dist=src)
        assert np.allclose(x.redistribute(dst).gather(), values)

    @given(rows=st.integers(4, 20), cols=st.integers(4, 20),
           seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_cost_model_zero_iff_same(self, odin4, rows, cols, seed):
        shape = (rows, cols)
        a = BlockDistribution(shape, 0, W)
        b = CyclicDistribution(shape, 0, W)
        assert odin.redistribution_cost(a, a) == 0
        cost_ab = odin.redistribution_cost(a, b)
        # moving and moving back costs the same volume
        assert cost_ab == odin.redistribution_cost(b, a)


# ----------------------------------------------------------------------
# single-axis plans against the sorted-intersection oracle
# ----------------------------------------------------------------------
@st.composite
def _layout(draw, shape, P):
    """A random axis-0 layout of *shape* over P workers: block with
    explicit (possibly empty) counts, cyclic, block-cyclic, a shuffled
    arbitrary mapping, or the layout ``x[::-1]`` is planned from (each
    worker keeps its own elements, renumbered in descending order)."""
    n = shape[0]

    def cuts():
        return sorted(draw(st.lists(st.integers(0, n), min_size=P - 1,
                                    max_size=P - 1)))

    kind = draw(st.sampled_from(["block", "cyclic", "block-cyclic",
                                 "arbitrary", "reversed"]))
    if kind == "block":
        return BlockDistribution(shape, 0, P,
                                 counts=np.diff([0, *cuts(), n]))
    if kind == "cyclic":
        return CyclicDistribution(shape, 0, P)
    b = draw(st.integers(1, 9))
    if kind == "block-cyclic":
        return BlockCyclicDistribution(shape, 0, P, block_size=b)
    if kind == "arbitrary":
        perm = np.random.default_rng(
            draw(st.integers(0, 2 ** 16))).permutation(n)
        return ArbitraryDistribution(shape, 0, np.split(perm, cuts()))
    base = BlockCyclicDistribution(shape, 0, P, block_size=b)
    reverse = slice(None, None, -1)
    return ArbitraryDistribution(
        shape, 0, [_slice_survivors(base, v, reverse)[1] for v in range(P)],
        validate=False)


def _plan(src, dst, w):
    """Worker w's plan; building one never communicates."""
    state = WorkerState(index=w, comm=types.SimpleNamespace(
        size=src.nworkers), registry={})
    return _build_redist_plan(state, src, dst)


def _reference_pieces(src, dst, w):
    """The sorted-intersection planner, kept as the oracle: per peer, the
    global ids both sides hold, ascending, as src take positions (w
    sending) and dst place positions (w receiving); empty pieces
    omitted."""
    P = src.nworkers

    def common(u, v):
        return np.intersect1d(src.indices_for(u), dst.indices_for(v),
                              assume_unique=True)

    takes = {v: src.local_position(common(w, v)) for v in range(P)}
    places = {u: dst.local_position(common(u, w)) for u in range(P)}
    return ({v: t for v, t in takes.items() if len(t)},
            {u: p for u, p in places.items() if len(p)})


def _assert_identical(got, want):
    assert got.dtype == want.dtype and np.array_equal(got, want)


def _assert_plan_is_reference(src, dst):
    ax = src.axis
    for w in range(src.nworkers):
        plan = _plan(src, dst, w)
        takes = dict(plan.send)
        places = dict(plan.recv)
        if plan.self_pair is not None:
            takes[w], places[w] = plan.self_pair
        want_takes, want_places = _reference_pieces(src, dst, w)
        assert takes.keys() == want_takes.keys()
        assert places.keys() == want_places.keys()
        for v, ops in takes.items():
            [(op_axis, idx)] = ops
            assert op_axis == ax
            _assert_identical(idx, want_takes[v])
        for u, indexer in places.items():
            assert indexer[:ax] + indexer[ax + 1:] == \
                (slice(None),) * (len(indexer) - 1)
            _assert_identical(indexer[ax], want_places[u])


class TestPlanEquivalence:
    @given(data=st.data(), P=st.sampled_from([2, 3, 4]),
           half=st.integers(0, 60))
    @settings(max_examples=80, deadline=None)
    def test_single_axis_plans_match_reference(self, data, P, half):
        shape = (2 * half + 1,)
        _assert_plan_is_reference(data.draw(_layout(shape, P)),
                                  data.draw(_layout(shape, P)))

    @pytest.mark.parametrize("shape", [(1001,), (37, 3)])
    def test_many_peers(self, shape):
        P = 11
        lists = np.array_split(
            np.random.default_rng(5).permutation(shape[0]), P)
        layouts = [CyclicDistribution(shape, 0, P),
                   BlockCyclicDistribution(shape, 0, P, block_size=7),
                   BlockDistribution(shape, 0, P),
                   ArbitraryDistribution(shape, 0, lists)]
        for src in layouts:
            for dst in layouts:
                _assert_plan_is_reference(src, dst)


class TestPlanningNeverSorts:
    @pytest.mark.parametrize("P", [2, 3])
    def test_regular_pairs_plan_without_sorting(self, monkeypatch, P):
        n = 10_001
        shape = (n,)
        layouts = [BlockDistribution(shape, 0, P),
                   BlockDistribution(shape, 0, P,
                                     counts=[n - 3 * (P - 1)]
                                     + [3] * (P - 1)),
                   CyclicDistribution(shape, 0, P),
                   BlockCyclicDistribution(shape, 0, P, block_size=7),
                   BlockCyclicDistribution(shape, 0, P, block_size=64)]

        def refuse(*_args, **_kwargs):
            raise AssertionError("planning a regular pair sorted")

        monkeypatch.setattr(np, "sort", refuse)
        monkeypatch.setattr(np, "argsort", refuse)
        monkeypatch.setattr(np, "intersect1d", refuse)
        for src in layouts:
            for dst in layouts:
                for w in range(P):
                    _plan(src, dst, w)


class TestRedistributionCost:
    @given(data=st.data(), P=st.sampled_from([2, 3, 4]),
           half=st.integers(0, 60), cols=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_cost_counts_owner_changes(self, data, P, half, cols):
        shape = (2 * half + 1, cols)
        layouts = st.one_of(_layout(shape, P),
                            st.just(GridDistribution(shape, (0,), (P,))))
        src = data.draw(layouts)
        dst = data.draw(layouts)
        owners = []
        for d in (src, dst):
            own = np.empty(shape[0], dtype=np.int64)
            for w in range(P):
                own[d.indices_for(w)] = w
            owners.append(own)
        moved = int((owners[0] != owners[1]).sum()) * cols
        assert odin.redistribution_cost(src, dst) == moved

"""Property-based redistribution invariants over random distribution pairs.

For any pair of distributions (block, cyclic, block-cyclic, arbitrary,
concatenations and grids over any axes), redistribute must preserve
every element: gather(redistribute(x)) == gather(x), and a round trip
restores the exact layout.  Every plan -- slices included, as
redistributions whose destination id k takes source id ``start +
step*k`` -- must also equal, axis by axis and position for position, a
sorted-intersection tile oracle kept here; the driver's price of a pair
must equal the elements its plans send; planning a regular pair must
never sort, never build an index list and stay within a fixed memory
bound; ``same_as`` must be symmetric and equal to comparing tiles.
"""

import hashlib
import math
import pickle
import threading
import tracemalloc
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import odin
from repro.odin.context import OdinContext
from repro.odin.distribution import (ArbitraryDistribution,
                                     BlockCyclicDistribution,
                                     BlockDistribution, ConcatDistribution,
                                     CyclicDistribution, GridDistribution,
                                     axis_ids)
from repro.odin.periodic import _Idx
from repro.odin.worker import WorkerState, _build_redist_plan

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
    # a one-axis grid is split like a block layout, located by grid
    # coordinates
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
# plans against the sorted-intersection tile oracle
# ----------------------------------------------------------------------
@st.composite
def _single(draw, shape, P, ax):
    """A random layout of *shape* split along *ax* over P workers: block
    with explicit counts (one worker's forced empty for "block-gap"),
    cyclic, block-cyclic with a block size that may exceed the axis, a
    shuffled arbitrary mapping, or the layout ``x[::-1]`` is planned from
    (each worker keeps its own elements, renumbered in descending
    order)."""
    n = shape[ax]

    def cuts():
        return sorted(draw(st.lists(st.integers(0, n), min_size=P - 1,
                                    max_size=P - 1)))

    kind = draw(st.sampled_from(["block", "block-gap", "cyclic",
                                 "block-cyclic", "arbitrary", "reversed"]))
    if kind in ("block", "block-gap"):
        counts = np.diff([0, *cuts(), n])
        if kind == "block-gap":
            gap = draw(st.integers(0, P - 1))
            counts[(gap + 1) % P] += counts[gap]
            counts[gap] = 0
        return BlockDistribution(shape, ax, P, counts=counts)
    if kind == "cyclic":
        return CyclicDistribution(shape, ax, P)
    b = draw(st.one_of(st.integers(1, 9), st.integers(max(n, 1), 2 * n + 3)))
    if kind == "block-cyclic":
        return BlockCyclicDistribution(shape, ax, P, block_size=b)
    if kind == "arbitrary":
        perm = np.random.default_rng(
            draw(st.integers(0, 2 ** 16))).permutation(n)
        return ArbitraryDistribution(shape, ax, np.split(perm, cuts()))
    base = BlockCyclicDistribution(shape, ax, P, block_size=b)
    return ArbitraryDistribution(
        shape, ax, [n - 1 - base.indices_for(v) for v in range(P)],
        validate=False)


def _grids(P):
    """Every two-axis worker grid of P workers."""
    return [(g, P // g) for g in range(1, P + 1) if P % g == 0]


@st.composite
def _layout(draw, shape, P, axis=None):
    """A random layout of *shape* over P workers: a single-axis layout
    (:func:`_single`), a concatenation of two of them, a one-axis grid,
    and -- unless *axis* pins the split axis -- a grid over two axes in
    either order."""
    ax = draw(st.integers(0, len(shape) - 1)) if axis is None else axis
    kinds = ["single", "single", "concat", "grid-1"]
    if axis is None and len(shape) > 1:
        kinds.append("grid")
    kind = draw(st.sampled_from(kinds))
    if kind == "single":
        return draw(_single(shape, P, ax))
    if kind == "grid-1":
        return GridDistribution(shape, (ax,), (P,))
    if kind == "grid":
        axes = draw(st.permutations(range(len(shape))))[:2]
        return GridDistribution(shape, axes, draw(st.sampled_from(_grids(P))))
    cut = draw(st.integers(0, shape[ax]))
    parts = []
    for length in (cut, shape[ax] - cut):
        part = list(shape)
        part[ax] = length
        parts.append(draw(_single(tuple(part), P, ax)))
    return ConcatDistribution(parts, ax)


def _plan(src, dst, w, start=0, step=1, holders=None):
    """Worker w's plan; building one never communicates."""
    state = WorkerState(index=w, comm=types.SimpleNamespace(
        size=dst.nworkers))
    return _build_redist_plan(state, src, dst, start, step, holders)


def _planned_axes(src, dst):
    return tuple(sorted(set(src.dist_axes) | set(dst.dist_axes)))


def _positions_of(ids, wanted):
    """Where each of *wanted* sits in the storage order *ids*."""
    order = np.argsort(ids, kind="stable")
    return order[np.searchsorted(ids, wanted, sorter=order)]


def _reference_pairs(src, dst, start=0, step=1):
    """The sorted-intersection tile oracle: for every source tile u and
    destination worker v sharing elements, per planned axis, the
    positions in u's block (takes) and in v's block (places) of the ids
    they share, ascending source id.  Along the distributed axis
    destination id k takes source id ``start + step*k``."""
    out = {}
    for u in range(src.nworkers):
        for v in range(dst.nworkers):
            takes, places = [], []
            for ax in _planned_axes(src, dst):
                mine, theirs = axis_ids(src, u, ax), axis_ids(dst, v, ax)
                a, b = (start, step) if ax == src.axis else (0, 1)
                common = np.intersect1d(mine, a + b * theirs)
                takes.append(_positions_of(mine, common))
                places.append(_positions_of(theirs, (common - a) // b))
            if all(len(t) for t in takes):
                out[u, v] = takes, places
    return out


def _plan_pairs(plan, w):
    """A plan's per-axis takes and places, keyed by (tile, worker)."""
    takes = {(u, v): t for v, pairs in plan.send for u, t in pairs}
    places = {(u, w): p for _peer, pairs in plan.recv for u, p in pairs}
    for u, t, p in plan.self_pairs:
        takes[u, w], places[u, w] = t, p
    return takes, places


def _assert_identical(got, want):
    assert got.dtype == want.dtype and np.array_equal(got, want)


def _assert_plan_is_reference(src, dst, start=0, step=1):
    """Every plan piece, expanded to its positions, is the oracle's (a
    negative step places through the reversed output)."""
    want = _reference_pairs(src, dst, start, step)
    axes = _planned_axes(src, dst)
    for w in range(src.nworkers):
        plan = _plan(src, dst, w, start, step)
        assert plan.axes == axes
        assert plan.flip == (src.axis if step < 0 else None)
        takes, places = _plan_pairs(plan, w)
        assert takes.keys() == {key for key in want if key[0] == w}
        assert places.keys() == {key for key in want if key[1] == w}
        for key, pieces in takes.items():
            for piece, ref in zip(pieces, want[key][0]):
                assert piece.size == len(ref)
                _assert_identical(piece.positions(), ref)
        for key, pieces in places.items():
            for ax, piece, ref in zip(axes, pieces, want[key][1]):
                assert piece.size == len(ref)
                got = piece.positions()
                if step < 0 and ax == src.axis:
                    got = dst.local_shape(w)[ax] - 1 - got
                _assert_identical(got, ref)


# N-D shapes small enough for empty tiles on every grid
_SHAPES = st.one_of(
    st.tuples(st.integers(1, 9), st.integers(1, 9)),
    st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 3)))

# layouts whose tiles go empty: (1, 5) and (5, 1) on a 2x2 grid
_CORNERS = [GridDistribution((1, 5), (0, 1), (2, 2)),
            GridDistribution((1, 5), (1, 0), (2, 2)),
            GridDistribution((5, 1), (0, 1), (4, 1)),
            GridDistribution((1, 5), (0, 1), (1, 4)),
            BlockDistribution((1, 5), 0, 4),
            BlockDistribution((1, 5), 1, 4),
            CyclicDistribution((1, 5), 1, 4)]


class TestPlanEquivalence:
    @given(data=st.data(), P=st.sampled_from([2, 3, 4, 11]),
           half=st.integers(0, 60))
    @settings(max_examples=120, deadline=None)
    def test_single_axis_plans_match_reference(self, data, P, half):
        shape = (2 * half + 1,)
        _assert_plan_is_reference(data.draw(_layout(shape, P)),
                                  data.draw(_layout(shape, P)))

    @given(data=st.data(), P=st.sampled_from([2, 3, 4]), shape=_SHAPES)
    @settings(max_examples=150, deadline=None)
    def test_every_pair_matches_reference(self, data, P, shape):
        """Grids over both axis orders, arbitrary and concat layouts on
        2-D and 3-D arrays, any pair."""
        _assert_plan_is_reference(data.draw(_layout(shape, P)),
                                  data.draw(_layout(shape, P)))

    def test_empty_tiles(self):
        for src in _CORNERS:
            for dst in _CORNERS:
                if src.global_shape == dst.global_shape:
                    _assert_plan_is_reference(src, dst)

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

    @pytest.mark.parametrize("P", [2, 3, 4, 11])
    @pytest.mark.parametrize("n", [1, 3, 10, 997, 4099])
    def test_periodic_corners(self, P, n):
        """Unequal block sizes > 1, blocks longer than the axis, fewer
        elements than workers, empty explicit-count blocks."""
        shape = (n,)
        last_only = [0] * (P - 1) + [n]
        tail_heavy = [0] + [n // (2 * P)] * (P - 2)
        tail_heavy.append(n - sum(tail_heavy))
        layouts = [BlockDistribution(shape, 0, P),
                   BlockDistribution(shape, 0, P, counts=last_only),
                   BlockDistribution(shape, 0, P, counts=tail_heavy),
                   CyclicDistribution(shape, 0, P)]
        layouts += [BlockCyclicDistribution(shape, 0, P, block_size=b)
                    for b in (2, 3, 5, 64, n + 1)]
        for src in layouts:
            for dst in layouts:
                _assert_plan_is_reference(src, dst)

    @pytest.mark.parametrize("P", [2, 3, 11])
    def test_cross_axis_plans_match_index_lists(self, P):
        """src splits axis 0, dst axis 1 (and back): w sends v its whole
        slab cut to the dst columns v owns, and places u's rows at src's
        ids for u -- the slab axis is one run, so it packs as a view."""
        shape = (41, 23)
        lists = np.array_split(
            np.random.default_rng(3).permutation(shape[1]), P)

        def layouts(ax):
            return [BlockDistribution(shape, ax, P),
                    CyclicDistribution(shape, ax, P),
                    BlockCyclicDistribution(shape, ax, P, block_size=4),
                    BlockCyclicDistribution(shape, ax, P, block_size=50)]

        pairs = [(s, d) for s in layouts(0) for d in layouts(1)]
        pairs += [(d, s) for s, d in pairs]
        pairs.append((CyclicDistribution(shape, 0, P),
                      ArbitraryDistribution(shape, 1, lists)))
        for src, dst in pairs:
            for w in range(P):
                plan = _plan(src, dst, w)
                assert plan.axes == (0, 1)
                takes, places = _plan_pairs(plan, w)
                # a worker with no ids shares nothing with anyone
                assert takes.keys() == {
                    (w, v) for v in range(P)
                    if src.local_count(w) and dst.local_count(v)}
                assert places.keys() == {
                    (u, w) for u in range(P)
                    if src.local_count(u) and dst.local_count(w)}
                for (_w, v), pieces in takes.items():
                    take = dict(zip(plan.axes, pieces))
                    assert take[src.axis].run == \
                        slice(0, src.local_count(w), 1)
                    _assert_identical(take[dst.axis].positions(),
                                      np.sort(dst.indices_for(v)))
                for (v, _w), pieces in places.items():
                    place = dict(zip(plan.axes, pieces))
                    _assert_identical(place[src.axis].positions(),
                                      np.sort(src.indices_for(v)))
                    _assert_identical(
                        place[dst.axis].positions(),
                        np.argsort(dst.indices_for(w), kind="stable"))


def _execute_all(src, dst, values, start=0, step=1, holders=None):
    """Every worker's plan run on the blocks of *values* it holds, the
    workers as threads exchanging through a simulated alltoall."""
    P = dst.nworkers
    holders = list(range(src.nworkers)) if holders is None else holders
    sent = [None] * P
    barrier = threading.Barrier(P, timeout=30)

    def run(w):
        def alltoall(sendobjs):
            sent[w] = sendobjs
            barrier.wait()
            return [sent[u][w] for u in range(P)]

        state = types.SimpleNamespace(comm=types.SimpleNamespace(
            size=P, alltoall=alltoall))
        plan = _plan(src, dst, w, start, step, holders)
        return plan.execute(state, {
            u: values[src.global_selector(u)]
            for u in range(src.nworkers) if holders[u] == w})

    with ThreadPoolExecutor(P) as pool:
        return list(pool.map(run, range(P)))


def _assert_rebuilds(src, dst, values, holders=None):
    outs = _execute_all(src, dst, values, holders=holders)
    for w, out in enumerate(outs):
        assert np.array_equal(out, values[dst.global_selector(w)]), \
            (src, dst, w)


class TestPlanExecution:
    @pytest.mark.parametrize("P", [2, 3])
    def test_strided_pieces_move_every_element(self, P):
        """Runs, tiles with slice and index-array selections, heads and
        tails, packed and placed along axis 0, axis 1 and across axes,
        against the global array."""
        shape = (121, 131)
        values = np.random.default_rng(P).normal(size=shape)

        def layouts(ax):
            n = shape[ax]
            return [BlockDistribution(shape, ax, P),
                    BlockDistribution(shape, ax, P,
                                      counts=[0] * (P - 1) + [n]),
                    CyclicDistribution(shape, ax, P),
                    *(BlockCyclicDistribution(shape, ax, P, block_size=b)
                      for b in (2, 5, 6, 61))]

        every = layouts(0) + layouts(1)
        for src in every:
            for dst in every:
                _assert_rebuilds(src, dst, values)

    def test_grid_pairs_move_every_element(self):
        """grid <-> grid, grid <-> cyclic across axes, arbitrary <-> grid
        and concat <-> grid, on a 2-D and a 3-D array."""
        P = 4
        for shape in [(13, 11), (7, 6, 3)]:
            values = np.random.default_rng(len(shape)).normal(size=shape)
            lists = np.array_split(
                np.random.default_rng(1).permutation(shape[1]), P)
            half = BlockDistribution((4,) + shape[1:], 0, P)
            rest = CyclicDistribution((shape[0] - 4,) + shape[1:], 0, P)
            layouts = [GridDistribution(shape, (0, 1), (2, 2)),
                       GridDistribution(shape, (1, 0), (2, 2)),
                       GridDistribution(shape, (0, 1), (4, 1)),
                       GridDistribution(shape, (1, 0), (1, 4)),
                       CyclicDistribution(shape, 0, P),
                       CyclicDistribution(shape, 1, P),
                       ArbitraryDistribution(shape, 1, lists),
                       ConcatDistribution([half, rest], 0)]
            if len(shape) == 3:
                layouts += [GridDistribution(shape, (2, 0), (2, 2)),
                            GridDistribution(shape, (1, 2), (4, 1))]
            for src in layouts:
                for dst in layouts:
                    _assert_rebuilds(src, dst, values)

    @given(data=st.data(), P=st.sampled_from([2, 3, 4]), shape=_SHAPES)
    @settings(max_examples=60, deadline=None)
    def test_any_pair_moves_every_element(self, data, P, shape):
        src = data.draw(_layout(shape, P))
        dst = data.draw(_layout(shape, P))
        _assert_rebuilds(src, dst, np.arange(float(np.prod(shape)))
                         .reshape(shape))

    @given(data=st.data(), n=st.sampled_from([3, 4]), shape=_SHAPES)
    @settings(max_examples=40, deadline=None)
    def test_recovery_holders_move_every_element(self, data, n, shape):
        """Recovery's plan: n old tiles, one of them dead and held by its
        ring partner, onto the same scheme over the n - 1 survivors."""
        src = data.draw(_layout(shape, n))
        dead = data.draw(st.integers(0, n - 1))
        alive = [t for t in range(n) if t != dead]
        holders = [alive.index((t + 1) % n if t == dead else t)
                   for t in range(n)]
        dst = src.with_nworkers(n - 1)
        _assert_rebuilds(src, dst, np.arange(float(np.prod(shape)))
                         .reshape(shape), holders)


# ----------------------------------------------------------------------
# slices: redistributions whose destination id k takes start + step*k
# ----------------------------------------------------------------------
@st.composite
def _slice(draw, n):
    """Any start and stop (absent, inside the axis or past either end)
    and a step of 1..9 or longer than the axis, either sign."""
    bound = st.one_of(st.none(), st.integers(-n - 3, n + 3))
    step = draw(st.one_of(st.integers(1, 9), st.integers(n + 1, 2 * n + 5)))
    return slice(draw(bound), draw(bound),
                 step * draw(st.sampled_from([1, -1])))


def _slice_target(src, sl):
    """The block layout ``x[sl]`` lands on, and the slice's start and
    step along the distributed axis (axis 0)."""
    ids = range(*sl.indices(src.axis_length))
    dst = BlockDistribution((len(ids),) + src.global_shape[1:], 0,
                            src.nworkers)
    return dst, ids.start, ids.step


class TestSlicePlans:
    @given(data=st.data(), P=st.sampled_from([2, 3, 4]),
           n=st.integers(1, 70))
    @settings(max_examples=200, deadline=None)
    def test_slice_plans_match_reference(self, data, P, n):
        src = data.draw(_layout((n, 2), P, axis=0))
        sl = data.draw(_slice(n))
        dst, start, step = _slice_target(src, sl)
        _assert_plan_is_reference(src, dst, start, step)
        values = np.arange(2.0 * n).reshape(n, 2)
        outs = _execute_all(src, dst, values, start, step)
        for w, out in enumerate(outs):
            assert np.array_equal(out, values[sl][dst.global_selector(w)])
        # closed form: no index array longer than one joint period
        for w in range(P):
            s = src.periodic(w)
            if s is None:
                continue
            L = math.lcm(s.period, abs(step))
            takes, places = _plan_pairs(_plan(src, dst, w, start, step), w)
            pieces = [piece for pair in (*takes.values(), *places.values())
                      for piece in pair]
            for piece in pieces:
                assert all(seg.size <= L for seg in piece.segs
                           if type(seg) is _Idx), (src, sl, w)


# the regular layouts planning must never expand into index lists
_REGULAR = (BlockDistribution, CyclicDistribution, BlockCyclicDistribution)


def _refuse_index_list(dist, worker):
    raise AssertionError(f"planning built {type(dist).__name__}'s index "
                         f"list for worker {worker}")


def _regular_layouts(n, P):
    return [BlockDistribution((n,), 0, P),
            BlockDistribution((n,), 0, P,
                              counts=[n - 3 * (P - 1)] + [3] * (P - 1)),
            BlockDistribution((n,), 0, P, counts=[0] * (P - 1) + [n]),
            CyclicDistribution((n,), 0, P),
            BlockCyclicDistribution((n,), 0, P, block_size=7),
            BlockCyclicDistribution((n,), 0, P, block_size=64)]


class TestPlanningNeverSorts:
    @pytest.mark.parametrize("P", [2, 3])
    def test_regular_pairs_plan_without_sorting(self, monkeypatch, P):
        layouts = _regular_layouts(10_001, P)

        def refuse(*_args, **_kwargs):
            raise AssertionError("planning a regular pair sorted")

        monkeypatch.setattr(np, "sort", refuse)
        monkeypatch.setattr(np, "argsort", refuse)
        monkeypatch.setattr(np, "intersect1d", refuse)
        for src in layouts:
            for dst in layouts:
                for w in range(P):
                    _plan(src, dst, w)


class TestPlanningIsSublinear:
    @pytest.mark.parametrize("P", [2, 3])
    def test_regular_pairs_plan_in_bounded_memory(self, monkeypatch, P):
        layouts = _regular_layouts(10 ** 7, P)

        for cls in _REGULAR:
            monkeypatch.setattr(cls, "indices_for", _refuse_index_list)
        for src in layouts:
            for dst in layouts:
                for w in range(P):
                    tracemalloc.start()
                    try:
                        _plan(src, dst, w)
                        _size, peak = tracemalloc.get_traced_memory()
                    finally:
                        tracemalloc.stop()
                    assert peak <= 1 << 20, (src, dst, w, peak)

    @pytest.mark.parametrize("cut", [slice(1, None), slice(None, -1),
                                     slice(None, None, 2),
                                     slice(None, None, -1),
                                     slice(-5, 2, -7)])
    def test_regular_slices_plan_in_bounded_memory(self, monkeypatch, cut):
        P = 2
        layouts = _regular_layouts(10 ** 7, P)
        for cls in _REGULAR:
            monkeypatch.setattr(cls, "indices_for", _refuse_index_list)
        for src in layouts:
            dst, start, step = _slice_target(src, cut)
            for w in range(P):
                tracemalloc.start()
                try:
                    _plan(src, dst, w, start, step)
                    _size, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak <= 1 << 20, (src, cut, w, peak)

    def test_cross_axis_pairs_plan_in_bounded_memory(self, monkeypatch):
        shape = (2_000_001, 3)
        pairs = [(CyclicDistribution(shape, 0, 2),
                  BlockCyclicDistribution(shape, 1, 2, block_size=2)),
                 (BlockDistribution(shape, 1, 2),
                  BlockCyclicDistribution(shape, 0, 2, block_size=61))]
        for cls in _REGULAR:
            monkeypatch.setattr(cls, "indices_for", _refuse_index_list)
        for src, dst in pairs:
            for a, b in ((src, dst), (dst, src)):
                tracemalloc.start()
                try:
                    _plan(a, b, 0)
                    _size, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak <= 1 << 20, (a, b, peak)


class TestSameAsClosedForm:
    """``same_as`` on periodic layouts compares overlap counts, never
    index lists, and agrees with comparing the lists."""

    @given(data=st.data(), P=st.sampled_from([2, 3, 4, 11]),
           half=st.integers(0, 60))
    @settings(max_examples=200, deadline=None)
    def test_matches_index_list_oracle(self, data, P, half):
        shape = (2 * half + 1,)
        a, b = data.draw(_layout(shape, P)), data.draw(_layout(shape, P))
        want = all(np.array_equal(a.indices_for(w), b.indices_for(w))
                   for w in range(P))
        assert a.same_as(b) == want
        assert b.same_as(a) == want

    @given(data=st.data(), P=st.sampled_from([2, 3, 4]), shape=_SHAPES)
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_matches_tile_oracle(self, data, P, shape):
        """Any two layouts, grids included: the same worker by worker
        local shape holding the same elements, whichever side asks."""
        a, b = data.draw(_layout(shape, P)), data.draw(_layout(shape, P))
        assert a.same_as(b) == b.same_as(a) == _same_tiles(a, b)

    def test_grid_corners(self):
        """The pairs that once answered differently one way round."""
        pairs = [(GridDistribution((4, 3), (0, 1), (2, 1)),
                  BlockDistribution((4, 3), 0, 2), True),
                 (GridDistribution((2, 3), (0,), (2,)),
                  CyclicDistribution((2, 3), 0, 2), True),
                 (GridDistribution((5,), (0,), (2,)),
                  ArbitraryDistribution((5,), 0, [[0, 1, 2], [3, 4]]), True),
                 (GridDistribution((5,), (0,), (2,)),
                  ArbitraryDistribution((5,), 0, [[1, 0, 2], [3, 4]]),
                  False)]
        pairs += [(a, b, _same_tiles(a, b)) for a in _CORNERS
                  for b in _CORNERS if a.global_shape == b.global_shape]
        for a, b, want in pairs:
            assert a.same_as(b) == b.same_as(a) == want, (a, b)
            assert (a == b) == (b == a) == want

    @pytest.mark.parametrize("P", [2, 3])
    def test_large_regular_pairs_build_no_index_list(self, monkeypatch, P):
        n = 10 ** 7
        layouts = _regular_layouts(n, P) + [
            BlockCyclicDistribution((n,), 0, P, block_size=n),
            BlockCyclicDistribution((n,), 0, P, block_size=-(-n // P)),
            BlockDistribution((n,), 0, P, counts=[n] + [0] * (P - 1))]
        # the oracle, taken before index lists are refused: a digest of
        # every worker's list
        prints = [tuple(hashlib.sha1(d.indices_for(w).tobytes()).digest()
                        for w in range(P)) for d in layouts]
        for cls in _REGULAR:
            monkeypatch.setattr(cls, "indices_for", _refuse_index_list)
        equal = 0
        for a, fa in zip(layouts, prints):
            for b, fb in zip(layouts, prints):
                assert a.same_as(b) == (fa == fb), (a, b)
                equal += fa == fb
        # bc(n) is block [n, 0, ...]; at P = 2, bc(n/2) is block too
        assert equal == len(layouts) + 2 + 2 * (P == 2)


def _same_tiles(a, b):
    """Per-worker tile equality: each worker's block has the same shape
    under both layouts and the same global element at every position."""
    flat = np.arange(math.prod(a.global_shape)).reshape(a.global_shape)
    return all(np.array_equal(flat[a.global_selector(w)],
                              flat[b.global_selector(w)])
               for w in range(a.nworkers))


class TestNth:
    """``PeriodicSet.nth(k)`` is element k of the worker's index list."""

    @given(data=st.data(), P=st.sampled_from([2, 3, 4, 11]),
           n=st.integers(1, 121))
    @settings(max_examples=200, deadline=None)
    def test_matches_index_list(self, data, P, n):
        d = data.draw(_layout((n,), P))
        for w in range(P):
            s = d.periodic(w)
            if s is None:
                continue
            ids = d.indices_for(w)
            assert [s.nth(k) for k in range(len(ids))] == ids.tolist()
            for k in (-1, len(ids)):
                with pytest.raises(IndexError):
                    s.nth(k)


class TestLedgerPipeline:
    """block -> cyclic -> block-cyclic(b) -> block on an odd axis, the
    redistribution benchmark's own pipeline, on both transports."""

    N = 100_003

    @staticmethod
    def _wire_bytes(obj):
        buffers = []
        blob = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
        return len(blob) + sum(pb.raw().nbytes for pb in buffers)

    def _expected_peer_bytes(self, values, src, dst):
        """Oracle bytes worker u sends worker v: the pickled array of the
        ids both hold, ascending (None when there are none)."""
        P = src.nworkers
        out = {}
        for u in range(P):
            for v in range(P):
                if u == v:
                    continue
                ids = np.intersect1d(src.indices_for(u), dst.indices_for(v),
                                     assume_unique=True)
                out[u, v] = self._wire_bytes(values[ids] if len(ids)
                                             else None)
        return out

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pipeline_bit_identical_and_bytes_match_oracle(self, backend):
        n, P = self.N, 2
        values = np.random.default_rng(7).normal(size=n)
        with OdinContext(P, backend=backend) as ctx:
            x = odin.array(values, ctx=ctx)
            for b in range(57, 72):
                cur = x
                for dst in (CyclicDistribution((n,), 0, P),
                            BlockCyclicDistribution((n,), 0, P,
                                                    block_size=b),
                            BlockDistribution((n,), 0, P)):
                    want = self._expected_peer_bytes(values, cur.dist, dst)
                    ctx.flush()
                    ctx.reset_counters()
                    cur = cur.redistribute(dst)
                    ctx.flush()
                    for u, wr in enumerate(ctx.comm._world_ranks[1:]):
                        sent = ctx.world.fetch_counters(wr).by_peer
                        for v in range(P):
                            if v != u:
                                assert sent.get(v + 1, 0) == want[u, v], \
                                    (b, dst, u, v)
                got = cur.gather()
                assert got.dtype == values.dtype
                assert np.array_equal(got.view(np.uint64),
                                      values.view(np.uint64)), b


class TestRedistributionCost:
    @given(data=st.data(), P=st.sampled_from([2, 3, 4]),
           half=st.integers(0, 60), cols=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_cost_counts_owner_changes(self, data, P, half, cols):
        shape = (2 * half + 1, cols)
        src = data.draw(_layout(shape, P))
        dst = data.draw(_layout(shape, P))
        owners = []
        for d in (src, dst):
            own = np.empty(shape, dtype=np.int64)
            for w in range(P):
                own[d.global_selector(w)] = w
            owners.append(own)
        moved = int((owners[0] != owners[1]).sum())
        assert odin.redistribution_cost(src, dst) == moved

    @given(data=st.data(), P=st.sampled_from([2, 3, 4]), shape=_SHAPES)
    @settings(max_examples=150, deadline=None)
    def test_price_equals_plan(self, data, P, shape):
        """The driver's price is what the workers' plans send: per pair,
        the product of its piece sizes (times the extent of every axis
        neither side splits), over workers and peers other than self."""
        src = data.draw(_layout(shape, P))
        dst = data.draw(_layout(shape, P))
        sent = 0
        for w in range(P):
            plan = _plan(src, dst, w)
            whole = math.prod(n for ax, n in enumerate(shape)
                              if ax not in plan.axes)
            sent += sum(whole * math.prod(piece.size for piece in pieces)
                        for _v, pairs in plan.send for _u, pieces in pairs)
        assert odin.redistribution_cost(src, dst) == sent

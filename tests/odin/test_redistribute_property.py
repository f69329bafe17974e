"""Property-based redistribution invariants over random distribution pairs.

For any pair of distributions (including grids), redistribute must
preserve every element: gather(redistribute(x)) == gather(x), and a
round trip restores the exact layout.  Single-axis plans -- slices
included, as redistributions whose destination id k takes source id
``start + step*k`` -- must also equal, position for position, the plans
of a sorted-intersection planner kept here as the oracle; planning a
regular pair must never sort, never build an index list and stay within
a fixed memory bound.
"""

import hashlib
import math
import pickle
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import odin
from repro.odin.context import OdinContext
from repro.odin.distribution import (ArbitraryDistribution,
                                     BlockCyclicDistribution,
                                     BlockDistribution, CyclicDistribution,
                                     GridDistribution)
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
    explicit counts (one worker's forced empty for "block-gap"), cyclic,
    block-cyclic with a block size that may exceed the axis, a shuffled
    arbitrary mapping, or the layout ``x[::-1]`` is planned from (each
    worker keeps its own elements, renumbered in descending order)."""
    n = shape[0]

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
        return BlockDistribution(shape, 0, P, counts=counts)
    if kind == "cyclic":
        return CyclicDistribution(shape, 0, P)
    b = draw(st.one_of(st.integers(1, 9), st.integers(n, 2 * n + 3)))
    if kind == "block-cyclic":
        return BlockCyclicDistribution(shape, 0, P, block_size=b)
    if kind == "arbitrary":
        perm = np.random.default_rng(
            draw(st.integers(0, 2 ** 16))).permutation(n)
        return ArbitraryDistribution(shape, 0, np.split(perm, cuts()))
    base = BlockCyclicDistribution(shape, 0, P, block_size=b)
    return ArbitraryDistribution(
        shape, 0, [n - 1 - base.indices_for(v) for v in range(P)],
        validate=False)


def _plan(src, dst, w, start=0, step=1):
    """Worker w's plan; building one never communicates."""
    state = WorkerState(index=w, comm=types.SimpleNamespace(
        size=src.nworkers), registry={})
    return _build_redist_plan(state, src, dst, start, step)


def _reference_pieces(src, dst, w, start=0, step=1):
    """The sorted-intersection planner, kept as the oracle: per peer, the
    source ids u holds that v's destination ids take, ascending, as src
    take positions (w sending) and dst place positions (w receiving);
    empty pieces omitted."""
    P = src.nworkers

    def common(u, v):
        return np.intersect1d(src.indices_for(u),
                              start + step * dst.indices_for(v),
                              assume_unique=True)

    takes = {v: src.local_position(common(w, v)) for v in range(P)}
    places = {u: dst.local_position((common(u, w) - start) // step)
              for u in range(P)}
    return ({v: t for v, t in takes.items() if len(t)},
            {u: p for u, p in places.items() if len(p)})


def _assert_identical(got, want):
    assert got.dtype == want.dtype and np.array_equal(got, want)


def _assert_plan_is_reference(src, dst, start=0, step=1):
    """Every plan piece, expanded to its positions, is the oracle's (a
    negative step places through the reversed output)."""
    for w in range(src.nworkers):
        plan = _plan(src, dst, w, start, step)
        assert plan.take_axis == plan.place_axis == src.axis
        assert plan.reverse == (step < 0)
        takes = dict(plan.send)
        places = dict(plan.recv)
        if plan.self_pair is not None:
            takes[w], places[w] = plan.self_pair
        want_takes, want_places = _reference_pieces(src, dst, w, start,
                                                    step)
        assert takes.keys() == want_takes.keys()
        assert places.keys() == want_places.keys()
        last = dst.local_count(w) - 1
        for v, piece in takes.items():
            assert piece.size == len(want_takes[v])
            _assert_identical(piece.positions(), want_takes[v])
        for u, piece in places.items():
            assert piece.size == len(want_places[u])
            got = piece.positions()
            _assert_identical(last - got if step < 0 else got,
                              want_places[u])


class TestPlanEquivalence:
    @given(data=st.data(), P=st.sampled_from([2, 3, 4, 11]),
           half=st.integers(0, 60))
    @settings(max_examples=120, deadline=None)
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
        """src splits axis 0, dst axis 1 (and back): w sends v the dst
        columns v owns and places u's rows at src's ids for u."""
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
                assert (plan.take_axis, plan.place_axis) == \
                    (dst.axis, src.axis)
                takes = dict(plan.send)
                places = dict(plan.recv)
                takes[w], places[w] = plan.self_pair
                assert takes.keys() == places.keys() == set(range(P))
                for v in range(P):
                    _assert_identical(takes[v].positions(),
                                      dst.indices_for(v))
                    _assert_identical(places[v].positions(),
                                      src.indices_for(v))


def _execute_all(src, dst, values, start=0, step=1):
    """Every worker's plan run on its block of *values* through a
    simulated alltoall: all workers pack first, as on the wire, then each
    places what the others packed for it."""
    P = src.nworkers
    plans = [_plan(src, dst, w, start, step) for w in range(P)]
    blocks = [values[src.global_selector(w)] for w in range(P)]
    packed = [{v: plan._take(block, take) for v, take in plan.send}
              for plan, block in zip(plans, blocks)]

    def state(w):
        return types.SimpleNamespace(comm=types.SimpleNamespace(
            size=P, alltoall=lambda _sendobjs: [packed[u].get(w)
                                                for u in range(P)]))

    return [plan.execute(state(w), block)
            for w, (plan, block) in enumerate(zip(plans, blocks))]


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
                outs = _execute_all(src, dst, values)
                for w, out in enumerate(outs):
                    assert np.array_equal(out,
                                          values[dst.global_selector(w)]), \
                        (src, dst, w)


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
        src = data.draw(_layout((n, 2), P))
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
            plan = _plan(src, dst, w, start, step)
            pieces = [piece for _peer, piece in plan.send + plan.recv]
            pieces += plan.self_pair or ()
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

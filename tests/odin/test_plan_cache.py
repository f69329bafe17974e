"""Communication plans, and the distribution keys ``same_as`` relies on.

Every redistribution and slice builds its own plan on each worker -- in
closed form for block, cyclic and block-cyclic layouts -- so nothing is
cached.  ``ctx.plan_cache_stats()`` keeps its cache-shaped answer for the
benchmark ledger: ``hits`` is 0 and ``misses`` counts the plans built.
These tests pin down correctness over repeated, dtype-changing,
distribution-changing, grid and sliced redistributions, that count, and
the key contract of :meth:`Distribution.cache_key`.
"""

import numpy as np
import pytest

from repro import odin
from repro.odin import opcodes
from repro.odin.context import OdinContext
from repro.odin.distribution import (ArbitraryDistribution,
                                     BlockCyclicDistribution,
                                     BlockDistribution, ConcatDistribution,
                                     CyclicDistribution, GridDistribution)

P = 4


@pytest.fixture
def ctx():
    with OdinContext(P) as c:
        yield c


def _built(ctx):
    """Plans built so far, checking the cache-shaped form of the answer."""
    stats = ctx.plan_cache_stats()
    assert stats["hits"] == 0
    return stats["misses"]


class TestCacheKeys:
    def test_equal_distributions_share_a_key(self):
        a = BlockDistribution((100,), 0, 4)
        b = BlockDistribution((100,), 0, 4)
        assert a.cache_key() == b.cache_key()

    def test_keys_discriminate_shape_axis_scheme(self):
        base = BlockDistribution((100,), 0, 4)
        assert base.cache_key() != BlockDistribution((101,), 0, 4).cache_key()
        assert base.cache_key() != CyclicDistribution((100,), 0,
                                                      4).cache_key()
        two_d = BlockDistribution((10, 10), 0, 4)
        assert two_d.cache_key() != \
            BlockDistribution((10, 10), 1, 4).cache_key()
        bc2 = BlockCyclicDistribution((100,), 0, 4, block_size=2)
        bc3 = BlockCyclicDistribution((100,), 0, 4, block_size=3)
        assert bc2.cache_key() != bc3.cache_key()

    def test_arbitrary_key_hashes_index_lists(self):
        lists_a = [np.array([0, 1]), np.array([2, 3])]
        lists_b = [np.array([0, 2]), np.array([1, 3])]
        da = ArbitraryDistribution((4,), 0, lists_a)
        db = ArbitraryDistribution((4,), 0, lists_b)
        same = ArbitraryDistribution((4,), 0,
                                     [np.array([0, 1]), np.array([2, 3])])
        assert da.cache_key() != db.cache_key()
        assert da.cache_key() == same.cache_key()

    def test_grid_and_concat_keys(self):
        g = GridDistribution((8, 8), (0, 1), (2, 2))
        assert g.cache_key() == \
            GridDistribution((8, 8), (0, 1), (2, 2)).cache_key()
        parts = [BlockDistribution((4,), 0, 2), BlockDistribution((6,), 0, 2)]
        c = ConcatDistribution(parts, 0)
        assert c.cache_key() is not None
        assert c.cache_key() != ConcatDistribution(
            [BlockDistribution((6,), 0, 2), BlockDistribution((4,), 0, 2)],
            0).cache_key()


class TestCachedRedistribution:
    def test_repeated_redistribution_stays_correct(self, ctx):
        data = np.arange(4000.0)
        x = odin.array(data, ctx=ctx)
        cyc = CyclicDistribution((4000,), 0, P)
        before = _built(ctx)
        for _ in range(5):
            y = x.redistribute(cyc)
            assert np.array_equal(y.gather(), data)
        # every repeat builds its own plan on every worker
        assert _built(ctx) - before == 5 * P

    def test_dtype_change_misses_but_stays_correct(self, ctx):
        cyc = CyclicDistribution((1000,), 0, P)
        f64 = odin.array(np.arange(1000.0), ctx=ctx)
        i64 = odin.array(np.arange(1000), ctx=ctx)
        assert np.array_equal(f64.redistribute(cyc).gather(),
                              np.arange(1000.0))
        mid = _built(ctx)
        out = i64.redistribute(cyc).gather()
        assert out.dtype == np.int64
        assert np.array_equal(out, np.arange(1000))
        assert _built(ctx) - mid == P

    def test_distribution_change_misses_but_stays_correct(self, ctx):
        data = np.arange(1200.0)
        x = odin.array(data, ctx=ctx)
        before = _built(ctx)
        for target in (CyclicDistribution((1200,), 0, P),
                       BlockCyclicDistribution((1200,), 0, P, block_size=8),
                       BlockDistribution((1200,), 0, P,
                                         counts=[600, 300, 200, 100])):
            assert np.array_equal(x.redistribute(target).gather(), data)
        assert _built(ctx) - before == 3 * P

    def test_grid_redistribution_cached(self, ctx):
        """Grid pairs are planned by the same per-axis planner; their
        plans count too."""
        data = np.random.default_rng(7).normal(size=(16, 12))
        g = odin.array(data, ctx=ctx, dist="grid", axes=(0, 1), grid=(2, 2))
        blk = BlockDistribution((16, 12), 0, P)
        before = _built(ctx)
        for _ in range(3):
            assert np.allclose(g.redistribute(blk).gather(), data)
        assert _built(ctx) - before == 3 * P

    def test_sliced_views_cached(self, ctx):
        """A slice is one redistribution: one plan per worker."""
        data = np.arange(3000.0)
        x = odin.array(data, ctx=ctx)
        before = _built(ctx)
        for _ in range(4):
            y = x[100:2900:3]
            assert np.array_equal(y.gather(), data[100:2900:3])
        assert _built(ctx) - before == 4 * P


class TestPlanStats:
    def test_plan_stats_opcode_roundtrip(self):
        with OdinContext(2) as ctx:
            assert ctx.run(opcodes.PLAN_STATS) == [0, 0]
            assert ctx.plan_cache_stats() == {"hits": 0, "misses": 0}

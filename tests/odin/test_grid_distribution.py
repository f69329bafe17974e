"""GridDistribution (multi-axis) tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import odin
from repro.odin.context import OdinContext
from repro.odin.distribution import (BlockDistribution, GridDistribution)
from repro.odin.periodic import PeriodicSet


class TestIndexMath:
    def test_coords_roundtrip(self):
        d = GridDistribution((8, 9), (0, 1), (2, 3))
        assert d.nworkers == 6
        for w in range(6):
            assert d.worker_at(d.coords_of(w)) == w

    def test_tiles_partition_plane(self):
        d = GridDistribution((7, 5), (0, 1), (2, 2))
        covered = np.zeros((7, 5), dtype=int)
        for w in range(4):
            rows = d.axis_indices(w, 0)
            cols = d.axis_indices(w, 1)
            covered[np.ix_(rows, cols)] += 1
        assert np.all(covered == 1)

    @given(n0=st.integers(1, 30), n1=st.integers(1, 30),
           g0=st.integers(1, 4), g1=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_partition_property(self, n0, n1, g0, g1):
        d = GridDistribution((n0, n1), (0, 1), (g0, g1))
        total = sum(int(np.prod(d.local_shape(w)))
                    for w in range(d.nworkers))
        assert total == n0 * n1

    def test_axis_periodic(self):
        d = GridDistribution((10, 10), (0, 1), (2, 2))
        w = d.worker_at((1, 1))  # owns rows 5..9, cols 5..9
        for ax in (0, 1):
            s = d.axis_periodic(w, ax)
            assert s == PeriodicSet(5, 10, 1, 0, 1)
            # a local position is the count of owned ids below it
            assert [s.below(g) - s.below(s.lo) for g in (5, 9)] == [0, 4]
        # non-distributed third axis passes through
        d3 = GridDistribution((4, 4, 6), (0, 1), (2, 2))
        assert d3.axis_indices(0, 2) is None

    def test_single_axis_ownership_queries_rejected(self):
        d = GridDistribution((8, 8), (0, 1), (2, 2))
        with pytest.raises(NotImplementedError):
            d.owner_of(np.array([3]))

    def test_validation(self):
        with pytest.raises(ValueError):
            GridDistribution((8, 8), (0, 0), (2, 2))   # repeated axis
        with pytest.raises(ValueError):
            GridDistribution((8, 8), (0, 1), (2,))     # length mismatch

    def test_same_as(self):
        a = GridDistribution((8, 8), (0, 1), (2, 2))
        b = GridDistribution((8, 8), (0, 1), (2, 2))
        c = GridDistribution((8, 8), (0, 1), (4, 1))
        assert a.same_as(b) and not a.same_as(c)

    def test_one_axis_grid_equals_block(self):
        g = GridDistribution((12, 5), (0,), (4,))
        b = BlockDistribution((12, 5), 0, 4)
        assert b.same_as(g)


class TestGridArrays:
    def test_scatter_gather_roundtrip(self, odin4):
        data = np.random.default_rng(0).normal(size=(18, 14))
        g = odin.array(data, dist="grid", axes=(0, 1), grid=(2, 2))
        assert np.allclose(g.gather(), data)

    def test_creation_routines(self, odin4):
        z = odin.zeros((10, 12), dist="grid")
        assert z.dist.kind == "grid" and z.sum() == 0.0
        r = odin.random((10, 12), dist="grid", seed=3)
        assert r.gather().shape == (10, 12)

    def test_index_dependent_fill_on_2d_grid_rejected(self, odin4):
        from repro.odin.creation import _create
        dist = odin.GridDistribution((10, 10), (0, 1), (2, 2))
        ctx = odin.get_context()
        with pytest.raises(ValueError, match="fromfunction"):
            # with control-plane batching the CREATE is fire-and-forget;
            # the worker error surfaces at the next synchronizing op
            _create(ctx, dist, np.float64, ("linspace", 0.0, 1.0, 10, True))
            ctx.flush()

    def test_fromfunction(self, odin4):
        f = odin.fromfunction(lambda i, j: i - j, (9, 9), dist="grid")
        assert np.allclose(f.gather(),
                           np.fromfunction(lambda i, j: i - j, (9, 9)))

    def test_elementwise_and_reductions(self, odin4):
        data = np.random.default_rng(1).normal(size=(16, 10))
        g = odin.array(data, dist="grid")
        assert np.allclose((g * 2 + 1).gather(), data * 2 + 1)
        assert g.sum() == pytest.approx(data.sum())
        assert np.allclose(g.sum(axis=0), data.sum(axis=0))
        assert np.allclose(g.sum(axis=1), data.sum(axis=1))
        assert np.allclose(g.min(axis=0), data.min(axis=0))
        assert g.mean() == pytest.approx(data.mean())

    def test_scalar_fetch(self, odin4):
        data = np.arange(48.0).reshape(8, 6)
        g = odin.array(data, dist="grid")
        assert g[5, 4] == data[5, 4]
        assert g[0, 0] == 0.0

    def test_redistribute_to_and_from_grid(self, odin4):
        data = np.random.default_rng(2).normal(size=(20, 8))
        g = odin.array(data, dist="grid", grid=(2, 2))
        rows = g.redistribute(odin.BlockDistribution((20, 8), 0, 4))
        assert np.allclose(rows.gather(), data)
        back = rows.redistribute(odin.GridDistribution((20, 8), (0, 1),
                                                       (1, 4)))
        assert np.allclose(back.gather(), data)

    def test_grid_to_grid_transpose_layout(self, odin4):
        data = np.random.default_rng(3).normal(size=(12, 12))
        a = odin.array(data, dist="grid", grid=(4, 1))
        b = a.redistribute(odin.GridDistribution((12, 12), (0, 1), (1, 4)))
        assert np.allclose(b.gather(), data)

    def test_binary_between_different_grids(self, odin4):
        data = np.arange(64.0).reshape(8, 8)
        a = odin.array(data, dist="grid", grid=(2, 2))
        b = odin.array(data, dist="grid", grid=(4, 1))
        c = a + b
        assert np.allclose(c.gather(), 2 * data)

    def test_slicing_rejected_with_hint(self, odin4):
        g = odin.zeros((8, 8), dist="grid")
        with pytest.raises(NotImplementedError, match="redistribute"):
            g[1:4, :]
        with pytest.raises(NotImplementedError, match="redistribute"):
            g[1:4] = 0.0

    def test_local_function_gets_tiles(self, odin4):
        data = np.arange(36.0).reshape(6, 6)
        g = odin.array(data, dist="grid", grid=(2, 2))

        @odin.local
        def tile_shape(x):
            return x.shape

        shapes = tile_shape(g)
        assert shapes == [(3, 3)] * 4

    def test_worker_count_mismatch(self, odin4):
        with pytest.raises(ValueError):
            odin.zeros((8, 8), dist="grid", grid=(3, 3))  # needs 9

    def test_cost_model_grid(self, odin4):
        a = odin.GridDistribution((16, 16), (0, 1), (2, 2))
        b = odin.GridDistribution((16, 16), (0, 1), (4, 1))
        same = odin.GridDistribution((16, 16), (0, 1), (2, 2))
        assert odin.redistribution_cost(a, same) == 0
        cost = odin.redistribution_cost(a, b)
        assert 0 < cost < 16 * 16

    def test_3d_array_grid_over_two_axes(self, odin4):
        data = np.random.default_rng(4).normal(size=(8, 6, 3))
        g = odin.array(data, dist="grid", axes=(0, 1), grid=(2, 2))
        assert np.allclose(g.gather(), data)
        assert np.allclose((g ** 2).gather(), data ** 2)
        assert g.sum() == pytest.approx(data.sum())
        assert np.allclose(g.sum(axis=2).gather()
                           if hasattr(g.sum(axis=2), "gather")
                           else g.sum(axis=2), data.sum(axis=2))
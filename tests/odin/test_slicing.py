"""Distributed slicing tests (paper section III-G machinery)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import odin
from tests.conftest import settle_counters


class TestBasicSlices:
    def test_simple_ranges(self, odin4):
        x = odin.arange(40, dtype=np.float64)
        xs = np.arange(40.0)
        for sl in (slice(1, None), slice(None, -1), slice(5, 30),
                   slice(None, None, 2), slice(3, 33, 5),
                   slice(None, None, -1), slice(30, 5, -3)):
            got = x[sl].gather()
            assert np.allclose(got, xs[sl]), sl

    def test_shifted_difference(self, odin4):
        """The paper's dy = y[1:] - y[:-1]."""
        y = odin.linspace(0, 1, 500) ** 2
        ys = np.linspace(0, 1, 500) ** 2
        dy = y[1:] - y[:-1]
        assert np.allclose(dy.gather(), ys[1:] - ys[:-1])

    def test_result_rebalanced(self, odin4):
        x = odin.arange(41, dtype=np.float64)
        s = x[1:]
        # 40 elements over 4 workers: balanced block again
        assert s.dist.counts() == [10, 10, 10, 10]

    def test_2d_slice_both_axes(self, odin4):
        data = np.arange(60.0).reshape(12, 5)
        x = odin.array(data)
        got = x[2:10, 1:4].gather()
        assert np.allclose(got, data[2:10, 1:4])

    def test_integer_index_on_local_axis_squeezes(self, odin4):
        data = np.arange(60.0).reshape(12, 5)
        x = odin.array(data)
        col = x[:, 2]
        assert col.shape == (12,)
        assert np.allclose(col.gather(), data[:, 2])

    def test_integer_on_distributed_axis_of_2d_rejected(self, odin4):
        x = odin.zeros((8, 3))
        with pytest.raises(NotImplementedError):
            x[2]

    def test_empty_slice(self, odin4):
        x = odin.arange(10, dtype=np.float64)
        assert x[5:5].shape == (0,)

    def test_slice_of_cyclic_array(self, odin4):
        x = odin.arange(30, dist="cyclic", dtype=np.float64)
        got = x[4:25:3].gather()
        assert np.allclose(got, np.arange(30.0)[4:25:3])

    @given(start=st.integers(-45, 45),
           stop=st.integers(-45, 45) | st.none(),
           step=st.integers(-5, 5).filter(lambda s: s != 0))
    @settings(max_examples=30, deadline=None)
    def test_slice_property(self, odin4, start, stop, step):
        xs = np.arange(41.0)
        x = odin.array(xs)
        sl = slice(start, stop, step)
        assert np.allclose(x[sl].gather(), xs[sl])


class TestHaloTraffic:
    def test_shift_by_one_moves_boundary_only(self, odin4):
        """A unit shift should move O(P) elements, not O(N)."""
        n = 4000
        y = odin.arange(n, dtype=np.float64)
        ctx = odin.get_context()
        settle_counters(ctx)
        _dy = y[1:] - y[:-1]
        _msgs, nbytes = ctx.worker_traffic()
        # boundary exchange: a handful of elements per worker boundary,
        # far below the 32 KB payload
        assert nbytes < 8 * n / 4

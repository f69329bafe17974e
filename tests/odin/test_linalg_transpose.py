"""Distributed dot/matmul and transpose tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import odin
from tests.conftest import settle_counters


class TestDot:
    def test_inner_product(self, odin4):
        xs = np.random.default_rng(0).normal(size=77)
        ys = np.random.default_rng(1).normal(size=77)
        x = odin.array(xs)
        y = odin.array(ys)
        assert odin.dot(x, y) == pytest.approx(xs @ ys)

    def test_shape_mismatch(self, odin4):
        with pytest.raises(ValueError):
            odin.dot(odin.ones(5), odin.ones(6))

    def test_non_distarray_rejected(self, odin4):
        with pytest.raises(TypeError):
            odin.matmul(np.ones((2, 2)), odin.ones(2))


class TestMatmul:
    def test_matvec(self, odin4):
        A = np.random.default_rng(2).normal(size=(31, 9))
        x = np.random.default_rng(3).normal(size=9)
        got = odin.matmul(odin.array(A), odin.array(x))
        assert isinstance(got, odin.DistArray)
        assert np.allclose(got.gather(), A @ x)

    def test_matmat(self, odin4):
        A = np.random.default_rng(4).normal(size=(20, 7))
        B = np.random.default_rng(5).normal(size=(7, 3))
        got = odin.matmul(odin.array(A), odin.array(B))
        assert np.allclose(got.gather(), A @ B)

    def test_result_stays_distributed_for_chaining(self, odin4):
        A = np.random.default_rng(6).normal(size=(16, 16))
        x = np.random.default_rng(7).normal(size=16)
        dA = odin.array(A)
        y = odin.matmul(dA, odin.matmul(dA, odin.array(x)))
        assert np.allclose(y.gather(), A @ (A @ x))

    def test_left_operand_redistributed_if_needed(self, odin4):
        A = np.random.default_rng(8).normal(size=(12, 6))
        x = np.random.default_rng(9).normal(size=6)
        dA = odin.array(A, axis=1)   # column-distributed
        got = odin.matmul(dA, odin.array(x))
        assert np.allclose(got.gather(), A @ x)

    def test_inner_dim_mismatch(self, odin4):
        with pytest.raises(ValueError):
            odin.matmul(odin.ones((4, 5)), odin.ones(6))

    @given(n=st.integers(2, 25), m=st.integers(1, 10),
           seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_matvec_property(self, odin4, n, m, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, m))
        x = rng.normal(size=m)
        got = odin.matmul(odin.array(A), odin.array(x))
        assert np.allclose(got.gather(), A @ x)


class TestTranspose:
    def test_2d_roundtrip(self, odin4):
        data = np.arange(35.0).reshape(7, 5)
        d = odin.array(data)
        t = d.T
        assert t.shape == (5, 7)
        assert np.allclose(t.gather(), data.T)
        assert np.allclose(t.T.gather(), data)

    def test_transpose_moves_no_data(self, odin4):
        d = odin.random((400, 30), seed=1)
        ctx = odin.get_context()
        settle_counters(ctx)
        _t = d.T
        _m, nbytes = ctx.worker_traffic()
        assert nbytes < 2_000  # control relay only

    def test_3d_permutation(self, odin4):
        data = np.arange(2 * 12 * 3.0).reshape(12, 2, 3)
        d = odin.array(data)
        p = d.transpose((2, 0, 1))
        assert p.shape == (3, 12, 2)
        assert np.allclose(p.gather(), data.transpose(2, 0, 1))

    def test_cyclic_distribution_preserved(self, odin4):
        data = np.arange(24.0).reshape(8, 3)
        d = odin.array(data, dist="cyclic")
        t = d.T
        assert t.dist.kind == "cyclic" and t.dist.axis == 1
        assert np.allclose(t.gather(), data.T)

    def test_grid_transpose(self, odin4):
        data = np.arange(48.0).reshape(8, 6)
        g = odin.array(data, dist="grid", grid=(2, 2))
        t = g.T
        assert t.dist.kind == "grid"
        assert np.allclose(t.gather(), data.T)

    def test_invalid_permutation(self, odin4):
        with pytest.raises(ValueError):
            odin.ones((4, 4)).transpose((0, 0))

    def test_transposed_array_computes(self, odin4):
        data = np.random.default_rng(10).normal(size=(10, 4))
        d = odin.array(data)
        s = (d.T * 2).sum()
        assert s == pytest.approx(2 * data.sum())

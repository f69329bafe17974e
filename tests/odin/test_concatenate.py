"""odin.concatenate tests."""

import numpy as np
import pytest

from repro import odin
from tests.conftest import settle_counters


class TestConcatenate:
    def test_1d_matches_numpy(self, odin4):
        a = np.random.default_rng(0).normal(size=37)
        b = np.random.default_rng(1).normal(size=23)
        got = odin.concatenate([odin.array(a), odin.array(b)]).gather()
        assert np.allclose(got, np.concatenate([a, b]))

    def test_three_operands(self, odin4):
        parts = [np.arange(float(n)) for n in (5, 9, 2)]
        got = odin.concatenate([odin.array(p) for p in parts]).gather()
        assert np.allclose(got, np.concatenate(parts))

    def test_2d_axis0(self, odin4):
        A = np.random.default_rng(2).normal(size=(10, 3))
        B = np.random.default_rng(3).normal(size=(14, 3))
        got = odin.concatenate([odin.array(A), odin.array(B)]).gather()
        assert np.allclose(got, np.concatenate([A, B]))

    def test_zero_communication_for_block_operands(self, odin4):
        a = odin.random(40_000, seed=1)
        b = odin.random(40_000, seed=2)
        ctx = odin.get_context()
        settle_counters(ctx)
        _c = odin.concatenate([a, b])
        _m, nbytes = ctx.worker_traffic()
        assert nbytes < 4_000  # control relay only, never the payload

    def test_cyclic_operand_normalized(self, odin4):
        a = np.arange(30.0)
        da = odin.array(a, dist="cyclic")
        db = odin.array(a)
        got = odin.concatenate([da, db]).gather()
        assert np.allclose(got, np.concatenate([a, a]))

    def test_result_composes_downstream(self, odin4):
        c = odin.concatenate([odin.ones(10), odin.zeros(6)])
        assert c.sum() == 10.0
        assert np.allclose((c * 3).gather()[:10], 3.0)
        assert c[12] == 0.0

    def test_extent_mismatch_rejected(self, odin4):
        with pytest.raises(ValueError):
            odin.concatenate([odin.ones((4, 3)), odin.ones((4, 5))])

    def test_dim_mismatch_rejected(self, odin4):
        with pytest.raises(ValueError):
            odin.concatenate([odin.ones(4), odin.ones((4, 2))])

    def test_empty_list(self, odin4):
        with pytest.raises(ValueError):
            odin.concatenate([])

    def test_mixed_dtypes_promote(self, odin4):
        c = odin.concatenate([odin.ones(4, dtype=np.int64),
                              odin.ones(4, dtype=np.float64)])
        assert c.dtype == np.float64

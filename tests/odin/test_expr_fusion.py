"""Lazy expressions and loop fusion tests."""

import numpy as np
import pytest

from repro import odin
from repro.odin.expr import LazyExpr
from tests.conftest import settle_counters


class TestLazyGraphs:
    def test_lazy_defers_execution(self, odin4):
        a = odin.ones(20)
        ctx = odin.get_context()
        settle_counters(ctx)
        with odin.lazy():
            expr = a * 2 + 1
        # nothing ran yet: no control messages for the arithmetic
        msgs, _bytes = ctx.control_traffic()
        assert msgs == 0
        assert isinstance(expr, LazyExpr)
        assert expr.num_ops() == 2

    def test_evaluate_matches_eager(self, odin4):
        u = odin.random(200, seed=10)
        v = odin.random(200, seed=11)
        with odin.lazy():
            expr = odin.sqrt(u * u + v * v) * 2.0 - 1.0
        fused = odin.evaluate(expr, use_seamless=False).gather()
        eager = (odin.sqrt(u * u + v * v) * 2.0 - 1.0).gather()
        assert np.allclose(fused, eager)

    def test_one_control_roundtrip_for_whole_expression(self, odin4):
        a = odin.ones(50)
        b = odin.ones(50)
        with odin.lazy():
            expr = a * 2 + b * 3 - 1
        ctx = odin.get_context()
        settle_counters(ctx)
        odin.evaluate(expr, use_seamless=False)
        msgs, _ = ctx.control_traffic()
        # one fused op: one bcast tree (<= nworkers messages from driver)
        assert msgs <= 4

    def test_module_ufuncs_participate(self, odin4):
        x = odin.linspace(0.1, 2.0, 64)
        with odin.lazy():
            expr = odin.exp(odin.log(x))
        got = odin.evaluate(expr, use_seamless=False).gather()
        assert np.allclose(got, x.gather())

    def test_scalars_and_reflected_ops(self, odin4):
        x = odin.ones(16)
        with odin.lazy():
            expr = 10.0 - x / 2
        assert np.allclose(odin.evaluate(expr,
                                         use_seamless=False).gather(), 9.5)

    def test_mixed_distributions_conformed_once(self, odin4):
        a = odin.arange(32, dist="block", dtype=np.float64)
        b = odin.arange(32, dist="cyclic", dtype=np.float64)
        with odin.lazy():
            expr = a * b + a
        got = odin.evaluate(expr, use_seamless=False).gather()
        ref = np.arange(32.0) ** 2 + np.arange(32.0)
        assert np.allclose(got, ref)

    def test_dtype_inference(self, odin4):
        x = odin.arange(8)      # integer
        with odin.lazy():
            expr = x / 2        # true divide -> float
        out = odin.evaluate(expr, use_seamless=False)
        assert out.dtype == np.float64

    def test_evaluate_rejects_junk(self, odin4):
        with pytest.raises(TypeError):
            odin.evaluate(42)

    def test_evaluate_passthrough_distarray(self, odin4):
        x = odin.ones(4)
        assert odin.evaluate(x) is x

    def test_is_lazy_flag(self, odin4):
        assert not odin.is_lazy()
        with odin.lazy():
            assert odin.is_lazy()
        assert not odin.is_lazy()


class TestSeamlessFusion:
    def test_native_kernel_matches(self, odin4, has_cc):
        if not has_cc:
            pytest.skip("no C compiler")
        u = odin.random(500, seed=20)
        v = odin.random(500, seed=21)
        with odin.lazy():
            expr = odin.sqrt(u * u + v * v)
        native = odin.evaluate(expr, use_seamless=True).gather()
        ref = np.hypot(u.gather(), v.gather())
        assert np.allclose(native, ref)

    def test_long_chain(self, odin4, has_cc):
        if not has_cc:
            pytest.skip("no C compiler")
        x = odin.linspace(0.0, 1.0, 300)
        with odin.lazy():
            expr = odin.sin(x) * odin.cos(x) + odin.exp(-x) / (x + 1.0)
        got = odin.evaluate(expr, use_seamless=True).gather()
        xs = x.gather()
        assert np.allclose(got,
                           np.sin(xs) * np.cos(xs) + np.exp(-xs) / (xs + 1))


class TestFusedDtypes:
    """The native loop computes in float64 only; every other dtype must
    keep NumPy's values *and* dtype (the stack machine's promotion)."""

    @pytest.mark.parametrize("src, fn", [
        (np.arange(-10, 30, dtype=np.int64), lambda a: a * 3 + 1),
        (np.linspace(-2.0, 2.0, 40, dtype=np.float32),
         lambda a: a * 2 + 1),
        (np.arange(40) * (1.0 - 2.0j), lambda a: a * 2.0),
        (np.linspace(0.0, 1.0, 40), lambda a: a * np.complex128(2j) + 1.0),
    ], ids=["int64", "float32", "complex128", "complex-const"])
    # NumPy's own action for a lossy complex cast: warn and go on.  As an
    # error (ComplexWarning is a RuntimeWarning) it would abort the cast
    # and hide a wrong-dtype engine choice behind the fallback.
    @pytest.mark.filterwarnings("default::numpy.exceptions.ComplexWarning")
    def test_value_and_dtype_match_numpy(self, odin4, src, fn):
        a = odin.array(src)
        with odin.lazy():
            expr = fn(a)
        out = odin.evaluate(expr)
        got = out.gather()
        expect = fn(src)
        assert out.dtype == expect.dtype
        assert got.dtype == expect.dtype
        assert np.array_equal(got, expect)

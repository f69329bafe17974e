"""C backend semantics and @jit dispatcher tests.

Kernels are built from source strings (so they work under any pytest
invocation) plus file-level functions for the @jit path.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seamless import (FLOAT64, INT64, UnsupportedError,
                            compile_source, compiler_available,
                            float64_array, infer, int64_array, jit,
                            source_to_ir)
from repro.seamless.backend_c import compile_typed

pytestmark = pytest.mark.skipif(not compiler_available(),
                                reason="no C compiler on PATH")


def _kernel(src, arg_types, name=None):
    tf = infer(source_to_ir(src, name), arg_types)
    return compile_typed(tf)


class TestPythonSemantics:
    """Compiled code must match CPython numerics (the documented subset)."""

    @given(a=st.integers(-100, 100), b=st.integers(-100, 100)
           .filter(lambda v: v != 0))
    @settings(max_examples=40, deadline=None)
    def test_floor_division_and_modulo(self, a, b):
        k = _kernel("def f(a, b):\n    return a // b\n", [INT64, INT64])
        m = _kernel("def f(a, b):\n    return a % b\n", [INT64, INT64])
        assert k(a, b) == a // b
        assert m(a, b) == a % b

    @given(a=st.floats(-50, 50), b=st.floats(0.1, 50))
    @settings(max_examples=30, deadline=None)
    def test_float_modulo_sign(self, a, b):
        m = _kernel("def f(a, b):\n    return a % b\n",
                    [FLOAT64, FLOAT64])
        assert m(a, b) == pytest.approx(a % b, abs=1e-12)

    def test_true_division_of_ints_is_float(self):
        k = _kernel("def f(a, b):\n    return a / b\n", [INT64, INT64])
        assert k(7, 2) == 3.5

    def test_power(self):
        k = _kernel("def f(a, b):\n    return a ** b\n",
                    [FLOAT64, FLOAT64])
        assert k(2.0, 10.0) == 1024.0

    @given(x=st.floats(-1e6, 1e6))
    @settings(max_examples=30, deadline=None)
    def test_abs_minmax(self, x):
        k = _kernel("def f(a):\n    return abs(a)\n", [FLOAT64])
        mn = _kernel("def f(a, b):\n    return min(a, b)\n",
                     [FLOAT64, FLOAT64])
        mx = _kernel("def f(a, b):\n    return max(a, b)\n",
                     [FLOAT64, FLOAT64])
        assert k(x) == abs(x)
        assert mn(x, 0.0) == min(x, 0.0)
        assert mx(x, 0.0) == max(x, 0.0)

    def test_int_abs_minmax(self):
        mn = _kernel("def f(a, b):\n    return min(a, b)\n",
                     [INT64, INT64])
        assert mn(-5, 3) == -5
        k = _kernel("def f(a):\n    return abs(a)\n", [INT64])
        assert k(-9) == 9 and isinstance(k(-9), int)

    @given(x=st.floats(0.001, 100.0))
    @settings(max_examples=20, deadline=None)
    def test_libm_calls(self, x):
        k = _kernel(
            "def f(x):\n    return sqrt(x) + log(x) + atan2(x, 2.0)\n",
            [FLOAT64])
        assert k(x) == pytest.approx(
            math.sqrt(x) + math.log(x) + math.atan2(x, 2.0), rel=1e-12)

    def test_casts(self):
        k = _kernel("def f(x):\n    return int(x) + float(3)\n",
                    [FLOAT64])
        assert k(2.9) == 5.0

    def test_bool_return(self):
        k = _kernel("def f(x):\n    return x > 2 and x < 10\n", [INT64])
        assert k(5) is True and k(1) is False

    def test_negative_step_range(self):
        k = _kernel('''
def f(n):
    acc = 0
    for i in range(n, 0, -1):
        acc += i
    return acc
''', [INT64])
        assert k(5) == 15

    def test_nested_loops(self):
        k = _kernel('''
def f(n):
    acc = 0
    for i in range(n):
        for j in range(i):
            acc += 1
    return acc
''', [INT64])
        assert k(6) == 15

    def test_while_collatz(self):
        k = _kernel('''
def f(n):
    steps = 0
    while n != 1:
        if n % 2 == 0:
            n = n // 2
        else:
            n = 3 * n + 1
        steps += 1
    return steps
''', [INT64])
        assert k(27) == 111

    def test_array_reads(self):
        k = _kernel('''
def f(it):
    res = 0.0
    for i in range(len(it)):
        res += it[i] * it[i]
    return res
''', [float64_array])
        arr = np.arange(10.0)
        assert k(arr) == pytest.approx((arr * arr).sum())

    def test_array_writes_visible(self):
        k = _kernel('''
def f(out, n):
    for i in range(n):
        out[i] = i * 2.0
''', [float64_array, INT64])
        buf = np.zeros(6)
        k(buf, 6)
        assert np.allclose(buf, np.arange(6) * 2.0)

    def test_int_array_input(self):
        k = _kernel('''
def f(it):
    res = 0
    for i in range(len(it)):
        res += it[i]
    return res
''', [int64_array])
        assert k(np.arange(100, dtype=np.int64)) == 4950

    def test_bitwise_ops(self):
        k = _kernel("def f(a, b):\n    return (a & b) | (a ^ b)\n",
                    [INT64, INT64])
        assert k(12, 10) == (12 & 10) | (12 ^ 10)


# file-level functions for the dispatcher tests (inspect.getsource works)
@jit
def _jsum(it):
    res = 0.0
    for i in range(len(it)):
        res += it[i]
    return res


@jit
def _scale_inplace(x, a):
    for i in range(len(x)):
        x[i] = x[i] * a


@jit
def _fill(a):
    for i in range(len(a)):
        a[i] = 7.0


@jit(nopython=True)
def _strict(x):
    return x * 2


@jit
def _fallback_fn(d):
    return d["key"]


class TestJitDispatcher:
    def test_lazy_specialization(self):
        arr = np.random.default_rng(0).random(1000)
        assert _jsum(arr) == pytest.approx(arr.sum())
        assert len(_jsum.signatures) == 1

    def test_second_signature(self):
        _jsum(np.random.default_rng(0).random(10))
        _jsum([1, 2, 3])
        # int list -> int64[] signature, distinct from float64[]
        assert len(_jsum.signatures) == 2

    def test_list_write_back(self):
        data = [1.0, 2.0, 3.0]
        _scale_inplace(data, 10.0)
        assert data == [10.0, 20.0, 30.0]

    def test_ndarray_write_back_with_dtype_coercion(self):
        data = np.arange(4, dtype=np.float32)
        _scale_inplace(data, 2.0)
        assert np.allclose(data, [0, 2, 4, 6])

    def test_written_read_only_array_raises(self, monkeypatch):
        """Writing through a read-only array raises NumPy's ValueError
        before any element changes, compiled or interpreted."""
        import importlib
        # the package re-exports a function named ``jit``
        jit_module = importlib.import_module("repro.seamless.jit")
        x = np.zeros(4)
        _fill(x)            # compiled: the dispatcher's last signature
        assert (x == 7.0).all()
        for dtype in (np.float64, np.float32):    # by pointer, by copy
            ro = np.zeros(4, dtype=dtype)
            ro.flags.writeable = False
            with pytest.raises(ValueError, match="read-only"):
                _fill(ro)
            assert not ro.any()
        monkeypatch.setattr(jit_module, "compiler_available", lambda: False)
        interpreted = jit(_fill.py_func)
        with pytest.raises(ValueError, match="read-only"):
            interpreted(ro)
        assert interpreted.last_fallback_reason == "no C compiler available"
        assert not ro.any()

    def test_read_only_input_is_read_in_place(self):
        x = np.arange(5.0)
        x.flags.writeable = False
        assert _jsum(x) == 10.0 and _jsum(x[::2]) == 6.0

    def test_fallback_to_python(self):
        assert _fallback_fn({"key": 42}) == 42
        assert _fallback_fn.last_fallback_reason is not None

    def test_nopython_raises_instead_of_falling_back(self):
        with pytest.raises(UnsupportedError):
            _strict({"not": "numeric"})

    def test_nopython_works_when_compilable(self):
        assert _strict(21) == 42

    def test_inspect_c_source(self):
        _jsum(np.ones(4))
        src = _jsum.inspect_c_source()
        assert "for (" in src and "double" in src

    def test_wrong_argcount(self):
        _jsum(np.ones(3))
        sig = _jsum.signatures[0]
        from repro.seamless.backend_c import CompiledKernel
        kernel = _jsum._specializations[sig]
        with pytest.raises(TypeError):
            kernel(np.ones(3), 2.0)

    def test_correctness_vs_python_property(self):
        @given(data=st.lists(st.floats(-1e3, 1e3), min_size=1,
                             max_size=50))
        @settings(max_examples=25, deadline=None)
        def check(data):
            arr = np.array(data)
            assert _jsum(arr) == pytest.approx(float(arr.sum()),
                                               rel=1e-9, abs=1e-9)
        check()

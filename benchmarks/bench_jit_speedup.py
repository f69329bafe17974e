"""L3/C5 -- "Python is too slow. Seamless allows compilation to fast
machine code."

Three kernels (the paper's sum, a saxpy reduction, and an iterative
logistic-map kernel a vectorizer cannot help with), each timed as pure
Python, Seamless JIT, and NumPy where expressible.

A second section times the call boundary: a repeated ``@jit`` call on
one and on five 1000-element arrays (the marshaller's cost), and
``sin(x)*cos(y)`` over 4 M float64 as ``@elementwise``, as a fused ODIN
kernel and as NumPy -- the two compiled forms share one loop emitter.
"""

import math
import time

import numpy as np

from repro.seamless import (compile_elementwise, compiler_available,
                            elementwise, jit)

try:
    from .common import Section, main, table
except ImportError:  # executed as a script, not as a package module
    from common import Section, main, table

N = 1_000_000


# --- kernels, defined once; jit wraps the same code object -------------
def sum_kernel(it):
    res = 0.0
    for i in range(len(it)):
        res += it[i]
    return res


def saxpy_dot(x, y, a):
    s = 0.0
    for i in range(len(x)):
        s += (a * x[i] + y[i]) * x[i]
    return s


def logistic_final(x0, r, steps):
    x = x0
    for _i in range(steps):
        x = r * x * (1.0 - x)
    return x


def one_array(a):
    return a[0]


def five_arrays(a, b, c, d, e):
    return a[0] + b[0] + c[0] + d[0] + e[0]


def sin_cos(x, y):
    return math.sin(x) * math.cos(y)


M = 4_000_000
CALLS = 20_000


def _time(fn, *args, repeats=3):
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, value


def _measure():
    rng = np.random.default_rng(0)
    data = rng.random(N)
    x = rng.random(N)
    y = rng.random(N)

    jsum = jit(sum_kernel)
    jsaxpy = jit(saxpy_dot)
    jlog = jit(logistic_final)
    # warm up compilations
    jsum(data[:10]); jsaxpy(x[:10], y[:10], 1.1); jlog(0.2, 3.7, 10)

    rows = []

    t_py, v_py = _time(sum_kernel, data, repeats=1)
    t_jit, v_jit = _time(jsum, data)
    t_np, _ = _time(np.sum, data)
    assert abs(v_py - v_jit) < 1e-6 * max(1.0, abs(v_py))
    rows.append(("sum (paper IV-A)", f"{t_py * 1e3:.1f}",
                 f"{t_jit * 1e3:.2f}", f"{t_np * 1e3:.2f}",
                 f"{t_py / t_jit:.0f}x", f"{t_py / t_np:.0f}x"))

    t_py, v_py = _time(saxpy_dot, x, y, 1.5, repeats=1)
    t_jit, v_jit = _time(jsaxpy, x, y, 1.5)
    t_np, _ = _time(lambda: float(((1.5 * x + y) * x).sum()))
    assert abs(v_py - v_jit) < 1e-6 * max(1.0, abs(v_py))
    rows.append(("saxpy-dot", f"{t_py * 1e3:.1f}", f"{t_jit * 1e3:.2f}",
                 f"{t_np * 1e3:.2f}", f"{t_py / t_jit:.0f}x",
                 f"{t_py / t_np:.0f}x"))

    steps = 2_000_000
    t_py, v_py = _time(logistic_final, 0.2, 3.7, steps, repeats=1)
    t_jit, v_jit = _time(jlog, 0.2, 3.7, steps)
    assert abs(v_py - v_jit) < 1e-9
    rows.append(("logistic map (sequential)", f"{t_py * 1e3:.1f}",
                 f"{t_jit * 1e3:.2f}", "n/a", f"{t_py / t_jit:.0f}x",
                 "n/a"))
    return rows


def _per_call_us(fn, args, repeats=5):
    """Best-of-*repeats* mean time of one call over CALLS calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(CALLS):
            fn(*args)
        best = min(best, (time.perf_counter() - t0) / CALLS)
    return best * 1e6


def _call_boundary():
    arrays = [np.zeros(1000) for _ in range(5)]
    j1, j5 = jit(one_array), jit(five_arrays)
    j1(arrays[0]); j5(*arrays)
    calls = [("@jit, 1 array", f"{_per_call_us(j1, arrays[:1]):.2f}"),
             ("@jit, 5 arrays", f"{_per_call_us(j5, arrays):.2f}")]

    rng = np.random.default_rng(0)
    x, y = rng.uniform(-10, 10, M), rng.uniform(-10, 10, M)
    vectorized = elementwise(sin_cos)
    fused = compile_elementwise((("load", 0), ("unary", "sin"), ("load", 1),
                                 ("unary", "cos"), ("binary", "multiply")), 2)
    out = np.empty(M)
    t_vec, v_vec = _time(vectorized, x, y, repeats=5)
    t_fused, _ = _time(fused, out, x, y, repeats=5)
    t_np, v_np = _time(lambda: np.sin(x) * np.cos(y), repeats=5)
    assert np.allclose(v_vec, v_np, rtol=0, atol=1e-14)
    assert np.allclose(out, v_np, rtol=0, atol=1e-14)
    loops = [(name, f"{t * 1e3:.1f}", f"{t / t_fused:.2f}")
             for name, t in (("@elementwise", t_vec), ("fused ODIN kernel",
                                                        t_fused),
                             ("NumPy", t_np))]
    return calls, loops


def generate_report() -> str:
    if not compiler_available():
        return Section("L3/C5: Seamless JIT speedup").line(
            "SKIPPED: no C compiler available.").render()
    rows = _measure()
    calls, loops = _call_boundary()
    section = Section("L3/C5: Seamless JIT speedup over pure Python")
    section.add(table(
        ["kernel", "python ms", "jit ms", "numpy ms", "jit speedup",
         "numpy speedup"], rows,
        title=f"N = {N:,} float64 elements (best of 3)"))
    section.line(
        "The JIT reaches (and for sequential kernels exceeds) NumPy's "
        "C-library speed from plain decorated Python -- the paper's "
        "'node-level Python code as fast as compiled languages' claim. "
        "The logistic-map row shows the case vectorization cannot touch, "
        "where only compilation helps.")
    section.add(table(["repeated call", "us per call"], calls,
                      title=f"Call boundary: best mean of {CALLS:,} calls "
                            f"on 1000-element float64 arrays"))
    section.add(table(["sin(x)*cos(y)", "ms", "vs fused"], loops,
                      title=f"One loop emitter: {M:,} float64 elements "
                            f"(best of 5)"))
    return section.render()


def test_jit_sum(benchmark):
    if not compiler_available():
        import pytest
        pytest.skip("no C compiler")
    data = np.random.default_rng(0).random(N)
    jsum = jit(sum_kernel)
    jsum(data[:8])  # compile
    result = benchmark(jsum, data)
    assert abs(result - data.sum()) < 1e-6


def test_pure_python_sum_baseline(benchmark):
    data = np.random.default_rng(0).random(20_000)  # smaller: it's slow
    result = benchmark(sum_kernel, data)
    assert abs(result - data.sum()) < 1e-8


if __name__ == "__main__":
    main(generate_report)

"""CModule, static compilation, C++ export, elementwise, and CLI tests."""

import ctypes
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.seamless import (CModule, HeaderParseError, build_module,
                            compile_and_run_cpp, compile_elementwise,
                            compiler_available, elementwise_c_source,
                            export_cpp, parse_header, UnsupportedError)
from repro.seamless.cheader import ctype_of

pytestmark = pytest.mark.skipif(not compiler_available(),
                                reason="no C compiler on PATH")


class TestCHeaderParsing:
    def test_math_h_discovers_common_functions(self):
        decls = parse_header("math.h")
        for name in ("atan2", "sqrt", "pow", "hypot", "floor"):
            assert name in decls, name
        assert decls["atan2"].restype is ctypes.c_double
        assert decls["atan2"].argtypes == [ctypes.c_double,
                                           ctypes.c_double]

    def test_string_h(self):
        decls = parse_header("string.h")
        assert "strlen" in decls

    def test_missing_header(self):
        with pytest.raises(HeaderParseError):
            parse_header("no_such_header_xyz.h")

    def test_ctype_of_spellings(self):
        assert ctype_of("double") is ctypes.c_double
        assert ctype_of("const double") is ctypes.c_double
        assert ctype_of("unsigned long") is ctypes.c_ulong
        assert ctype_of("double *") == ctypes.POINTER(ctypes.c_double)
        assert ctype_of("char *") is ctypes.c_char_p
        assert ctype_of("void *") is ctypes.c_void_p
        assert ctype_of("struct foo") is False
        assert ctype_of("double **") is False


class TestCModule:
    def test_paper_example_verbatim(self):
        class cmath(CModule):
            Header = "math.h"

        libm = cmath("m")
        assert libm.atan2(1.0, 2.0) == pytest.approx(math.atan2(1.0, 2.0))

    def test_many_functions_work(self):
        class cmath(CModule):
            Header = "math.h"

        libm = cmath("m")
        assert libm.hypot(3.0, 4.0) == 5.0
        assert libm.pow(2.0, 8.0) == 256.0
        assert libm.floor(2.7) == 2.0

    def test_function_listing_and_dir(self):
        class cmath(CModule):
            Header = "math.h"

        libm = cmath("m")
        assert len(libm.functions()) > 100
        assert "sqrt" in dir(libm)

    def test_unknown_function(self):
        class cmath(CModule):
            Header = "math.h"

        libm = cmath("m")
        with pytest.raises(AttributeError):
            libm.definitely_not_a_libm_function()

    def test_missing_header_attr(self):
        class bad(CModule):
            pass

        with pytest.raises(TypeError):
            bad("m")

    def test_missing_library(self):
        class cmath(CModule):
            Header = "math.h"

        with pytest.raises(OSError):
            cmath("no_such_library_xyz")

    def test_libc_strlen(self):
        class cstring(CModule):
            Header = "string.h"

        libc = cstring("c")
        assert libc.strlen(b"hello") == 5


KERNELS = '''
def ksum(it):
    res = 0.0
    for i in range(len(it)):
        res += it[i]
    return res


def kdot(x, y):
    s = 0.0
    for i in range(len(x)):
        s += x[i] * y[i]
    return s


def annotated(x: "float64[]"):
    m = 0.0
    for i in range(len(x)):
        m = max(m, x[i])
    return m
'''


GRID_KERNELS = '''
def total(a: "float64[,]"):
    s = 0.0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            s += a[i, j]
    return s


def scale(x: "float64[]", f: "float64"):
    for i in range(len(x)):
        x[i] = x[i] * f
'''


class TestStaticCompilation:
    def test_2d_parameter_and_written_array(self, tmp_path):
        """A 2-D parameter is declared and passed with both dims; a
        written list is written back, a written read-only array refused."""
        src_path = tmp_path / "grid.py"
        src_path.write_text(GRID_KERNELS)
        wrapper = build_module(str(src_path), {"total": [], "scale": []})
        assert "double grid_total(double* a, int64_t a__d0, " \
            "int64_t a__d1);" in open(wrapper).read()
        sys.path.insert(0, str(tmp_path))
        try:
            import grid_seamless as mod
            a = np.arange(12.0).reshape(3, 4)
            assert mod.total(a) == a.sum()
            assert mod.total(np.asfortranarray(a)) == a.sum()
            data = [1.0, 2.0]
            mod.scale(data, 3.0)
            assert data == [3.0, 6.0]
            ro = np.ones(2)
            ro.flags.writeable = False
            with pytest.raises(ValueError, match="read-only"):
                mod.scale(ro, 2.0)
        finally:
            sys.path.remove(str(tmp_path))
            sys.modules.pop("grid_seamless", None)

    def test_build_module_and_import(self, tmp_path):
        src_path = tmp_path / "kern.py"
        src_path.write_text(KERNELS)
        wrapper = build_module(str(src_path),
                               {"ksum": ["float64[]"],
                                "kdot": ["float64[]", "float64[]"]})
        assert os.path.exists(wrapper)
        sys.path.insert(0, str(tmp_path))
        try:
            import kern_seamless as ks
            a = np.arange(50.0)
            assert ks.ksum(a) == pytest.approx(a.sum())
            assert ks.kdot(a, a) == pytest.approx((a * a).sum())
        finally:
            sys.path.remove(str(tmp_path))
            sys.modules.pop("kern_seamless", None)

    def test_annotations_used_when_no_types(self, tmp_path):
        src_path = tmp_path / "ann.py"
        src_path.write_text(KERNELS)
        wrapper = build_module(str(src_path), {"annotated": []})
        sys.path.insert(0, str(tmp_path))
        try:
            import ann_seamless as mod
            assert mod.annotated(np.array([1.0, 9.0, 3.0])) == 9.0
        finally:
            sys.path.remove(str(tmp_path))
            sys.modules.pop("ann_seamless", None)

    def test_c_source_artifact_written(self, tmp_path):
        src_path = tmp_path / "k2.py"
        src_path.write_text(KERNELS)
        build_module(str(src_path), {"ksum": ["float64[]"]})
        c_file = tmp_path / "k2_lib.c"
        assert c_file.exists()
        assert "k2_ksum" in c_file.read_text()


class TestCppExport:
    def test_paper_listing_end_to_end(self, tmp_path):
        exports = export_cpp(KERNELS, {"ksum": ["float64[]"]},
                             str(tmp_path), name="seamless_export")
        cpp = r'''
#include <cstdio>
#include "seamless_export.hpp"
int main() {
    int arr[100];
    for (int i = 0; i < 100; ++i) arr[i] = i;
    std::vector<double> darr(100);
    for (int i = 0; i < 100; ++i) darr[i] = 0.5 * i;
    printf("%.1f %.2f\n", seamless::numpy::ksum(arr),
           seamless::numpy::ksum(darr));
    return 0;
}
'''
        out = compile_and_run_cpp(cpp, exports, str(tmp_path / "build"))
        assert out.split() == ["4950.0", "2475.00"]

    def test_custom_namespace(self, tmp_path):
        exports = export_cpp(KERNELS, {"ksum": ["float64[]"]},
                             str(tmp_path), name="algos", namespace="algos")
        header = open(exports["header"]).read()
        assert "namespace algos" in header

    def test_2d_parameter_refused_at_export(self, tmp_path):
        with pytest.raises(UnsupportedError, match="1-D"):
            export_cpp(GRID_KERNELS, {"total": []}, str(tmp_path / "out"),
                       name="grid")
        assert not (tmp_path / "out").exists()

    def test_bad_cpp_reports_compiler_error(self, tmp_path):
        exports = export_cpp(KERNELS, {"ksum": ["float64[]"]},
                             str(tmp_path), name="x")
        with pytest.raises(RuntimeError, match="compilation failed"):
            compile_and_run_cpp("int main() { syntax error }", exports,
                                str(tmp_path / "b"))


class TestElementwise:
    def test_source_generation(self):
        src = elementwise_c_source(
            (("load", 0), ("unary", "sqrt")), 1)
        assert "sqrt" in src and "for (int64_t i" in src

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            elementwise_c_source((("unary", "fft"), ("load", 0)), 1)

    def test_kernel_matches_numpy(self):
        prog = (("load", 0), ("const", 2.0), ("binary", "multiply"),
                ("load", 1), ("binary", "add"), ("unary", "tanh"))
        k = compile_elementwise(prog, 2)
        a = np.random.default_rng(3).random(256)
        b = np.random.default_rng(4).random(256)
        out = np.empty(256)
        k(out, a, b)
        assert np.allclose(out, np.tanh(a * 2 + b))

    def test_every_mapped_op(self, tmp_path):
        """Every entry of the op table over random and edge inputs, both
        as a fused program and as an ``@elementwise`` scalar function:
        transcendental ops within libmvec's documented 4 ULP of Python's
        ``math`` (glibc's scalar functions), every other op bit-identical
        to NumPy, NaN positions and the sign of zero included."""
        from repro.seamless.elementwise import _BINARY_C, _UNARY_C
        assert set(_UNARY_C) == set(_EXACT_UNARY) | set(_MATH_UNARY)
        assert set(_BINARY_C) == set(_EXACT_BINARY) | set(_MATH_BINARY)
        assert set(_SCALAR_OPS) == set(_UNARY_C) | set(_BINARY_C)
        scalar = _scalar_functions(tmp_path)
        rng = np.random.default_rng(5)
        a = np.concatenate([_EDGES, rng.uniform(-1, 1, 200),
                            rng.uniform(-30, 30, 200),
                            rng.choice([-1, 1], 200)
                            * 10.0 ** rng.uniform(-300, 300, 200)])
        ga, gb = (g.ravel() for g in np.meshgrid(_EDGES, _EDGES))
        x = np.concatenate([ga, a])
        y = np.concatenate([gb, rng.permutation(a)])
        failures = []
        for name in _UNARY_C:
            for run in (_fused((("load", 0), ("unary", name)), 1),
                        scalar[name]):
                failures += _check_op(name, run, (x,), _MATH_UNARY.get(name))
        for name in _BINARY_C:
            for run in (_fused((("load", 0), ("load", 1), ("binary", name)),
                               2), scalar[name]):
                failures += _check_op(name, run, (x, y),
                                      _MATH_BINARY.get(name))
        assert not failures, "\n".join(failures)

    @pytest.mark.parametrize("prog, numpy_fn", [
        ((("load", 0), ("load", 0), ("binary", "multiply"), ("load", 1),
          ("load", 1), ("binary", "multiply"), ("binary", "add"),
          ("unary", "sqrt"), ("const", 2.0), ("binary", "multiply"),
          ("const", 1.0), ("binary", "subtract")),
         lambda u, v, w: np.sqrt(u * u + v * v) * 2 - 1),
        ((("load", 0), ("load", 1), ("binary", "multiply"), ("load", 2),
          ("binary", "add")),
         lambda u, v, w: u * v + w),
    ], ids=["hypot-chain", "a*b+c"])
    def test_fused_arithmetic_is_bit_identical(self, prog, numpy_fn):
        """Fused plain arithmetic keeps NumPy's bits: the compile line
        forbids contracting ``a*b + c`` into an FMA."""
        rng = np.random.default_rng(7)
        u, v, w = (rng.standard_normal(4099) * 10.0 ** rng.integers(
            -5, 5, 4099) for _ in range(3))
        k = compile_elementwise(prog, 3)
        out = np.empty_like(u)
        k(out, u, v, w)
        assert np.array_equal(out.view(np.int64),
                              numpy_fn(u, v, w).view(np.int64))

    def test_nonfinite_constants_compile(self):
        prog = (("load", 0), ("const", float("inf")), ("binary", "minimum"),
                ("const", float("nan")), ("binary", "fmax"))
        k = compile_elementwise(prog, 1)
        x = np.array([1.0, np.inf, -np.inf, np.nan])
        out = np.empty(4)
        k(out, x)
        assert np.array_equal(out, np.fmax(np.minimum(x, np.inf), np.nan),
                              equal_nan=True)


_TINY = 5e-324   # the smallest subnormal
_EDGES = np.array([0.0, -0.0, _TINY, -_TINY, 2 * _TINY, -2 * _TINY,
                   np.inf, -np.inf, np.nan, 1e22, -1e22, 709.7, 710.0,
                   -745.0, -750.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0])
_EXACT_UNARY = ("negative", "absolute", "abs", "sqrt", "floor", "ceil",
                "rint", "square", "reciprocal", "sign")
_MATH_UNARY = {"exp": math.exp, "log": math.log, "log2": math.log2,
               "log10": math.log10, "sin": math.sin, "cos": math.cos,
               "tan": math.tan, "arcsin": math.asin, "arccos": math.acos,
               "arctan": math.atan, "sinh": math.sinh, "cosh": math.cosh,
               "tanh": math.tanh}
_EXACT_BINARY = ("add", "subtract", "multiply", "divide", "true_divide",
                 "mod", "maximum", "minimum", "fmax", "fmin")
_MATH_BINARY = {"power": math.pow, "arctan2": math.atan2,
                "hypot": math.hypot}


def _ulps(x, y):
    """Distance in units in the last place between float64 arrays."""
    def ordered(v):
        i = v.view(np.int64).astype(object)
        return np.where(i < 0, -(2 ** 63) - i, i)
    return np.abs(ordered(x) - ordered(y))


#: each op of the table as the scalar Python an ``@elementwise`` user
#: writes, with NumPy's NaN and tie rules spelled out
_SCALAR_OPS = {
    "negative": "-x", "absolute": "abs(x)", "abs": "abs(x)",
    "sqrt": "math.sqrt(x)", "floor": "math.floor(x)",
    "ceil": "math.ceil(x)", "rint": "np.rint(x)", "square": "x * x",
    "reciprocal": "1.0 / x",
    "sign": "1.0 if x > 0 else (-1.0 if x < 0 else (0.0 if x == 0 else x))",
    "exp": "math.exp(x)", "log": "math.log(x)", "log2": "math.log2(x)",
    "log10": "math.log10(x)", "sin": "math.sin(x)", "cos": "math.cos(x)",
    "tan": "math.tan(x)", "arcsin": "math.asin(x)",
    "arccos": "math.acos(x)", "arctan": "math.atan(x)",
    "sinh": "math.sinh(x)", "cosh": "math.cosh(x)", "tanh": "math.tanh(x)",
    "add": "x + y", "subtract": "x - y", "multiply": "x * y",
    "divide": "x / y", "true_divide": "x / y", "mod": "x % y",
    "maximum": "x if x != x or x > y else y",
    "minimum": "x if x != x or x < y else y",
    "fmax": "x if y != y or x > y else y",
    "fmin": "x if y != y or x < y else y",
    "power": "x ** y", "arctan2": "math.atan2(x, y)",
    "hypot": "math.hypot(x, y)",
}


def _scalar_functions(tmp_path):
    """``{op: @elementwise kernel}``, written to a module file so that the
    frontend can read each function's source."""
    import importlib.util

    from repro.seamless import elementwise
    lines = ["import math", "import numpy as np"]
    for name, expr in _SCALAR_OPS.items():
        args = "x, y" if "y" in expr else "x"
        lines += ["", "", f"def {name}({args}):", f"    return {expr}"]
    path = tmp_path / "scalar_ops.py"
    path.write_text("\n".join(lines) + "\n")
    spec = importlib.util.spec_from_file_location("scalar_ops", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    kernels = {name: elementwise(getattr(module, name))
               for name in _SCALAR_OPS}
    assert all(k.compiled for k in kernels.values())
    return kernels


def _fused(prog, n_inputs):
    k = compile_elementwise(prog, n_inputs)

    def run(*inputs):
        out = np.empty_like(inputs[0])
        k(out, *inputs)
        return out

    return run


def _check_op(name, run, inputs, math_fn):
    out = run(*inputs)
    with np.errstate(all="ignore"):
        ref = getattr(np, name)(*inputs)
    nan = np.isnan(ref)
    if not np.array_equal(np.isnan(out), nan):
        wrong = np.isnan(out) != nan
        return [f"{name}: NaN positions differ at {_at(inputs, wrong)}"]
    if math_fn is None:
        same = out.view(np.int64) == ref.view(np.int64)
        bad = ~same & ~nan
        return [f"{name}: bits differ from NumPy at {_at(inputs, bad)}"] \
            if bad.any() else []
    # transcendental: NumPy's non-finite results exactly, else 4 ULP of math
    exact = nan | np.isinf(ref)
    expect = ref.copy()
    for i in np.flatnonzero(~exact):
        try:
            expect[i] = math_fn(*(float(v[i]) for v in inputs))
        except (ValueError, OverflowError, ZeroDivisionError):
            exact[i] = True
    bad = exact & ~nan & (out != ref)
    bad |= ~exact & (_ulps(out, expect) > 4).astype(bool)
    return [f"{name}: off by > 4 ULP at {_at(inputs, bad)}"] \
        if bad.any() else []


def _at(inputs, mask):
    """The first few input tuples where *mask* holds."""
    return [tuple(float(v[i]) for v in inputs)
            for i in np.flatnonzero(mask)[:5]]


class TestCLI:
    def test_inspect_command(self, tmp_path):
        src_path = tmp_path / "k.py"
        src_path.write_text(KERNELS)
        from repro.seamless.cli import main
        import io
        from contextlib import redirect_stdout
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(["inspect", str(src_path), "-f", "ksum:float64[]"])
        assert rc == 0
        assert "double" in buf.getvalue()

    def test_build_command(self, tmp_path):
        src_path = tmp_path / "k.py"
        src_path.write_text(KERNELS)
        from repro.seamless.cli import main
        rc = main(["build", str(src_path), "-f", "ksum:float64[]",
                   "-o", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "k_seamless.py").exists()

    def test_export_cpp_command(self, tmp_path):
        src_path = tmp_path / "k.py"
        src_path.write_text(KERNELS)
        from repro.seamless.cli import main
        rc = main(["export-cpp", str(src_path), "-f", "ksum:float64[]",
                   "-o", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "seamless_export.hpp").exists()

    def test_no_functions_errors(self, tmp_path):
        src_path = tmp_path / "k.py"
        src_path.write_text(KERNELS)
        from repro.seamless.cli import main
        with pytest.raises(SystemExit):
            main(["build", str(src_path)])

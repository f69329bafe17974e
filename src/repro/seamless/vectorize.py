"""The ``@elementwise`` decorator: NumPy-centric JIT (paper section IV-A).

Seamless is "specifically [a] NumPy-centric" JIT: ``@elementwise`` takes a
*scalar* Python function and compiles it into a native ufunc-like kernel
applied elementwise over arrays, with NumPy broadcasting of scalars::

    from repro.seamless import elementwise

    @elementwise
    def damped(x, k):
        return exp(-k * x) * sin(x)

    damped(np.linspace(0, 10, 1_000_000), 0.3)   # one compiled C loop

Without a C compiler the decorator falls back to ``numpy.vectorize``
semantics via direct NumPy evaluation of the scalar function (which works
whenever the function body is ufunc-composable) or, failing that, a Python
loop.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from typing import Callable, Optional

import numpy as np

from ..trace import TRACER as _TR
from .backend_c import (_PRELUDE, compile_c_source, compiler_available,
                        emit_c)
from .frontend import UnsupportedError, function_to_ir
from .infer import infer
from .stypes import FLOAT64

__all__ = ["elementwise", "ElementwiseKernel"]


class ElementwiseKernel:
    """Compiled elementwise application of a scalar function."""

    def __init__(self, fn: Callable):
        self.py_func = fn
        self._lock = threading.Lock()
        self._native = None
        self._native_failed = False
        functools.update_wrapper(self, fn)

    # -- compilation -----------------------------------------------------
    def _build_native(self):
        fir = function_to_ir(self.py_func)
        nargs = len(fir.arg_names)
        tf = infer(fir, [FLOAT64] * nargs)
        if tf.return_type != FLOAT64 and tf.return_type.np_dtype is None:
            raise UnsupportedError("elementwise functions must return a "
                                   "scalar")
        scalar_symbol = f"ew_{fir.name}"
        scalar_src = emit_c(tf, scalar_symbol)[len(_PRELUDE):]
        scalar_src = scalar_src.replace(
            f"double {scalar_symbol}(", f"static double {scalar_symbol}(",
            1).replace(
            f"int64_t {scalar_symbol}(", f"static int64_t {scalar_symbol}(",
            1)
        params = ", ".join(
            ["double* out", "int64_t n"]
            + [f"const double* a{k}, int64_t s{k}" for k in range(nargs)])
        call = ", ".join(f"a{k}[i * s{k}]" for k in range(nargs))
        loop = f"""
void {scalar_symbol}_loop({params})
{{
    for (int64_t i = 0; i < n; ++i) {{
        out[i] = (double){scalar_symbol}({call});
    }}
}}
"""
        lib = compile_c_source(_PRELUDE + scalar_src + loop,
                               tag=f"ew_{fir.name}")
        cfn = getattr(lib, f"{scalar_symbol}_loop")
        ptr = np.ctypeslib.ndpointer(dtype=np.float64, ndim=1,
                                     flags="C_CONTIGUOUS")
        cfn.argtypes = [ptr, ctypes.c_int64] + \
            [ptr, ctypes.c_int64] * nargs
        cfn.restype = None
        return cfn, nargs

    def _get_native(self):
        if self._native is None and not self._native_failed:
            with self._lock:
                if self._native is None and not self._native_failed:
                    name = self.py_func.__name__
                    t0 = _TR.now()
                    try:
                        self._native = self._build_native()
                    except Exception as exc:  # noqa: BLE001 - any failure
                        # falls back to NumPy, recorded like a fusion
                        # fallback
                        self._native_failed = True
                        if _TR.recording:
                            _TR.instant("seamless.vectorize",
                                        "build_failed", kernel=name,
                                        error=type(exc).__name__)
                    if _TR.enabled:
                        _TR.complete("seamless.vectorize", "compile", t0,
                                     kernel=name)
        return self._native

    # -- call --------------------------------------------------------------
    def __call__(self, *args):
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        if not arrays:
            return self.py_func(*args)
        native = self._get_native() if compiler_available() else None
        if _TR.enabled:
            _TR.instant("seamless.vectorize", "dispatch",
                        kernel=self.py_func.__name__,
                        path="native" if native is not None else "fallback")
        if native is None:
            return self._fallback(*args)
        cfn, nargs = native
        if len(args) != nargs:
            raise TypeError(f"{self.py_func.__name__} takes {nargs} "
                            f"arguments")
        shape = np.broadcast_shapes(*(a.shape for a in arrays))
        n = int(np.prod(shape)) if shape else 1
        c_args = []
        keepalive = []
        for a in args:
            if isinstance(a, np.ndarray):
                if a.shape not in ((), shape):
                    a = np.broadcast_to(a, shape)
                flat = np.ascontiguousarray(a, dtype=np.float64).reshape(-1)
                keepalive.append(flat)
                c_args.extend([flat, 1 if flat.size > 1 else 0])
            else:
                buf = np.array([float(a)])
                keepalive.append(buf)
                c_args.extend([buf, 0])
        out = np.empty(n, dtype=np.float64)
        cfn(out, n, *c_args)
        return out.reshape(shape)

    def _fallback(self, *args):
        """NumPy-vectorized fallback: the scalar body evaluated with array
        arguments works for ufunc-composable functions; otherwise loop."""
        try:
            return np.asarray(self.py_func(*args), dtype=np.float64)
        except Exception:
            vec = np.vectorize(self.py_func, otypes=[np.float64])
            return vec(*args)

    @property
    def compiled(self) -> bool:
        return self._get_native() is not None

    def __repr__(self):
        state = "native" if self._native else "fallback"
        return f"ElementwiseKernel({self.py_func.__name__}, {state})"


def elementwise(fn: Callable) -> ElementwiseKernel:
    """Compile a scalar function into an elementwise array kernel."""
    return ElementwiseKernel(fn)

"""The ``@elementwise`` decorator: NumPy-centric JIT (paper section IV-A).

Seamless is "specifically [a] NumPy-centric" JIT: ``@elementwise`` takes a
*scalar* Python function and compiles it into a native ufunc-like kernel
applied elementwise over arrays, with NumPy broadcasting of scalars::

    from repro.seamless import elementwise

    @elementwise
    def damped(x, k):
        return exp(-k * x) * sin(x)

    damped(np.linspace(0, 10, 1_000_000), 0.3)   # one compiled C loop

The scalar function is compiled by the ``@jit`` frontend into a ``static
inline`` helper of the one elementwise loop
(:func:`repro.seamless.elementwise.loop_source`), which fused ODIN
kernels use too, libmvec ``simd`` declarations included.  A kernel is
specialised, and cached, on which arguments are scalars: those go by
value, arrays at the broadcast shape.  Without a C compiler, or for a
body outside the compiled subset, the call runs ``numpy.vectorize``.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..trace import TRACER as _TR
from .backend_c import (Marshaller, _functions, compile_c_source,
                        compiler_available)
from .elementwise import loop_kernel, loop_source
from .frontend import UnsupportedError, function_to_ir
from .infer import infer
from .stypes import FLOAT64

__all__ = ["elementwise", "ElementwiseKernel"]

#: what building a kernel raises for a body outside the compiled subset
#: (UnsupportedError), a failed compile (RuntimeError) or a failed load
#: (OSError); an arity error (TypeError) reaches the caller
_BUILD_ERRORS = (UnsupportedError, RuntimeError, OSError)


class ElementwiseKernel:
    """Compiled elementwise application of a scalar function."""

    def __init__(self, fn: Callable):
        self.py_func = fn
        self._lock = threading.Lock()
        self._specializations: Dict[Tuple[bool, ...], Marshaller] = {}
        self._failed = False
        functools.update_wrapper(self, fn)

    # -- compilation -----------------------------------------------------
    def _source(self, scalars: Tuple[bool, ...]) -> str:
        tf = infer(function_to_ir(self.py_func), [FLOAT64] * len(scalars))
        if tf.return_type.np_dtype is None:
            raise UnsupportedError("elementwise functions must return a "
                                   "scalar")
        helper = f"ew_{tf.ir.name}"
        call = ", ".join(f"x{k}" for k in range(len(scalars)))
        return loop_source("elementwise_loop", scalars, [],
                           f"(double){helper}({call})",
                           _functions(tf, helper, "static inline "))

    def _kernel(self, scalars: Tuple[bool, ...]) -> Optional[Marshaller]:
        kernel = self._specializations.get(scalars)
        if kernel is not None or self._failed:
            return kernel
        with self._lock:
            if scalars in self._specializations or self._failed:
                return self._specializations.get(scalars)
            name = self.py_func.__name__
            t0 = _TR.now()
            try:
                lib = compile_c_source(self._source(scalars),
                                       tag=f"ew_{name}")
                kernel = loop_kernel(lib, "elementwise_loop", scalars)
                self._specializations[scalars] = kernel
            except _BUILD_ERRORS as exc:
                # the failure sticks: every later call runs np.vectorize
                self._failed = True
                if _TR.recording:
                    _TR.instant("seamless.vectorize", "build_failed",
                                kernel=name, error=type(exc).__name__)
            if _TR.enabled:
                _TR.complete("seamless.vectorize", "compile", t0,
                             kernel=name)
        return kernel

    # -- call --------------------------------------------------------------
    def __call__(self, *args):
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        if not arrays:
            return self.py_func(*args)
        # a number or a one-element array is passed by value
        scalars = tuple(not isinstance(a, np.ndarray) or a.size == 1
                        for a in args)
        kernel = self._kernel(scalars) if compiler_available() else None
        if _TR.enabled:
            _TR.instant("seamless.vectorize", "dispatch",
                        kernel=self.py_func.__name__,
                        path="native" if kernel is not None else "fallback")
        if kernel is None:
            return np.vectorize(self.py_func, otypes=[np.float64])(*args)
        shape = np.broadcast_shapes(*(a.shape for a in arrays))
        inputs = []
        for a, scalar in zip(args, scalars):
            if scalar:
                inputs.append(float(a.item() if isinstance(a, np.ndarray)
                                    else a))
            else:
                inputs.append((a if a.shape == shape else
                               np.broadcast_to(a, shape)).reshape(-1))
        out = np.empty(shape)
        kernel(out.reshape(-1), *inputs)
        return out

    @property
    def compiled(self) -> bool:
        """Whether the all-array specialisation builds."""
        nargs = self.py_func.__code__.co_argcount
        return compiler_available() and \
            self._kernel((False,) * nargs) is not None

    def inspect_c_source(self) -> str:
        """The generated C of the all-array loop (debugging aid)."""
        return self._source((False,) * self.py_func.__code__.co_argcount)

    def __repr__(self):
        state = "native" if self._specializations else "fallback"
        return f"ElementwiseKernel({self.py_func.__name__}, {state})"


def elementwise(fn: Callable) -> ElementwiseKernel:
    """Compile a scalar function into an elementwise array kernel."""
    return ElementwiseKernel(fn)

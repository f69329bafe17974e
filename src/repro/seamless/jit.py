"""The ``@jit`` decorator (paper section IV-A).

"End users can access Seamless JIT by adding simple function decorators,
and, optionally, type hints."  The dispatcher compiles lazily per argument
signature (type discovery), caches specializations, and -- because
Seamless "works from within the existing CPython interpreter" -- falls
back to the original Python function whenever the code steps outside the
compiled subset.  Explicit signatures go through ``jit.compile`` /
``jit(types=...)``.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..trace import TRACER as _TR
from .backend_c import CompiledKernel, compiler_available, compile_typed
from .frontend import UnsupportedError, function_to_ir
from .infer import infer
from .stypes import SType, discover, from_annotation

__all__ = ["jit", "JitDispatcher"]


class JitDispatcher:
    """Per-function registry of compiled specializations."""

    def __init__(self, fn: Callable, types: Optional[Sequence] = None,
                 nopython: bool = False):
        self.py_func = fn
        self.nopython = nopython
        self._lock = threading.Lock()
        self._specializations: Dict[Tuple[SType, ...], CompiledKernel] = {}
        # the kernel of the last signature called: a repeated call whose
        # arguments pass its identity check skips discovery and the lock
        self._last: Optional[CompiledKernel] = None
        self._ir = None
        self._ir_error: Optional[Exception] = None
        self._fallback_reason: Optional[str] = None
        functools.update_wrapper(self, fn)
        self._explicit = None
        if types is not None:
            self._explicit = tuple(from_annotation(t) for t in types)
            self._get_specialization(self._explicit)  # eager compile

    # -- pipeline ---------------------------------------------------------
    def _get_ir(self):
        if self._ir is None and self._ir_error is None:
            try:
                self._ir = function_to_ir(self.py_func)
            except UnsupportedError as exc:
                self._ir_error = exc
        if self._ir_error is not None:
            raise self._ir_error
        return self._ir

    def _make_resolver(self):
        """Resolve user-function calls against the function's globals:
        other @jit dispatchers, @elementwise kernels, or plain functions
        all compile into the same translation unit."""
        globals_ = getattr(self.py_func, "__globals__", {})
        in_progress = set()

        def resolve(name: str, arg_types):
            obj = globals_.get(name)
            target = getattr(obj, "py_func", obj)  # unwrap dispatchers
            if not callable(target):
                raise UnsupportedError(
                    f"call target {name!r} is not a compilable function")
            key = (name, tuple(t.name for t in arg_types))
            if key in in_progress:
                raise UnsupportedError(
                    f"recursive call cycle through {name!r}")
            in_progress.add(key)
            try:
                return infer(function_to_ir(target), list(arg_types),
                             resolver=resolve)
            finally:
                in_progress.discard(key)

        return resolve

    def _get_specialization(self, sig: Tuple[SType, ...]) -> CompiledKernel:
        with self._lock:
            kernel = self._specializations.get(sig)
            if kernel is None:
                t0 = _TR.now()
                tf = infer(self._get_ir(), list(sig),
                           resolver=self._make_resolver())
                kernel = compile_typed(tf)
                self._specializations[sig] = kernel
                if _TR.enabled:
                    _TR.complete("seamless.jit", "compile", t0,
                                 kernel=self.py_func.__name__)
            elif _TR.enabled:
                _TR.instant("seamless.jit", "hit",
                            kernel=self.py_func.__name__)
            return kernel

    # -- call -------------------------------------------------------------
    def __call__(self, *args, **kwargs):
        if _TR.enabled:
            _TR.instant("seamless.jit", "call", kernel=self.py_func.__name__)
        last = self._last
        if last is not None and not kwargs:
            c_args = last.exact(args)
            if c_args is not None:
                if _TR.enabled:
                    _TR.instant("seamless.jit", "hit",
                                kernel=self.py_func.__name__)
                return last.invoke(c_args)
        if kwargs:
            return self._fallback("keyword arguments", args, kwargs)
        if not compiler_available():
            return self._fallback("no C compiler available", args, kwargs)
        try:
            sig = self._explicit if self._explicit is not None else \
                tuple(discover(a) for a in args)
            kernel = self._get_specialization(sig)
        except (UnsupportedError, TypeError, RuntimeError) as exc:
            return self._fallback(str(exc), args, kwargs)
        self._last = kernel
        return kernel(*args)

    def _fallback(self, reason: str, args, kwargs):
        if self.nopython:
            raise UnsupportedError(
                f"@jit(nopython=True) function {self.py_func.__name__} "
                f"cannot be compiled: {reason}")
        self._fallback_reason = reason
        if _TR.enabled:
            _TR.instant("seamless.jit", "fallback",
                        kernel=self.py_func.__name__, reason=reason)
        return self.py_func(*args, **kwargs)

    # -- introspection ------------------------------------------------------
    @property
    def signatures(self):
        return list(self._specializations)

    def inspect_c_source(self, sig=None) -> str:
        """The generated C for a compiled signature (debugging aid)."""
        if not self._specializations:
            raise RuntimeError("no specialization compiled yet")
        if sig is None:
            sig = next(iter(self._specializations))
        return self._specializations[tuple(sig)].c_source

    @property
    def last_fallback_reason(self) -> Optional[str]:
        return self._fallback_reason

    def __repr__(self):
        return (f"JitDispatcher({self.py_func.__name__}, "
                f"{len(self._specializations)} specialization(s))")


def jit(fn: Callable = None, *, types: Optional[Sequence] = None,
        nopython: bool = False):
    """Decorate a function for JIT compilation.

    ::

        from repro.seamless import jit

        @jit
        def sum(it):
            res = 0.0
            for i in range(len(it)):
                res += it[i]
            return res

    With explicit types (eager compilation)::

        @jit(types=["float64[]", "float64"])
        def scale_sum(it, factor): ...
    """
    if fn is None:
        return lambda f: JitDispatcher(f, types=types, nopython=nopython)
    return JitDispatcher(fn, types=types, nopython=nopython)


def _jit_compile(fn: Callable = None, *, types: Optional[Sequence] = None):
    """``jit.compile``: the paper's explicitly typed variant."""
    return jit(fn, types=types)


jit.compile = _jit_compile

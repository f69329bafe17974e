"""The one elementwise loop emitter, and fused kernels for ODIN (the
Fig. 2 ODIN->Seamless edge).

:func:`loop_source` emits the contiguous float64 loop behind every
elementwise entry point.  :func:`compile_elementwise` fills it from an
ODIN postfix program -- genuine loop fusion: ``sqrt(u*u + v*v) * 2 - 1``
becomes one pass with no temporaries -- and ``@elementwise``
(:mod:`repro.seamless.vectorize`) from a compiled scalar function.

On x86_64 the loop is a SIMD loop.  The source declares each libm
function it calls with ``__attribute__((simd("notinbranch")))`` when the
host's glibc vector math library (``libmvec``) exports it, and GCC at
``-O3 -march=native`` then calls the vector variants (``_ZGVdN4v_sin``
and so on, within libmvec's documented 4 ULP).  Plain arithmetic,
``sqrt`` and the selects keep NumPy's bits, because the compile line
forbids reordering and FMA contraction (:data:`backend_c.CFLAGS`).  A
host without libmvec builds the scalar loop and records one
``seamless.cc``/``scalar_math`` instant per process.  ``@jit`` and
``static`` sources keep scalar libm and its bits.
"""

from __future__ import annotations

import ctypes
import functools
import os
import re
from typing import Callable, FrozenSet, Optional, Sequence

from ..trace import TRACER as _TR
from .backend_c import (X86_64, _PRELUDE, Marshaller, c_double, c_params,
                        compile_c_source, compiler_available)
from .stypes import FLOAT64, float64_array

__all__ = ["compile_elementwise", "elementwise_c_source", "loop_source",
           "loop_kernel", "vector_math"]

_UNARY_C = {
    "negative": "(-({x}))", "absolute": "fabs({x})", "abs": "fabs({x})",
    "sqrt": "sqrt({x})", "exp": "exp({x})", "log": "log({x})",
    "log2": "log2({x})", "log10": "log10({x})", "sin": "sin({x})",
    "cos": "cos({x})", "tan": "tan({x})", "arcsin": "asin({x})",
    "arccos": "acos({x})", "arctan": "atan({x})", "sinh": "sinh({x})",
    "cosh": "cosh({x})", "tanh": "tanh({x})", "floor": "floor({x})",
    "ceil": "ceil({x})", "rint": "rint({x})", "square": "(({x})*({x}))",
    "reciprocal": "(1.0/({x}))",
    "sign": "(({x})>0 ? 1.0 : (({x})<0 ? -1.0 : (({x})==0 ? 0.0 : ({x}))))",
}
_BINARY_C = {
    "add": "(({a})+({b}))", "subtract": "(({a})-({b}))",
    "multiply": "(({a})*({b}))", "divide": "(({a})/({b}))",
    "true_divide": "(({a})/({b}))", "power": "pow(({a}),({b}))",
    "mod": "__pyfmod(({a}),({b}))",
    "arctan2": "atan2(({a}),({b}))", "hypot": "hypot(({a}),({b}))",
    # NumPy's maximum/minimum propagate NaN, its fmax/fmin drop it, and
    # its array loops return the second operand on a tie (C fmax/fmin
    # return the first on a ±0 tie)
    "maximum": "((({a})!=({a}) || ({a})>({b})) ? ({a}) : ({b}))",
    "minimum": "((({a})!=({a}) || ({a})<({b})) ? ({a}) : ({b}))",
    "fmax": "((({b})!=({b}) || ({a})>({b})) ? ({a}) : ({b}))",
    "fmin": "((({b})!=({b}) || ({a})<({b})) ? ({a}) : ({b}))",
}

#: the libm functions above that glibc's libmvec can provide, by arity
_VECTOR_MATH = {"sin": 1, "cos": 1, "tan": 1, "asin": 1, "acos": 1,
                "atan": 1, "sinh": 1, "cosh": 1, "tanh": 1, "exp": 1,
                "log": 1, "log2": 1, "log10": 1,
                "pow": 2, "atan2": 2, "hypot": 2}
_CALL = re.compile(r"\b([a-z][a-z0-9]*)\(")
_scalar_math_pid: Optional[int] = None


@functools.lru_cache(maxsize=None)
def vector_math() -> FrozenSet[str]:
    """The libm functions whose vector variants the host's libmvec
    exports, probed once per process by symbol name (``_ZGVbN2v_sin``,
    ``_ZGVbN2vv_pow``) without running the compiler; empty off x86_64,
    whose libmvec names differ, or without libmvec."""
    if not X86_64:
        return frozenset()
    try:
        lib = ctypes.CDLL("libmvec.so.1")
    except OSError:
        return frozenset()
    return frozenset(f for f, arity in _VECTOR_MATH.items()
                     if hasattr(lib, f"_ZGVbN2{'v' * arity}_{f}"))


def _simd_declarations(body: str) -> str:
    available = vector_math()
    decls = []
    for f in sorted(set(_CALL.findall(body)) & available):
        params = ", ".join(["double"] * _VECTOR_MATH[f])
        decls.append(f'__attribute__((simd("notinbranch"))) '
                     f'double {f}({params});\n')
    return "".join(decls)


def _note_scalar_math() -> None:
    """One ``seamless.cc``/``scalar_math`` instant per process on a host
    whose loops cannot call vector math."""
    global _scalar_math_pid
    if vector_math() or not _TR.recording or \
            _scalar_math_pid == os.getpid():
        return
    _scalar_math_pid = os.getpid()
    _TR.instant("seamless.cc", "scalar_math",
                reason="no libmvec" if X86_64 else "not x86_64")


def _loop_params(scalars: Sequence[bool]):
    """Names and types of the output, then of each input: an array, or a
    ``double`` by value where *scalars* says so."""
    return (["out"] + [f"in{k}" for k in range(len(scalars))],
            [float64_array] + [FLOAT64 if s else float64_array
                               for s in scalars])


def loop_source(symbol: str, scalars: Sequence[bool], lines: Sequence[str],
                result: str, helpers: str) -> str:
    """The one elementwise loop: ``out[i] = result`` for every i of the
    output.  *lines* and *result* are C reading input k as the ``double``
    ``xk``; *helpers* are ``static inline`` functions they call.  Every
    libm function in them that libmvec provides is declared ``simd``."""
    _note_scalar_math()
    names, types = _loop_params(scalars)
    loads = [f"const double x{k} = in{k}{'' if s else '[i]'};"
             for k, s in enumerate(scalars)]
    inner = "\n        ".join(loads + list(lines) + [f"out[i] = {result};"])
    return (_PRELUDE + _simd_declarations(helpers + inner) + helpers + f"""
void {symbol}({", ".join(c_params(names, types))})
{{
    for (int64_t i = 0; i < out__len; ++i) {{
        {inner}
    }}
}}
""")


def loop_kernel(lib, symbol: str, scalars: Sequence[bool]) -> Marshaller:
    """Bind a :func:`loop_source` loop as ``kernel(out, *inputs)``."""
    names, types = _loop_params(scalars)
    return Marshaller(getattr(lib, symbol), names, types, ("out",), None)


def elementwise_c_source(program: Sequence[tuple], n_inputs: int,
                         symbol: str = "fused_kernel") -> str:
    """C source of the fused loop, or raise ValueError if the program uses
    an op without a C mapping."""
    stack, lines = [], []
    for inst in program:
        tag, arg = inst[0], inst[1]
        table = {"unary": _UNARY_C, "binary": _BINARY_C}.get(tag)
        if tag == "load":
            stack.append(f"x{arg}")
        elif tag == "const":
            stack.append(c_double(arg))
        elif table is None:
            raise ValueError(f"bad instruction {inst!r}")
        elif arg not in table:
            raise ValueError(f"no C mapping for {tag} {arg!r}")
        else:   # pop the right operand first
            operands = {"x": stack.pop()} if tag == "unary" else \
                {"b": stack.pop(), "a": stack.pop()}
            lines.append(f"double t{len(lines)} = "
                         f"{table[arg].format(**operands)};")
            stack.append(f"t{len(lines) - 1}")
    if len(stack) != 1:
        raise ValueError("malformed program")
    return loop_source(symbol, (False,) * n_inputs, lines, stack[0], "")


def compile_elementwise(program: Sequence[tuple],
                        n_inputs: int) -> Optional[Callable]:
    """Native fused kernel ``fn(out, *inputs)`` over contiguous float64
    1-D arrays, or None when no compiler is available."""
    if not compiler_available():
        if _TR.enabled:
            _TR.instant("seamless.elementwise", "no_compiler")
        return None
    source = elementwise_c_source(tuple(program), n_inputs)
    t0 = _TR.now()
    lib = compile_c_source(source, tag="fused")
    if _TR.enabled:
        _TR.complete("seamless.elementwise", "compile", t0)
    return loop_kernel(lib, "fused_kernel", (False,) * n_inputs)

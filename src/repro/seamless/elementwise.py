"""Fused elementwise kernels for ODIN (the Fig. 2 ODIN->Seamless edge).

:func:`compile_elementwise` turns an ODIN postfix expression program into
one C loop over float64 blocks -- genuine loop fusion: a chain like
``sqrt(u*u + v*v) * 2 - 1`` becomes a single pass with no temporaries.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..trace import TRACER as _TR
from .backend_c import _PRELUDE, compile_c_source, compiler_available

__all__ = ["compile_elementwise", "elementwise_c_source"]

_UNARY_C = {
    "negative": "(-({x}))", "absolute": "fabs({x})", "abs": "fabs({x})",
    "sqrt": "sqrt({x})", "exp": "exp({x})", "log": "log({x})",
    "log2": "log2({x})", "log10": "log10({x})", "sin": "sin({x})",
    "cos": "cos({x})", "tan": "tan({x})", "arcsin": "asin({x})",
    "arccos": "acos({x})", "arctan": "atan({x})", "sinh": "sinh({x})",
    "cosh": "cosh({x})", "tanh": "tanh({x})", "floor": "floor({x})",
    "ceil": "ceil({x})", "rint": "rint({x})", "square": "(({x})*({x}))",
    "reciprocal": "(1.0/({x}))", "sign": "(({x})>0 ? 1.0 : (({x})<0 ? -1.0 : 0.0))",
}
_BINARY_C = {
    "add": "(({a})+({b}))", "subtract": "(({a})-({b}))",
    "multiply": "(({a})*({b}))", "divide": "(({a})/({b}))",
    "true_divide": "(({a})/({b}))", "power": "pow(({a}),({b}))",
    "mod": "__pyfmod(({a}),({b}))",
    "arctan2": "atan2(({a}),({b}))", "hypot": "hypot(({a}),({b}))",
    "maximum": "fmax(({a}),({b}))", "minimum": "fmin(({a}),({b}))",
    "fmax": "fmax(({a}),({b}))", "fmin": "fmin(({a}),({b}))",
}


def elementwise_c_source(program: Sequence[tuple], n_inputs: int,
                         symbol: str = "fused_kernel") -> str:
    """C source of the fused loop, or raise ValueError if the program uses
    an op without a C mapping."""
    stack = []
    tmp_count = 0
    body_exprs = []

    def fresh(expr: str) -> str:
        nonlocal tmp_count
        name = f"t{tmp_count}"
        tmp_count += 1
        body_exprs.append(f"double {name} = {expr};")
        return name

    for inst in program:
        tag = inst[0]
        if tag == "load":
            stack.append(f"in{inst[1]}[i]")
        elif tag == "const":
            stack.append(repr(float(inst[1])))
        elif tag == "unary":
            template = _UNARY_C.get(inst[1])
            if template is None:
                raise ValueError(f"no C mapping for unary {inst[1]!r}")
            stack.append(fresh(template.format(x=stack.pop())))
        elif tag == "binary":
            template = _BINARY_C.get(inst[1])
            if template is None:
                raise ValueError(f"no C mapping for binary {inst[1]!r}")
            b = stack.pop()
            a = stack.pop()
            stack.append(fresh(template.format(a=a, b=b)))
        else:
            raise ValueError(f"bad instruction {inst!r}")
    if len(stack) != 1:
        raise ValueError("malformed program")
    params = ", ".join(
        ["double* out", "int64_t n"]
        + [f"const double* in{k}" for k in range(n_inputs)])
    inner = "\n        ".join(body_exprs + [f"out[i] = {stack[0]};"])
    return (_PRELUDE + f"""
void {symbol}({params})
{{
    for (int64_t i = 0; i < n; ++i) {{
        {inner}
    }}
}}
""")


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
    fn = lib.fused_kernel
    ptr = np.ctypeslib.ndpointer(dtype=np.float64, ndim=1,
                                 flags="C_CONTIGUOUS")
    fn.argtypes = [ptr, ctypes.c_int64] + [ptr] * n_inputs
    fn.restype = None

    def kernel(out: np.ndarray, *inputs: np.ndarray) -> None:
        fn(out, out.shape[0], *inputs)

    return kernel

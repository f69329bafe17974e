"""repro.seamless -- JIT compilation, static compilation, and C interop.

The paper's four Seamless capabilities:

1. **JIT for (NumPy-centric) Python** -- :func:`jit`::

       from repro.seamless import jit

       @jit
       def sum(it):
           res = 0.0
           for i in range(len(it)):
               res += it[i]
           return res

2. **Static compilation** -- :func:`repro.seamless.static.build_module`
   and the ``seamless`` CLI turn plain Python (no language extensions,
   unlike Cython's cdef) into a shared library + wrapper module.

3. **Trivial import of C libraries** -- :class:`CModule`::

       class cmath(CModule):
           Header = "math.h"

       libm = cmath("m")
       libm.atan2(1.0, 2.0)

4. **Python as an algorithm specification language** --
   :func:`repro.seamless.cpp_export.export_cpp` makes Python-defined
   algorithms callable from C++ as ``seamless::numpy::sum(arr)``.

The lowering pipeline follows the published Numba staging (AST -> typed IR
-> native code), with the system C compiler standing in for LLVM; without
a compiler every entry point degrades gracefully to interpreted Python.
"""

from .backend_c import (CompiledKernel, compile_c_source, compiler_available,
                        emit_c)
from .elementwise import compile_elementwise, elementwise_c_source
from .frontend import UnsupportedError, function_to_ir, source_to_ir
from .infer import TypedFunction, infer
from .jit import JitDispatcher, jit
from .stypes import (BOOL, FLOAT64, INT64, ArrayType, SType, discover,
                     float64_array, float64_array2d, from_annotation,
                     int64_array, int64_array2d, promote)

# the package attribute "elementwise" is vectorize's decorator (loaded
# lazily below), not the submodule importing it just bound
del elementwise

# prange compiles to an OpenMP parallel loop; in interpreted fallbacks it
# is plain range
prange = range

# the @jit path never needs these: each loads on first attribute access
# (PEP 562), so importing a kernel's module does not import them all
_LAZY = {
    "CFunctionDecl": "cheader", "HeaderParseError": "cheader",
    "parse_header": "cheader",
    "BoundFunction": "cmodule", "CModule": "cmodule",
    "compile_and_run_cpp": "cpp_export", "export_cpp": "cpp_export",
    "StaticFunction": "static", "build_module": "static",
    "compile_source": "static",
    "ElementwiseKernel": "vectorize", "elementwise": "vectorize",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "jit", "JitDispatcher", "prange", "elementwise", "ElementwiseKernel",
    "CModule", "BoundFunction", "parse_header", "CFunctionDecl",
    "HeaderParseError",
    "build_module", "compile_source", "StaticFunction",
    "export_cpp", "compile_and_run_cpp",
    "compile_elementwise", "elementwise_c_source",
    "compiler_available", "compile_c_source", "emit_c", "CompiledKernel",
    "function_to_ir", "source_to_ir", "UnsupportedError",
    "infer", "TypedFunction",
    "SType", "ArrayType", "INT64", "FLOAT64", "BOOL", "int64_array",
    "float64_array", "int64_array2d", "float64_array2d", "promote",
    "discover", "from_annotation",
]

"""C backend: typed IR -> C99 -> system compiler -> ctypes.

The offline stand-in for the paper's LLVM lowering: instead of emitting
LLVM IR in-process we emit readable C99 and let the system ``cc`` produce
the machine code, then bind the shared object with ctypes.  The observable
contract is the same -- "compiles Python code to be run on the native CPU
instruction set" -- and the generated source doubles as the artifact for
static compilation (:mod:`repro.seamless.static`).

Every caller gets one compile line, :data:`CFLAGS`: ``-O3
-fno-math-errno -ffp-contract=off`` (plus ``-march=native`` on x86_64),
never ``-ffast-math``.  GCC may then vectorise plain arithmetic but not
reorder it or fuse ``a*b + c`` into an FMA, so it keeps NumPy's bits; it
calls vector math only where a source declares a libm function with
``__attribute__((simd))``, which the one elementwise loop emitter does
for fused ODIN kernels and ``vectorize`` alike
(:mod:`repro.seamless.elementwise`); ``@jit`` and ``static`` keep scalar
libm.  The disk cache is keyed by the source, the flags, the compiler's
version line and the CPU's ISA flags.  Every entry point calls its
compiled function through one :class:`Marshaller`.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import subprocess
import tempfile
import threading
from typing import FrozenSet, List, Optional, Sequence

import numpy as np

from . import ir
from .frontend import UnsupportedError
from .infer import TypedFunction
from .stypes import (BOOL, FLOAT64, INT64, VOID, ArrayType, SType,
                     from_annotation)

__all__ = ["compiler_available", "emit_c", "c_params", "compile_typed",
           "compile_c_source", "Marshaller", "CompiledKernel"]

_PRELUDE = """\
#include <math.h>
#include <stdint.h>

/* Python floor-division / modulo semantics for int64 */
static inline int64_t __pydiv(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) q -= 1;
    return q;
}
static inline int64_t __pymod(int64_t a, int64_t b) {
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}
static inline int64_t __imin(int64_t a, int64_t b) { return a < b ? a : b; }
static inline int64_t __imax(int64_t a, int64_t b) { return a > b ? a : b; }

/* CPython float modulo: fmod adjusted toward the divisor's sign, and a
   zero result takes the divisor's sign */
static inline double __pyfmod(double a, double b) {
    double m = fmod(a, b);
    if (m == 0.0) return copysign(0.0, b);
    if ((b < 0.0) != (m < 0.0)) m += b;
    return m;
}
"""

#: True on hosts where ``-march=native`` and glibc's libmvec x86 variants
#: apply
X86_64 = platform.machine().lower() in ("x86_64", "amd64")

#: the one set of compile options for every kernel; ``-fopenmp`` joins it
#: for sources that contain ``#pragma omp`` (``prange``)
CFLAGS = ("-O3", "-fno-math-errno", "-ffp-contract=off", "-shared",
          "-fPIC") + (("-march=native",) if X86_64 else ())

_cc_lock = threading.Lock()
_cc_path: Optional[str] = None
_cc_version = ""
_cc_checked = False


def compiler_available() -> bool:
    """True when a working C compiler is on PATH."""
    global _cc_path, _cc_version, _cc_checked
    if _cc_checked:
        return _cc_path is not None
    with _cc_lock:
        if _cc_checked:
            return _cc_path is not None
        for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
            if not cand:
                continue
            try:
                proc = subprocess.run([cand, "--version"],
                                      capture_output=True, check=True,
                                      timeout=20, text=True)
                _cc_path = cand
                _cc_version = next(iter(proc.stdout.splitlines()), "")
                break
            except (OSError, subprocess.SubprocessError):
                continue
        _cc_checked = True
    return _cc_path is not None


def _cache_dir() -> str:
    path = os.path.join(tempfile.gettempdir(), "repro-seamless-cache")
    os.makedirs(path, exist_ok=True)
    return path


@functools.lru_cache(maxsize=None)
def _cpu_flags() -> str:
    """The ``flags`` line of ``/proc/cpuinfo`` on x86_64 (the ISA that
    ``-march=native`` targets), read once; empty elsewhere."""
    if not X86_64:
        return ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return ""


def _compile_flags(source: str) -> List[str]:
    flags = list(CFLAGS)
    if "#pragma omp" in source:
        flags.insert(0, "-fopenmp")
    return flags


def _cache_base(source: str, tag: str, flags: List[str]) -> str:
    """Cache path (without suffix) of *source* built with *flags*: the key
    covers everything that changes the machine code, so a cache directory
    shared between hosts never loads an ``.so`` built for another ISA."""
    h = hashlib.sha256()
    for part in (source, " ".join(flags), _cc_version, _cpu_flags()):
        h.update(part.encode())
        h.update(b"\0")
    return os.path.join(_cache_dir(), f"{tag}_{h.hexdigest()[:20]}")


def compile_c_source(source: str, tag: str = "kernel") -> ctypes.CDLL:
    """Compile a C translation unit to a shared object and load it.

    The disk cache is shared by every process using the same temp
    directory (:func:`_cache_base` gives its key).  Each compile writes
    its source and object under names unique to it and publishes them
    with an atomic ``os.replace``, so processes racing on the same cold
    kernel each end with a complete, loadable ``<base>.so`` (whichever
    rename lands last wins, and both are identical) and leave no
    temporaries behind.
    """
    if not compiler_available():
        raise RuntimeError("no C compiler available")
    from ..trace import TRACER as _TR  # local: backend is a leaf module
    flags = _compile_flags(source)
    base = _cache_base(source, tag, flags)
    so_path = base + ".so"
    with _cc_lock:
        if _TR.enabled:
            _TR.instant("seamless.cc", "disk_cache",
                        result="hit" if os.path.exists(so_path) else "miss")
        if not os.path.exists(so_path):
            fd, c_tmp = tempfile.mkstemp(prefix=os.path.basename(base) + ".",
                                         suffix=".c",
                                         dir=os.path.dirname(base))
            so_tmp = c_tmp[:-2] + ".so.tmp"
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(source)
                cmd = [_cc_path, *flags, "-o", so_tmp, c_tmp, "-lm"]
                proc = subprocess.run(cmd, capture_output=True, text=True)
                if proc.returncode != 0:
                    raise RuntimeError(
                        f"C compilation failed:\n{proc.stderr}\n"
                        f"--- source ---\n{source}")
                os.replace(c_tmp, base + ".c")
                os.replace(so_tmp, so_path)
            finally:
                for leftover in (c_tmp, so_tmp):
                    if os.path.exists(leftover):
                        os.remove(leftover)
    return ctypes.CDLL(so_path)


# ----------------------------------------------------------------------
# code generation
# ----------------------------------------------------------------------
def c_double(value: float) -> str:
    """A C99 expression for the float64 *value*, NaN and infinities
    included."""
    value = float(value)
    if value != value:
        return "NAN"
    if value == float("inf"):
        return "INFINITY"
    if value == float("-inf"):
        return "(-INFINITY)"
    return repr(value)


def emit_c(tf: TypedFunction, symbol: Optional[str] = None) -> str:
    """Generate the C translation unit for one typed function."""
    return _PRELUDE + "\n" + _functions(tf, symbol or f"seamless_{tf.ir.name}")


def _functions(tf: TypedFunction, symbol: str, storage: str = "") -> str:
    """The C functions of *tf* under *symbol*, without the prelude.

    User helpers resolved during inference are emitted first as ``static``
    functions of the same translation unit (transitively hoisted there by
    the inference pass), each after a forward declaration: helper bodies
    may call each other in any order.
    """
    pieces = ["static " + _signature(callee, helper) + ";"
              for helper, callee in tf.callees.items()]
    pieces += ["static " + _CGen(callee).function(helper)
               for helper, callee in tf.callees.items()]
    pieces.append(storage + _CGen(tf).function(symbol))
    return "\n".join(pieces)


def c_params(names, types) -> List[str]:
    """The C parameters of a function taking *names* of *types*: an array
    is its element pointer followed by one ``int64_t`` per dimension
    (``a__len`` for 1-D, ``a__d0, a__d1`` for 2-D), which is the order
    :class:`Marshaller` passes them in."""
    params = []
    for name, t in zip(names, types):
        params.append(f"{t.c_name} {name}")     # an array's is ``T*``
        if isinstance(t, ArrayType):
            params += ([f"int64_t {name}__len"] if t.ndim == 1 else
                       [f"int64_t {name}__d{d}" for d in range(t.ndim)])
    return params


def _signature(tf: TypedFunction, symbol: str) -> str:
    params = c_params(tf.ir.arg_names, tf.arg_types)
    return f"{tf.return_type.c_name} {symbol}({', '.join(params) or 'void'})"


class _CGen:
    def __init__(self, tf: TypedFunction):
        self.tf = tf
        self.lines: List[str] = []
        self.indent = 1
        self._loop_counter = 0

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def block(self, stmts, head: str) -> None:
        """``head {`` then *stmts* one level deeper; the caller closes."""
        self.emit(head + " {")
        self.indent += 1
        for child in stmts:
            self.stmt(child)
        self.indent -= 1

    def function(self, symbol: str) -> str:
        self.lines = [_signature(self.tf, symbol), "{"]
        for name, t in sorted(self.tf.locals.items()):
            self.emit(f"{t.c_name} {name} = 0;")
        for stmt in self.tf.ir.body:
            self.stmt(stmt)
        self.lines.append("}")
        return "\n".join(self.lines) + "\n"

    # -- statements ------------------------------------------------------
    def stmt(self, node: ir.Node) -> None:
        if isinstance(node, ir.Assign):
            target_t = self.tf.env[node.target]
            self.emit(f"{node.target} = "
                      f"{self.cast(node.value, target_t)};")
        elif isinstance(node, ir.StoreSub):
            arr_t = self.tf.env[node.array]
            self.emit(f"{node.array}[{self._flat_index(node)}] = "
                      f"{self.cast(node.value, arr_t.element)};")
        elif isinstance(node, ir.For):
            var = node.var
            start = self.expr(node.start)
            stop = self.expr(node.stop)
            step = self.expr(node.step)
            sid = self._loop_counter
            self._loop_counter += 1
            if isinstance(node.step, ir.Const) and node.step.value > 0:
                cond = f"{var} < __stop_{sid}"
            else:
                cond = (f"(__step_{sid} > 0 ? {var} < __stop_{sid} : "
                        f"{var} > __stop_{sid})")
            self.emit(f"int64_t __stop_{sid} = {stop};")
            self.emit(f"int64_t __step_{sid} = {step};")
            if node.parallel:
                self.emit(self._omp_pragma(node))
            self.block(node.body, f"for ({var} = {start}; {cond}; "
                                  f"{var} += __step_{sid})")
            self.emit("}")
        elif isinstance(node, ir.While):
            self.block(node.body, f"while ({self.expr(node.cond)})")
            self.emit("}")
        elif isinstance(node, ir.If):
            self.block(node.body, f"if ({self.expr(node.cond)})")
            if node.orelse:
                self.block(node.orelse, "} else")
            self.emit("}")
        elif isinstance(node, ir.Return):
            if node.value is None or self.tf.return_type == VOID:
                self.emit("return;")
            else:
                self.emit(f"return "
                          f"{self.cast(node.value, self.tf.return_type)};")
        elif isinstance(node, ir.Break):
            self.emit("break;")
        elif isinstance(node, ir.Continue):
            self.emit("continue;")
        else:
            raise UnsupportedError(f"cannot lower {type(node).__name__}")

    # -- expressions -------------------------------------------------------
    def cast(self, node: ir.Node, to: SType) -> str:
        code = self.expr(node)
        if node.stype is not None and node.stype != to and \
                not isinstance(to, ArrayType):
            return f"({to.c_name})({code})"
        return code

    def expr(self, node: ir.Node) -> str:
        if isinstance(node, ir.Const):
            if isinstance(node.value, bool):
                return "1" if node.value else "0"
            if isinstance(node.value, int):
                return f"INT64_C({node.value})" \
                    if abs(node.value) > 2**31 else str(node.value)
            return c_double(node.value)
        if isinstance(node, ir.Name):
            return node.id
        if isinstance(node, ir.BinOp):
            return self.binop(node)
        if isinstance(node, ir.UnaryOp):
            inner = self.expr(node.operand)
            if node.op == "neg":
                return f"(-({inner}))"
            if node.op == "not":
                return f"(!({inner}))"
            return f"(+({inner}))"
        if isinstance(node, ir.Compare):
            c_op = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=",
                    "eq": "==", "ne": "!="}[node.op]
            return (f"({self.expr(node.left)} {c_op} "
                    f"{self.expr(node.right)})")
        if isinstance(node, ir.BoolOp):
            join = " && " if node.op == "and" else " || "
            return "(" + join.join(f"({self.expr(v)})"
                                   for v in node.values) + ")"
        if isinstance(node, ir.Call):
            return self.call(node)
        if isinstance(node, ir.UserCall):
            callee = self.tf.callees[node.symbol]
            args = ", ".join(self.cast(a, t) for a, t in
                             zip(node.args, callee.arg_types))
            return f"{node.symbol}({args})"
        if isinstance(node, ir.Subscript):
            return f"{node.array}[{self._flat_index(node)}]"
        if isinstance(node, ir.LenOf):
            t = self.tf.env[node.array]
            return f"{node.array}__len" if t.ndim == 1 else \
                f"{node.array}__d0"
        if isinstance(node, ir.ShapeOf):
            t = self.tf.env[node.array]
            if t.ndim == 1:
                return f"{node.array}__len"
            return f"{node.array}__d{node.dim}"
        if isinstance(node, ir.IfExp):
            target = node.stype
            return (f"(({self.expr(node.cond)}) ? "
                    f"{self.cast(node.body, target)} : "
                    f"{self.cast(node.orelse, target)})")
        raise UnsupportedError(f"cannot lower {type(node).__name__}")

    def _omp_pragma(self, node: "ir.For") -> str:
        """Build the OpenMP pragma for a prange loop.

        prange semantics (Numba-style): scalars updated with ``x += expr``
        or ``x *= expr`` are reductions; every other scalar assigned in
        the body is thread-private; array writes are the user's
        responsibility to keep disjoint.
        """
        reductions = {}   # var -> "+" | "*"
        assigned = set()

        def visit(stmts):
            for s in stmts:
                if isinstance(s, ir.Assign):
                    value = s.value
                    if (isinstance(value, ir.BinOp)
                            and value.op in ("add", "mul")
                            and isinstance(value.left, ir.Name)
                            and value.left.id == s.target
                            and s.target not in assigned):
                        reductions[s.target] = \
                            "+" if value.op == "add" else "*"
                    else:
                        assigned.add(s.target)
                        reductions.pop(s.target, None)
                elif isinstance(s, ir.For):
                    assigned.add(s.var)
                    visit(s.body)
                elif isinstance(s, (ir.While,)):
                    visit(s.body)
                elif isinstance(s, ir.If):
                    visit(s.body)
                    visit(s.orelse)

        visit(node.body)
        assigned -= set(reductions)
        clauses = []
        if assigned:
            clauses.append("private(" + ", ".join(sorted(assigned)) + ")")
        for var, op in sorted(reductions.items()):
            clauses.append(f"reduction({op}:{var})")
        return "#pragma omp parallel for " + " ".join(clauses)

    def _flat_index(self, node) -> str:
        """Row-major flattened index for 1-D or 2-D subscripts."""
        if node.index2 is None:
            return self.expr(node.index)
        return (f"({self.expr(node.index)}) * {node.array}__d1 + "
                f"({self.expr(node.index2)})")

    def binop(self, node: ir.BinOp) -> str:
        lt, rt = node.left.stype, node.right.stype
        lcode, rcode = self.expr(node.left), self.expr(node.right)
        both_int = lt in (INT64, BOOL) and rt in (INT64, BOOL)
        if node.op == "div":
            return f"((double)({lcode}) / (double)({rcode}))"
        if node.op == "floordiv":
            if both_int:
                return f"__pydiv({lcode}, {rcode})"
            return f"floor(({lcode}) / ({rcode}))"
        if node.op == "mod":
            if both_int:
                return f"__pymod({lcode}, {rcode})"
            return f"__pyfmod((double)({lcode}), (double)({rcode}))"
        if node.op == "pow":
            return f"pow((double)({lcode}), (double)({rcode}))"
        c_op = {"add": "+", "sub": "-", "mul": "*", "bitand": "&",
                "bitor": "|", "bitxor": "^", "lshift": "<<",
                "rshift": ">>"}[node.op]
        return f"(({lcode}) {c_op} ({rcode}))"

    def call(self, node: ir.Call) -> str:
        args = [self.expr(a) for a in node.args]
        f = node.func
        if f == "int":
            return f"((int64_t)({args[0]}))"
        if f == "float":
            return f"((double)({args[0]}))"
        if f == "abs":
            if node.args[0].stype == INT64:
                return f"(({args[0]}) < 0 ? -({args[0]}) : ({args[0]}))"
            return f"fabs({args[0]})"
        if f in ("min", "max"):
            ts = [a.stype for a in node.args]
            if all(t in (INT64, BOOL) for t in ts):
                helper = "__imin" if f == "min" else "__imax"
                return f"{helper}({args[0]}, {args[1]})"
            helper = "fmin" if f == "min" else "fmax"
            return (f"{helper}((double)({args[0]}), "
                    f"(double)({args[1]}))")
        if f == "round":
            return f"round((double)({args[0]}))"
        # libm one-to-one
        cargs = ", ".join(f"(double)({a})" for a in args)
        return f"{f}({cargs})"


# ----------------------------------------------------------------------
# binding
# ----------------------------------------------------------------------
_CTYPE_OF = {INT64: ctypes.c_int64, FLOAT64: ctypes.c_double,
             BOOL: ctypes.c_int64}
#: the Python types a scalar parameter takes as they are: exactly those
#: whose values :func:`~repro.seamless.stypes.discover` maps to its type;
#: the first converts any other value
_EXACT = {INT64: (int, np.int64), FLOAT64: (float, np.float64),
          BOOL: (bool,)}
_byte = ctypes.c_char
_addressof = ctypes.addressof


def written_arrays(tf: TypedFunction) -> FrozenSet[str]:
    """The array parameters whose elements *tf*'s body assigns."""
    return frozenset(stmt.array for stmt in tf.ir.walk_statements()
                     if isinstance(stmt, ir.StoreSub)
                     and stmt.array in tf.ir.arg_names)


class Marshaller:
    """The one binding of a compiled C function to Python arguments, for
    ``@jit``, ``vectorize``, fused ODIN kernels and ``static`` wrappers.

    A parameter of *arg_types* (Seamless types or annotations) becomes
    ``c_void_p`` plus a ``c_int64`` per dimension (arrays, in
    :func:`c_params` order), ``c_int64`` or ``c_double``; *restype* is
    None for ``void``.  Each array gets one identity check -- dtype,
    ndim, C-contiguity, and writeability if *written* names it -- and
    passes its own pointer (read-only inputs too); only one that fails is
    copied, and a written copy is written back.  A written read-only
    array raises NumPy's ``ValueError`` before the call.
    """

    def __init__(self, fn, names: Sequence[str], arg_types, written,
                 restype):
        self.fn = fn
        self.names = tuple(names)
        argtypes = []
        self._checks = []   # (dtype or None, ndim or exact types, written)
        for name, t in zip(self.names, map(from_annotation, arg_types)):
            if isinstance(t, ArrayType):
                argtypes += [ctypes.c_void_p] + [ctypes.c_int64] * t.ndim
                self._checks.append((t.np_dtype, t.ndim, name in written))
            else:
                argtypes.append(_CTYPE_OF[t])
                self._checks.append((None, _EXACT[t], False))
        fn.argtypes = argtypes
        restype = from_annotation(restype)
        fn.restype = _CTYPE_OF.get(restype)     # None: void
        self._bool = restype == BOOL

    def exact(self, args) -> Optional[list]:
        """The C arguments for *args* if every one passes the identity
        check as it is (scalars: an exact type), else None."""
        if len(args) != len(self._checks):
            return None
        c_args = []
        for v, (dtype, spec, written) in zip(args, self._checks):
            if dtype is None:
                if type(v) not in spec:
                    return None
                c_args.append(v)
            elif isinstance(v, np.ndarray) and v.dtype is dtype \
                    and v.ndim == spec:
                try:   # checks writeability and C-contiguity too
                    c_args.append(_addressof(_byte.from_buffer(v)))
                except (TypeError, ValueError):   # read-only, strided, empty
                    flags = v.flags
                    if not flags.c_contiguous or \
                            written and not flags.writeable:
                        return None
                    c_args.append(v.__array_interface__["data"][0])
                c_args += v.shape
            else:
                return None
        return c_args

    def invoke(self, c_args: list):
        """Call the C function on arguments :meth:`exact` returned."""
        result = self.fn(*c_args)
        return bool(result) if self._bool else result

    def __call__(self, *args):
        c_args = self.exact(args)
        if c_args is not None:
            return self.invoke(c_args)
        if len(args) != len(self._checks):
            raise TypeError(f"{self.fn.__name__} takes {len(self._checks)} "
                            f"arguments")
        converted, writeback = [], []
        for name, v, (dtype, spec, written) in zip(self.names, args,
                                                   self._checks):
            if dtype is None:
                converted.append(spec[0](v))
                continue
            if written and isinstance(v, np.ndarray) and \
                    not v.flags.writeable:
                raise ValueError("assignment destination is read-only")
            arr = np.ascontiguousarray(v, dtype=dtype)
            if arr.ndim != spec:
                raise TypeError(f"argument {name!r} must be {spec}-D")
            if written and arr is not v:
                writeback.append((v, arr))
            converted.append(arr)
        result = self.invoke(self.exact(converted))
        for original, arr in writeback:
            if isinstance(original, np.ndarray):
                original[...] = arr
            elif isinstance(original, list):
                original[:] = arr.tolist()
        return result


class CompiledKernel(Marshaller):
    """A natively compiled typed function, called like the original
    Python function (lists become arrays; written arguments that had to
    be converted are written back)."""

    def __init__(self, tf: TypedFunction, symbol: Optional[str] = None):
        self.tf = tf
        self.symbol = symbol or f"seamless_{tf.ir.name}"
        self.c_source = emit_c(tf, self.symbol)
        lib = compile_c_source(self.c_source, tag=tf.ir.name)
        super().__init__(getattr(lib, self.symbol), tf.ir.arg_names,
                         tf.arg_types, written_arrays(tf), tf.return_type)


def compile_typed(tf: TypedFunction) -> CompiledKernel:
    """Compile a typed function to native code (raises without a cc)."""
    return CompiledKernel(tf)

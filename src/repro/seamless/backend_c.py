"""C backend: typed IR -> C99 -> system compiler -> ctypes.

The offline stand-in for the paper's LLVM lowering: instead of emitting
LLVM IR in-process we emit readable C99 and let the system ``cc`` produce
the machine code, then bind the shared object with ctypes.  The observable
contract is the same -- "compiles Python code to be run on the native CPU
instruction set" -- and the generated source doubles as the artifact for
static compilation (:mod:`repro.seamless.static`).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from typing import List, Optional

import numpy as np

from . import ir
from .frontend import UnsupportedError
from .infer import TypedFunction
from .stypes import BOOL, FLOAT64, INT64, VOID, ArrayType, SType

__all__ = ["compiler_available", "emit_c", "compile_typed",
           "compile_c_source", "CompiledKernel"]

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

/* CPython float modulo: fmod adjusted toward the divisor's sign */
static inline double __pyfmod(double a, double b) {
    double m = fmod(a, b);
    if (m != 0.0 && ((b < 0.0) != (m < 0.0))) m += b;
    return m;
}
"""

_cc_lock = threading.Lock()
_cc_path: Optional[str] = None
_cc_checked = False


def compiler_available() -> bool:
    """True when a working C compiler is on PATH."""
    global _cc_path, _cc_checked
    if _cc_checked:
        return _cc_path is not None
    with _cc_lock:
        if _cc_checked:
            return _cc_path is not None
        for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
            if not cand:
                continue
            try:
                subprocess.run([cand, "--version"], capture_output=True,
                               check=True, timeout=20)
                _cc_path = cand
                break
            except (OSError, subprocess.SubprocessError):
                continue
        _cc_checked = True
    return _cc_path is not None


def _cache_dir() -> str:
    path = os.path.join(tempfile.gettempdir(), "repro-seamless-cache")
    os.makedirs(path, exist_ok=True)
    return path


def compile_c_source(source: str, tag: str = "kernel") -> ctypes.CDLL:
    """Compile a C translation unit to a shared object and load it.

    The disk cache is shared by every process using the same temp
    directory.  Each compile writes its source and object under names
    unique to it and publishes them with an atomic ``os.replace``, so
    processes racing on the same cold kernel each end with a complete,
    loadable ``<base>.so`` (whichever rename lands last wins, and both
    are identical) and leave no temporaries behind.
    """
    if not compiler_available():
        raise RuntimeError("no C compiler available")
    from ..trace import TRACER as _TR  # local: backend is a leaf module
    digest = hashlib.sha256(source.encode()).hexdigest()[:20]
    base = os.path.join(_cache_dir(), f"{tag}_{digest}")
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
                cmd = [_cc_path, "-O2", "-shared", "-fPIC", "-o", so_tmp,
                       c_tmp, "-lm"]
                if "#pragma omp" in source:
                    cmd.insert(1, "-fopenmp")
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
def emit_c(tf: TypedFunction, symbol: Optional[str] = None) -> str:
    """Generate the C translation unit for one typed function.

    User helpers resolved during inference are emitted first as ``static``
    functions of the same translation unit (transitively hoisted there by
    the inference pass).
    """
    symbol = symbol or f"seamless_{tf.ir.name}"
    pieces = []
    # forward declarations first: helper bodies may call each other in any
    # order (nested helpers are hoisted after their callers)
    for helper_symbol, callee in tf.callees.items():
        pieces.append("static " + _signature(callee, helper_symbol) + ";")
    for helper_symbol, callee in tf.callees.items():
        pieces.append("static " + _CGen(callee).function(helper_symbol))
    pieces.append(_CGen(tf).function(symbol))
    return _PRELUDE + "\n" + "\n".join(pieces)


def _signature(tf: TypedFunction, symbol: str) -> str:
    params = []
    for name, t in zip(tf.ir.arg_names, tf.arg_types):
        if isinstance(t, ArrayType):
            params.append(f"{t.element.c_name}* {name}")
            if t.ndim == 1:
                params.append(f"int64_t {name}__len")
            else:
                params.append(f"int64_t {name}__d0")
                params.append(f"int64_t {name}__d1")
        else:
            params.append(f"{t.c_name} {name}")
    ret = tf.return_type.c_name if tf.return_type != VOID else "void"
    return f"{ret} {symbol}({', '.join(params) or 'void'})"


class _CGen:
    def __init__(self, tf: TypedFunction):
        self.tf = tf
        self.lines: List[str] = []
        self.indent = 1
        self._loop_counter = 0

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    # -- types ----------------------------------------------------------
    @staticmethod
    def ctype(t: SType) -> str:
        if isinstance(t, ArrayType):
            return t.element.c_name + "*"
        return t.c_name

    def function(self, symbol: str) -> str:
        tf = self.tf
        params = []
        for name, t in zip(tf.ir.arg_names, tf.arg_types):
            if isinstance(t, ArrayType):
                params.append(f"{t.element.c_name}* {name}")
                if t.ndim == 1:
                    params.append(f"int64_t {name}__len")
                else:
                    params.append(f"int64_t {name}__d0")
                    params.append(f"int64_t {name}__d1")
            else:
                params.append(f"{self.ctype(t)} {name}")
        ret = self.ctype(tf.return_type) if tf.return_type != VOID \
            else "void"
        head = f"{ret} {symbol}({', '.join(params) or 'void'})"
        self.lines = [head, "{"]
        for name, t in sorted(tf.locals.items()):
            self.emit(f"{self.ctype(t)} {name} = 0;")
        for stmt in tf.ir.body:
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
            self.emit(f"for ({var} = {start}; {cond}; "
                      f"{var} += __step_{sid}) {{")
            self.indent += 1
            for child in node.body:
                self.stmt(child)
            self.indent -= 1
            self.emit("}")
        elif isinstance(node, ir.While):
            self.emit(f"while ({self.expr(node.cond)}) {{")
            self.indent += 1
            for child in node.body:
                self.stmt(child)
            self.indent -= 1
            self.emit("}")
        elif isinstance(node, ir.If):
            self.emit(f"if ({self.expr(node.cond)}) {{")
            self.indent += 1
            for child in node.body:
                self.stmt(child)
            self.indent -= 1
            if node.orelse:
                self.emit("} else {")
                self.indent += 1
                for child in node.orelse:
                    self.stmt(child)
                self.indent -= 1
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
            value = float(node.value)
            if value != value:
                return "NAN"
            if value == float("inf"):
                return "INFINITY"
            if value == float("-inf"):
                return "(-INFINITY)"
            return repr(value)
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


class CompiledKernel:
    """A natively compiled function bound through ctypes.

    Handles argument conversion (lists -> arrays, dtype coercion with
    write-back for mutated array arguments) so call sites look exactly like
    the original Python function.
    """

    def __init__(self, tf: TypedFunction, symbol: Optional[str] = None):
        self.tf = tf
        self.symbol = symbol or f"seamless_{tf.ir.name}"
        self.c_source = emit_c(tf, self.symbol)
        lib = compile_c_source(self.c_source, tag=tf.ir.name)
        self._fn = getattr(lib, self.symbol)
        argtypes = []
        for t in tf.arg_types:
            if isinstance(t, ArrayType):
                argtypes.append(np.ctypeslib.ndpointer(
                    dtype=t.element.np_dtype, ndim=t.ndim,
                    flags="C_CONTIGUOUS"))
                argtypes.extend([ctypes.c_int64] * t.ndim)
            else:
                argtypes.append(_CTYPE_OF[t])
        self._fn.argtypes = argtypes
        self._fn.restype = None if tf.return_type == VOID else \
            _CTYPE_OF[tf.return_type]
        self._written = self._find_written_arrays()

    def _find_written_arrays(self):
        written = set()
        for stmt in self.tf.ir.walk_statements():
            if isinstance(stmt, ir.StoreSub):
                written.add(stmt.array)
        return {name for name in written if name in self.tf.ir.arg_names}

    def __call__(self, *args):
        if len(args) != len(self.tf.arg_types):
            raise TypeError(f"{self.tf.ir.name} takes "
                            f"{len(self.tf.arg_types)} arguments")
        c_args = []
        writeback = []
        for name, t, value in zip(self.tf.ir.arg_names, self.tf.arg_types,
                                  args):
            if isinstance(t, ArrayType):
                original = value
                arr = np.ascontiguousarray(value, dtype=t.element.np_dtype)
                if arr.ndim != t.ndim:
                    raise TypeError(f"argument {name!r} must be "
                                    f"{t.ndim}-D")
                if name in self._written and arr is not original:
                    writeback.append((original, arr))
                c_args.append(arr)
                c_args.extend(arr.shape)
            else:
                c_args.append(t.np_dtype.type(value))
        result = self._fn(*c_args)
        for original, arr in writeback:
            if isinstance(original, np.ndarray):
                original[...] = arr
            elif isinstance(original, list):
                original[:] = arr.tolist()
        if self.tf.return_type == BOOL:
            return bool(result)
        return result


def compile_typed(tf: TypedFunction) -> CompiledKernel:
    """Compile a typed function to native code (raises without a cc)."""
    return CompiledKernel(tf)

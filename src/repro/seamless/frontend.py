"""Frontend: Python source -> Seamless IR.

Works from the AST of the decorated function's source (Seamless sits
*inside* the CPython interpreter -- paper section IV-A -- so the function
object itself hands us its source).  The supported subset is the numeric
kernel language: scalar arithmetic, 1-D array indexing, ``for i in
range(...)``, ``while``, ``if``, ``len``, and the C math library calls.

Anything outside the subset raises :class:`UnsupportedError`, which the
``@jit`` dispatcher turns into a graceful fallback to the original Python
function ("a staged and incremental approach").
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import List

from . import ir

__all__ = ["UnsupportedError", "function_to_ir", "source_to_ir"]


class UnsupportedError(TypeError):
    """The function uses Python features outside the Seamless subset."""


_BINOP_MAP = {
    ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div",
    ast.FloorDiv: "floordiv", ast.Mod: "mod", ast.Pow: "pow",
    ast.BitAnd: "bitand", ast.BitOr: "bitor", ast.BitXor: "bitxor",
    ast.LShift: "lshift", ast.RShift: "rshift",
}
_CMP_MAP = {
    ast.Lt: "lt", ast.LtE: "le", ast.Gt: "gt", ast.GtE: "ge",
    ast.Eq: "eq", ast.NotEq: "ne",
}
# math-module spellings accepted as bare or attribute calls
_CALL_ALIASES = {
    "sqrt": "sqrt", "exp": "exp", "log": "log", "log2": "log2",
    "log10": "log10", "sin": "sin", "cos": "cos", "tan": "tan",
    "arcsin": "asin", "asin": "asin", "arccos": "acos", "acos": "acos",
    "arctan": "atan", "atan": "atan", "sinh": "sinh", "cosh": "cosh",
    "tanh": "tanh", "floor": "floor", "ceil": "ceil", "rint": "rint",
    "fabs": "fabs",
    "abs": "abs", "absolute": "fabs", "pow": "pow", "atan2": "atan2",
    "arctan2": "atan2", "hypot": "hypot", "fmod": "fmod", "min": "min",
    "max": "max", "minimum": "min", "maximum": "max", "int": "int",
    "float": "float", "round": "round",
}


def function_to_ir(fn) -> ir.FunctionIR:
    """Parse a live function object into IR."""
    try:
        source = inspect.getsource(fn)
    except (OSError, TypeError) as exc:
        raise UnsupportedError(f"cannot retrieve source of {fn!r}: {exc}") \
            from None
    return source_to_ir(source, fn.__name__)


def source_to_ir(source: str, name: str = None) -> ir.FunctionIR:
    """Parse function source text (decorators are ignored) into IR."""
    tree = ast.parse(textwrap.dedent(source))
    fndefs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    if name is not None:
        fndefs = [n for n in fndefs if n.name == name] or fndefs
    if not fndefs:
        raise UnsupportedError("no function definition found in source")
    fndef = fndefs[0]
    if fndef.args.vararg or fndef.args.kwarg or fndef.args.kwonlyargs or \
            fndef.args.defaults:
        raise UnsupportedError("only plain positional parameters are "
                               "supported")
    arg_names = [a.arg for a in fndef.args.args]
    body = _stmts(fndef.body)
    return ir.FunctionIR(fndef.name, arg_names, body)


def _stmts(nodes) -> List[ir.Node]:
    out: List[ir.Node] = []
    for node in nodes:
        out.append(_stmt(node))
    return out


def _stmt(node) -> ir.Node:
    if isinstance(node, ast.Assign):
        if len(node.targets) != 1:
            raise UnsupportedError("chained assignment is not supported")
        target = node.targets[0]
        if isinstance(target, ast.Name):
            return ir.Assign(target.id, _expr(node.value))
        if isinstance(target, ast.Subscript):
            arr, idx, idx2 = _subscript_parts(target)
            return ir.StoreSub(arr, idx, _expr(node.value), index2=idx2)
        raise UnsupportedError(f"unsupported assignment target "
                               f"{ast.dump(target)}")
    if isinstance(node, ast.AugAssign):
        op = _BINOP_MAP.get(type(node.op))
        if op is None:
            raise UnsupportedError(f"unsupported augmented op {node.op}")
        if isinstance(node.target, ast.Name):
            return ir.Assign(node.target.id,
                             ir.BinOp(op, ir.Name(node.target.id),
                                      _expr(node.value)))
        if isinstance(node.target, ast.Subscript):
            arr, idx, idx2 = _subscript_parts(node.target)
            return ir.StoreSub(arr, idx,
                               ir.BinOp(op,
                                        ir.Subscript(arr, idx, index2=idx2),
                                        _expr(node.value)),
                               index2=idx2)
        raise UnsupportedError("unsupported augmented-assignment target")
    if isinstance(node, ast.For):
        if not isinstance(node.target, ast.Name):
            raise UnsupportedError("loop variable must be a name")
        if node.orelse:
            raise UnsupportedError("for-else is not supported")
        rng = node.iter
        if not (isinstance(rng, ast.Call) and isinstance(rng.func, ast.Name)
                and rng.func.id in ("range", "prange")):
            raise UnsupportedError("only `for i in range(...)` or "
                                   "`prange(...)` loops are supported")
        parallel = rng.func.id == "prange"
        args = [_expr(a) for a in rng.args]
        if len(args) == 1:
            start, stop, step = ir.Const(0), args[0], ir.Const(1)
        elif len(args) == 2:
            start, stop, step = args[0], args[1], ir.Const(1)
        elif len(args) == 3:
            start, stop, step = args
        else:
            raise UnsupportedError("range() takes 1-3 arguments")
        return ir.For(node.target.id, start, stop, step,
                      _stmts(node.body), parallel=parallel)
    if isinstance(node, ast.While):
        if node.orelse:
            raise UnsupportedError("while-else is not supported")
        return ir.While(_expr(node.test), _stmts(node.body))
    if isinstance(node, ast.If):
        return ir.If(_expr(node.test), _stmts(node.body),
                     _stmts(node.orelse))
    if isinstance(node, ast.Return):
        return ir.Return(_expr(node.value) if node.value is not None
                         else None)
    if isinstance(node, ast.Break):
        return ir.Break()
    if isinstance(node, ast.Continue):
        return ir.Continue()
    if isinstance(node, ast.Pass):
        return ir.If(ir.Const(False), [], [])
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
        # docstring or bare literal: drop
        return ir.If(ir.Const(False), [], [])
    raise UnsupportedError(f"unsupported statement {type(node).__name__}")


def _subscript_parts(node: ast.Subscript):
    """Returns (array_name, index, index2_or_None)."""
    if not isinstance(node.value, ast.Name):
        raise UnsupportedError("only direct array names can be indexed")
    if isinstance(node.slice, ast.Tuple):
        elts = node.slice.elts
        if len(elts) != 2:
            raise UnsupportedError("only 1-D and 2-D indexing is supported")
        return node.value.id, _expr(elts[0]), _expr(elts[1])
    return node.value.id, _expr(node.slice), None


def _expr(node) -> ir.Node:
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (bool, int, float)):
            return ir.Const(node.value)
        raise UnsupportedError(f"unsupported constant {node.value!r}")
    if isinstance(node, ast.Name):
        return ir.Name(node.id)
    if isinstance(node, ast.BinOp):
        op = _BINOP_MAP.get(type(node.op))
        if op is None:
            raise UnsupportedError(f"unsupported operator {node.op}")
        return ir.BinOp(op, _expr(node.left), _expr(node.right))
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.USub):
            return ir.UnaryOp("neg", _expr(node.operand))
        if isinstance(node.op, ast.UAdd):
            return _expr(node.operand)
        if isinstance(node.op, ast.Not):
            return ir.UnaryOp("not", _expr(node.operand))
        raise UnsupportedError(f"unsupported unary op {node.op}")
    if isinstance(node, ast.Compare):
        if len(node.ops) != 1:
            # a < b < c  ->  (a < b) and (b < c)
            parts = []
            left = node.left
            for op, comp in zip(node.ops, node.comparators):
                parts.append(ast.Compare(left=left, ops=[op],
                                         comparators=[comp]))
                left = comp
            return ir.BoolOp("and", [_expr(p) for p in parts])
        op = _CMP_MAP.get(type(node.ops[0]))
        if op is None:
            raise UnsupportedError(f"unsupported comparison {node.ops[0]}")
        return ir.Compare(op, _expr(node.left), _expr(node.comparators[0]))
    if isinstance(node, ast.BoolOp):
        op = "and" if isinstance(node.op, ast.And) else "or"
        return ir.BoolOp(op, [_expr(v) for v in node.values])
    if isinstance(node, ast.Call):
        return _call(node)
    if isinstance(node, ast.Subscript):
        # x.shape[k] -> ShapeOf
        if isinstance(node.value, ast.Attribute) and \
                node.value.attr == "shape" and \
                isinstance(node.value.value, ast.Name) and \
                isinstance(node.slice, ast.Constant):
            return ir.ShapeOf(node.value.value.id, int(node.slice.value))
        arr, idx, idx2 = _subscript_parts(node)
        return ir.Subscript(arr, idx, index2=idx2)
    if isinstance(node, ast.IfExp):
        return ir.IfExp(_expr(node.test), _expr(node.body),
                        _expr(node.orelse))
    if isinstance(node, ast.Attribute):
        # math.pi / np.e style named constants
        const = _NAMED_CONSTANTS.get(node.attr)
        if const is not None:
            return ir.Const(const)
        raise UnsupportedError(f"unsupported attribute {node.attr!r}")
    raise UnsupportedError(f"unsupported expression {type(node).__name__}")


import math as _math  # noqa: E402

_NAMED_CONSTANTS = {
    "pi": _math.pi,
    "e": _math.e,
    "tau": _math.tau,
    "inf": _math.inf,
}


def _call(node: ast.Call) -> ir.Node:
    if node.keywords:
        raise UnsupportedError("keyword arguments in calls are not "
                               "supported")
    if isinstance(node.func, ast.Name):
        fname = node.func.id
    elif isinstance(node.func, ast.Attribute):
        # math.sqrt, np.sqrt, numpy.sin ...
        fname = node.func.attr
    else:
        raise UnsupportedError("unsupported call target")
    if fname == "len":
        if len(node.args) != 1 or not isinstance(node.args[0], ast.Name):
            raise UnsupportedError("len() takes one array argument")
        return ir.LenOf(node.args[0].id)
    if fname in ("range", "prange"):
        raise UnsupportedError(f"{fname}() only appears as a for-loop "
                               f"iterator")
    canonical = _CALL_ALIASES.get(fname)
    if canonical is None:
        if not isinstance(node.func, ast.Name):
            # obj.method(...) has no compilable meaning; only bare names
            # can resolve to user functions in the caller's globals
            raise UnsupportedError(f"unsupported method/attribute call "
                                   f"{fname!r}")
        # defer to inference, which resolves the name against the
        # function's globals (other @jit functions, plain helpers)
        return ir.UserCall(fname, [_expr(a) for a in node.args])
    return ir.Call(canonical, [_expr(a) for a in node.args])

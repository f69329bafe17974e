"""Lazy expressions and loop fusion (paper section III: "With the power
and expressiveness of NumPy array slicing, ODIN can optimize distributed
array expressions. These optimizations include: loop fusion, array
expression analysis to select the appropriate communication strategy").

Inside ``with odin.lazy():`` arithmetic on DistArrays builds an expression
graph instead of executing.  :func:`evaluate` then

1. collects the distinct leaf arrays,
2. makes them conformable with ONE redistribution plan chosen over the
   whole expression (not per-op),
3. compiles the tree to a postfix program and ships it to the workers in a
   single control message, where it runs as one fused pass -- through a
   Seamless-compiled native kernel when available, else a NumPy stack
   machine that still eliminates per-op control round-trips.

With control-plane batching (the default), the conforming
redistributions and the fused program are all fire-and-forget: the whole
lazy chain waits in the epoch buffer and reaches the workers inside the
one message the next synchronizing op ships.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import List, Optional, Union

import numpy as np

from . import opcodes
from .array import DistArray
from .ufuncs import BINARY_UFUNCS, UNARY_UFUNCS, choose_strategy

__all__ = ["LazyExpr", "lazy", "evaluate", "is_lazy"]

_lazy_tls = threading.local()


def is_lazy() -> bool:
    return getattr(_lazy_tls, "on", False)


@contextmanager
def lazy():
    """Record DistArray arithmetic as a fusable expression graph."""
    prev = is_lazy()
    _lazy_tls.on = True
    try:
        yield
    finally:
        _lazy_tls.on = prev


class LazyExpr:
    """A node of the deferred expression tree."""

    def __init__(self, op: str, kind: str, children):
        self.op = op          # ufunc name, or "" for leaves
        self.kind = kind      # "leaf", "const", "unary", "binary"
        self.children = children

    # -- construction helpers -------------------------------------------
    @staticmethod
    def wrap(value) -> "LazyExpr":
        if isinstance(value, LazyExpr):
            return value
        if isinstance(value, DistArray):
            return LazyExpr("", "leaf", [value])
        if np.isscalar(value):
            return LazyExpr("", "const", [value])
        raise TypeError(f"cannot use {type(value).__name__} in a lazy "
                        f"expression")

    def _bin(self, other, name, reflected=False):
        a, b = (LazyExpr.wrap(other), self) if reflected else \
            (self, LazyExpr.wrap(other))
        return LazyExpr(name, "binary", [a, b])

    def __add__(self, other):
        return self._bin(other, "add")

    def __radd__(self, other):
        return self._bin(other, "add", reflected=True)

    def __sub__(self, other):
        return self._bin(other, "subtract")

    def __rsub__(self, other):
        return self._bin(other, "subtract", reflected=True)

    def __mul__(self, other):
        return self._bin(other, "multiply")

    def __rmul__(self, other):
        return self._bin(other, "multiply", reflected=True)

    def __truediv__(self, other):
        return self._bin(other, "divide")

    def __rtruediv__(self, other):
        return self._bin(other, "divide", reflected=True)

    def __pow__(self, other):
        return self._bin(other, "power")

    def __neg__(self):
        return LazyExpr("negative", "unary", [self])

    def __abs__(self):
        return LazyExpr("absolute", "unary", [self])

    # -- analysis ---------------------------------------------------------
    def leaves(self) -> List[DistArray]:
        out: List[DistArray] = []

        def visit(node: LazyExpr):
            if node.kind == "leaf":
                arr = node.children[0]
                if all(arr is not seen for seen in out):
                    out.append(arr)
            elif node.kind in ("unary", "binary"):
                for child in node.children:
                    visit(child)

        visit(self)
        return out

    def program(self, leaf_index) -> List[tuple]:
        """Postfix program with leaf loads resolved via *leaf_index*."""
        prog: List[tuple] = []

        def emit(node: LazyExpr):
            if node.kind == "leaf":
                prog.append(("load", leaf_index(node.children[0])))
            elif node.kind == "const":
                prog.append(("const", node.children[0]))
            elif node.kind == "unary":
                emit(node.children[0])
                prog.append(("unary", node.op))
            else:
                emit(node.children[0])
                emit(node.children[1])
                prog.append(("binary", node.op))

        emit(self)
        return prog

    def num_ops(self) -> int:
        if self.kind in ("leaf", "const"):
            return 0
        return 1 + sum(c.num_ops() for c in self.children
                       if isinstance(c, LazyExpr))

    def __repr__(self):
        if self.kind == "leaf":
            return f"leaf[{self.children[0].array_id}]"
        if self.kind == "const":
            return repr(self.children[0])
        if self.kind == "unary":
            return f"{self.op}({self.children[0]!r})"
        return f"{self.op}({self.children[0]!r}, {self.children[1]!r})"


def evaluate(expr: Union[LazyExpr, DistArray],
             use_seamless: bool = True) -> DistArray:
    """Fuse and execute a lazy expression in one worker pass."""
    if isinstance(expr, DistArray):
        return expr
    if not isinstance(expr, LazyExpr):
        raise TypeError("evaluate() expects a LazyExpr or DistArray")
    leaves = expr.leaves()
    if not leaves:
        raise ValueError("expression has no distributed leaves")
    ctx = leaves[0].ctx
    # one conformability decision for the whole expression
    target = leaves[0].dist
    for leaf in leaves[1:]:
        if leaf.shape != leaves[0].shape:
            raise ValueError("all leaves of a fused expression must share "
                             "a global shape")
        if not leaf.dist.same_as(target):
            _name, target, _tb = choose_strategy(leaf.dist, target)
            break
    conformed = [leaf if leaf.dist.same_as(target)
                 else leaf.redistribute(target) for leaf in leaves]

    def leaf_index(arr: DistArray) -> int:
        for i, leaf in enumerate(leaves):
            if arr is leaf:
                return i
        raise KeyError("leaf not found")

    program = expr.program(leaf_index)
    out_id = ctx.new_array_id()
    ctx.run(opcodes.FUSED, tuple(program), tuple(a.array_id
                                                 for a in conformed),
            out_id, bool(use_seamless))
    dtype = _infer_dtype(program, conformed)
    return DistArray(ctx, out_id, conformed[0].dist, dtype)


def _infer_dtype(program, leaves) -> np.dtype:
    """Dry-run the program on 1-element dummies to get the result dtype."""
    stack = []
    for inst in program:
        if inst[0] == "load":
            stack.append(np.ones(1, dtype=leaves[inst[1]].dtype))
        elif inst[0] == "const":
            stack.append(inst[1])
        elif inst[0] == "unary":
            stack.append(UNARY_UFUNCS[inst[1]](stack.pop()))
        else:
            b = stack.pop()
            a = stack.pop()
            stack.append(BINARY_UFUNCS[inst[1]](a, b))
    return np.asarray(stack[-1]).dtype

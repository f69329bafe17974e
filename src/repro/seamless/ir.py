"""Seamless intermediate representation.

A deliberately small typed AST, mirroring the staged pipeline the Numba
architecture documents (bytecode/AST -> IR -> type inference -> lowering):
the frontend builds these nodes untyped (``stype=None``), inference fills
in ``stype``, and each backend lowers the typed tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .stypes import SType

__all__ = ["Node", "Const", "Name", "BinOp", "UnaryOp", "Compare", "BoolOp",
           "Call", "UserCall", "Subscript", "LenOf", "ShapeOf", "Assign", "StoreSub",
           "For",
           "While", "If", "Return", "Break", "Continue", "IfExp",
           "FunctionIR", "BINOPS", "UNARY_CALLS", "BINARY_CALLS"]

BINOPS = ("add", "sub", "mul", "div", "floordiv", "mod", "pow",
          "bitand", "bitor", "bitxor", "lshift", "rshift")
COMPARE_OPS = ("lt", "le", "gt", "ge", "eq", "ne")
UNARY_CALLS = ("sqrt", "exp", "log", "log2", "log10", "sin", "cos", "tan",
               "asin", "acos", "atan", "sinh", "cosh", "tanh", "floor",
               "ceil", "rint", "fabs", "abs", "int", "float", "round")
BINARY_CALLS = ("pow", "atan2", "hypot", "fmod", "min", "max")


@dataclass
class Node:
    """Base IR node; expressions carry an inferred stype."""

    stype: Optional[SType] = field(default=None, init=False, repr=False)


# -- expressions ---------------------------------------------------------
@dataclass
class Const(Node):
    value: object


@dataclass
class Name(Node):
    id: str


@dataclass
class BinOp(Node):
    op: str            # one of BINOPS
    left: Node
    right: Node


@dataclass
class UnaryOp(Node):
    op: str            # "neg", "not", "pos"
    operand: Node


@dataclass
class Compare(Node):
    op: str            # one of COMPARE_OPS
    left: Node
    right: Node


@dataclass
class BoolOp(Node):
    op: str            # "and" / "or"
    values: List[Node]


@dataclass
class Call(Node):
    func: str          # UNARY_CALLS/BINARY_CALLS member
    args: List[Node]


@dataclass
class UserCall(Node):
    """Call to another user function (resolved during inference to a
    compiled helper in the same translation unit)."""

    func: str
    args: List["Node"]
    symbol: Optional[str] = field(default=None, init=False)


@dataclass
class Subscript(Node):
    array: str
    index: Node
    index2: Optional["Node"] = None    # second index for 2-D arrays


@dataclass
class LenOf(Node):
    array: str


@dataclass
class ShapeOf(Node):
    """x.shape[dim] for array parameters."""

    array: str
    dim: int


# -- statements ----------------------------------------------------------
@dataclass
class Assign(Node):
    target: str
    value: Node


@dataclass
class StoreSub(Node):
    array: str
    index: Node
    value: Node
    index2: Optional["Node"] = None    # second index for 2-D arrays


@dataclass
class For(Node):
    var: str
    start: Node
    stop: Node
    step: Node
    body: List[Node]
    parallel: bool = False     # prange: compile to an OpenMP parallel loop


@dataclass
class While(Node):
    cond: Node
    body: List[Node]


@dataclass
class If(Node):
    cond: Node
    body: List[Node]
    orelse: List[Node]


@dataclass
class Return(Node):
    value: Optional[Node]


@dataclass
class Break(Node):
    pass


@dataclass
class Continue(Node):
    pass


@dataclass
class IfExp(Node):
    """Conditional expression: body if cond else orelse."""

    cond: "Node"
    body: "Node"
    orelse: "Node"


@dataclass
class FunctionIR:
    """A whole lowered function."""

    name: str
    arg_names: List[str]
    body: List[Node]

    def walk_statements(self):
        """Yield every statement node, depth-first."""
        def visit(stmts):
            for s in stmts:
                yield s
                if isinstance(s, (For, While)):
                    yield from visit(s.body)
                elif isinstance(s, If):
                    yield from visit(s.body)
                    yield from visit(s.orelse)
        yield from visit(self.body)

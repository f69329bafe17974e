"""Distributed ufunc application and the communication-strategy chooser.

Paper section III-D: unary ufuncs parallelize trivially; binary ufuncs
parallelize trivially *when the argument arrays are conformable* (same
distribution).  Otherwise "a number of different options present
themselves, and ODIN will choose a strategy that will minimize
communication, while allowing the knowledgeable user to modify its behavior
via Python context managers".

Strategies considered for ``f(a, b)`` with non-conformable operands:

- ``"left"``   -- redistribute a onto b's distribution,
- ``"right"``  -- redistribute b onto a's distribution,
- ``"block"``  -- redistribute both onto a fresh balanced block layout.

The chooser prices each plan in *bytes actually moved* (computed exactly
from the distribution descriptors: an element moves iff its source and
destination worker differ) and picks the cheapest; :func:`strategy` pins a
choice for a ``with`` block.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from typing import Optional, Union

import numpy as np

from ..trace import TRACER as _TR
from . import opcodes
from .array import DistArray
from .distribution import BlockDistribution, Distribution
from .periodic import overlap
from .worker import BINARY_UFUNCS, TERNARY_UFUNCS, UNARY_UFUNCS

__all__ = ["unary_ufunc", "binary_ufunc", "nary_ufunc", "strategy",
           "current_strategy", "redistribution_cost", "choose_strategy",
           "UNARY_NAMES", "BINARY_NAMES", "TERNARY_NAMES"]

UNARY_NAMES = sorted(UNARY_UFUNCS)
BINARY_NAMES = sorted(BINARY_UFUNCS)
TERNARY_NAMES = sorted(TERNARY_UFUNCS)

_strategy_tls = threading.local()


@contextmanager
def strategy(name: str):
    """Pin the redistribution strategy: "left", "right", "block" or "auto".

    ::

        with odin.strategy("right"):
            c = a * b        # b is moved onto a's distribution
    """
    if name not in ("left", "right", "block", "auto"):
        raise ValueError(f"unknown strategy {name!r}")
    prev = getattr(_strategy_tls, "name", "auto")
    _strategy_tls.name = name
    try:
        yield
    finally:
        _strategy_tls.name = prev


def current_strategy() -> str:
    return getattr(_strategy_tls, "name", "auto")


def redistribution_cost(src: Distribution, dst: Distribution) -> int:
    """Exact element count moved on the wire for src -> dst.

    An element travels iff its owner changes.  Ownership is separable per
    axis (every distribution here splits whole axes), so the elements
    worker w keeps form a rectangular tile: the per-axis intersection of
    w's source and destination holdings, counted in closed form for
    periodic ownership and by index-set intersection otherwise.
    Computed on the driver from metadata only -- this is what lets the
    ODIN process plan without touching data.
    """
    if src.same_as(dst):
        return 0
    total = 1
    for s in src.global_shape:
        total *= s
    stay = 0
    for w in range(src.nworkers):
        cnt = 1
        for ax in range(src.ndim):
            cnt *= _axis_overlap(src, dst, w, ax)
            if cnt == 0:
                break
        stay += cnt
    return total - stay


def _axis_overlap(src: Distribution, dst: Distribution, w: int,
                  ax: int) -> int:
    """How many ids along *ax* worker w holds under both layouts: closed
    form unless one side's ownership of *ax* is irregular."""
    mine, theirs = src.axis_periodic(w, ax), dst.axis_periodic(w, ax)
    if mine is not None and theirs is not None:
        return overlap(mine, theirs)
    # one side splits ax irregularly; the other may hold all of it (None)
    mine, theirs = src.axis_indices(w, ax), dst.axis_indices(w, ax)
    if mine is None or theirs is None:
        return len(theirs if mine is None else mine)
    return len(np.intersect1d(mine, theirs, assume_unique=True))


def choose_strategy(da: Distribution, db: Distribution):
    """Return (name, dist_a_target, dist_b_target) minimizing bytes moved."""
    pinned = current_strategy()
    block = BlockDistribution(da.global_shape, da.axis, da.nworkers)
    plans = {
        "left": (db, db, redistribution_cost(da, db)),
        "right": (da, da, redistribution_cost(db, da)),
        "block": (block, block,
                  redistribution_cost(da, block) +
                  redistribution_cost(db, block)),
    }
    if pinned != "auto":
        target_a, target_b, _cost = plans[pinned]
        return pinned, target_a, target_b
    name = min(plans, key=lambda k: (plans[k][2], k))
    target_a, target_b, _cost = plans[name]
    return name, target_a, target_b


def _coerce_conformable(a: DistArray, b: DistArray):
    """Make two operands conformable, redistributing as cheaply as allowed."""
    if a.dist.same_as(b.dist):
        return a, b
    if a.shape != b.shape:
        raise ValueError(f"operands have different global shapes "
                         f"{a.shape} vs {b.shape} (broadcasting between "
                         f"distributed arrays is limited to scalars)")
    name, ta, tb = choose_strategy(a.dist, b.dist)
    if not a.dist.same_as(ta):
        a = a.redistribute(ta)
    if not b.dist.same_as(tb):
        b = b.redistribute(tb)
    return a, b


def unary_ufunc(name: str, a: DistArray) -> DistArray:
    """Apply a unary ufunc: one control message, zero data movement."""
    if name not in UNARY_UFUNCS:
        raise ValueError(f"unknown unary ufunc {name!r}")
    out_id = a.ctx.new_array_id()
    a.ctx.run(opcodes.UFUNC, name, (("array", a.array_id),), out_id)
    out_dtype = _result_dtype(UNARY_UFUNCS[name], a.dtype)
    return DistArray(a.ctx, out_id, a.dist, out_dtype)


def binary_ufunc(name: str,
                 a: Union[DistArray, float],
                 b: Union[DistArray, float]) -> DistArray:
    """Apply a binary ufunc, redistributing non-conformable operands."""
    if name not in BINARY_UFUNCS:
        raise ValueError(f"unknown binary ufunc {name!r}")
    if isinstance(a, DistArray) and isinstance(b, DistArray):
        if a.ctx is not b.ctx:
            raise ValueError("operands belong to different ODIN contexts")
        a, b = _coerce_conformable(a, b)
        specs = (("array", a.array_id), ("array", b.array_id))
        ctx, dist = a.ctx, a.dist
        dt_a, dt_b = a.dtype, b.dtype
    elif isinstance(a, DistArray):
        if isinstance(b, DistArray):  # pragma: no cover
            raise AssertionError
        specs = (("array", a.array_id), ("scalar", b))
        ctx, dist = a.ctx, a.dist
        dt_a, dt_b = a.dtype, np.asarray(b).dtype
    elif isinstance(b, DistArray):
        specs = (("scalar", a), ("array", b.array_id))
        ctx, dist = b.ctx, b.dist
        dt_a, dt_b = np.asarray(a).dtype, b.dtype
    else:
        raise TypeError("at least one operand must be a DistArray")
    out_id = ctx.new_array_id()
    ctx.run(opcodes.UFUNC, name, specs, out_id)
    out_dtype = _result_dtype(BINARY_UFUNCS[name], dt_a, dt_b)
    return DistArray(ctx, out_id, dist, out_dtype)


def nary_ufunc(name: str, operands) -> DistArray:
    """Apply an n-ary elementwise operation (where, clip, ...).

    All DistArray operands are made conformable with the first; scalars
    pass through.  At least one operand must be distributed.
    """
    if name not in TERNARY_UFUNCS:
        raise ValueError(f"unknown n-ary ufunc {name!r}")
    arrays = [op for op in operands if isinstance(op, DistArray)]
    if not arrays:
        raise TypeError("at least one operand must be a DistArray")
    ctx = arrays[0].ctx
    anchor = arrays[0]
    conformed = []
    keepalive = []  # hold redistributed temporaries until the op has run
    for op in operands:
        if isinstance(op, DistArray):
            if op.shape != anchor.shape:
                raise ValueError("distributed operands must share a shape")
            if not op.dist.same_as(anchor.dist):
                op = op.redistribute(anchor.dist)
                keepalive.append(op)
            conformed.append(("array", op.array_id))
        else:
            conformed.append(("scalar", op))
    out_id = ctx.new_array_id()
    ctx.run(opcodes.UFUNC, name, tuple(conformed), out_id)
    del keepalive
    dtypes = [op.dtype if isinstance(op, DistArray)
              else np.asarray(op).dtype for op in operands]
    # result dtype: where -> promote value operands; clip -> first operand
    if name == "where":
        out_dtype = np.result_type(*dtypes[1:])
    else:
        out_dtype = np.result_type(*dtypes)
    return DistArray(ctx, out_id, anchor.dist, out_dtype)


@functools.lru_cache(maxsize=None)
def _result_dtype(ufunc, *dtypes):
    """The dtype *ufunc* returns for operands of *dtypes*, probed once
    per key on one-element arrays.  The cache is unbounded, but its keys
    are ufunc-table entries by dtype combinations and its values are
    immutable dtypes.  A ufunc that refuses the probe (say, ``negative``
    on booleans) falls back to NumPy's promotion rule and records an
    ``odin.ufuncs``/``dtype_fallback`` instant."""
    try:
        return ufunc(*[np.ones(1, dtype=dt) for dt in dtypes]).dtype
    except Exception as exc:  # noqa: BLE001 - any refusal falls back
        if _TR.recording:
            _TR.instant("odin.ufuncs", "dtype_fallback",
                        ufunc=getattr(ufunc, "__name__", repr(ufunc)),
                        reason=repr(exc))
        return np.result_type(*dtypes)


def _make_module_ufuncs(namespace: dict) -> None:
    """Install odin.sqrt, odin.add, ... into the package namespace."""
    def make_unary(name):
        def fn(a):
            from .expr import LazyExpr, is_lazy
            if isinstance(a, LazyExpr) or \
                    (isinstance(a, DistArray) and is_lazy()):
                return LazyExpr(name, "unary", [LazyExpr.wrap(a)])
            if isinstance(a, DistArray):
                return unary_ufunc(name, a)
            return UNARY_UFUNCS[name](a)
        fn.__name__ = name
        fn.__doc__ = f"Distributed elementwise {name} (NumPy-compatible)."
        return fn

    def make_binary(name):
        def fn(a, b):
            from .expr import LazyExpr, is_lazy
            distributed = isinstance(a, (DistArray, LazyExpr)) or \
                isinstance(b, (DistArray, LazyExpr))
            if distributed and (is_lazy() or isinstance(a, LazyExpr)
                                or isinstance(b, LazyExpr)):
                return LazyExpr(name, "binary",
                                [LazyExpr.wrap(a), LazyExpr.wrap(b)])
            if distributed:
                return binary_ufunc(name, a, b)
            return BINARY_UFUNCS[name](a, b)
        fn.__name__ = name
        fn.__doc__ = f"Distributed elementwise {name} (NumPy-compatible)."
        return fn

    def make_ternary(name):
        def fn(a, b, c):
            if any(isinstance(v, DistArray) for v in (a, b, c)):
                return nary_ufunc(name, (a, b, c))
            return TERNARY_UFUNCS[name](a, b, c)
        fn.__name__ = name
        fn.__doc__ = f"Distributed elementwise {name} (NumPy-compatible)."
        return fn

    for name in UNARY_UFUNCS:
        namespace[name] = make_unary(name)
    for name in BINARY_UFUNCS:
        namespace[name] = make_binary(name)
    for name in TERNARY_UFUNCS:
        namespace[name] = make_ternary(name)

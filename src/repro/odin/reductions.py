"""Global reductions over distributed arrays.

Full reductions (axis=None) and reductions along the distributed axis
return driver-side values: each worker reduces its block locally and ships
one partial (scalar or one reduced block) in the status gather -- the
classic two-phase distributed reduction.  Reductions along any other axis
are purely local and the result stays distributed.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from . import opcodes
from .array import DistArray
from .context import local_registry
from .worker import REDUCERS

__all__ = ["reduce_array", "sum", "prod", "amin", "amax", "mean", "std",
           "histogram", "bincount", "argmin", "argmax"]


def reduce_array(a: DistArray, op_name: str,
                 axis: Optional[int]) -> Union[DistArray, np.ndarray, float]:
    if op_name not in REDUCERS:
        raise ValueError(f"unknown reduction {op_name!r}")
    if axis is not None:
        axis = int(axis) % a.ndim
    if axis is not None and len(a.dist.dist_axes) > 1:
        return _reduce_grid(a, op_name, axis)
    if axis is None or axis == a.dist.axis:
        partials = a.ctx.run(opcodes.REDUCE, a.array_id, op_name, axis)
        reducer = REDUCERS[op_name]
        acc = None
        for tag, part in partials:
            if tag != "partial":
                raise AssertionError("inconsistent reduction paths")
            if part is None:
                continue
            acc = part if acc is None else reducer(acc, part)
        if acc is None:
            raise ValueError("reduction of an empty array without identity")
        if axis is None:
            return acc.item() if isinstance(acc, np.generic) or \
                (isinstance(acc, np.ndarray) and acc.ndim == 0) else acc
        return np.asarray(acc)
    # local-axis reduction: stays distributed
    out_id = a.ctx.new_array_id()
    results = a.ctx.run(opcodes.REDUCE, a.array_id, op_name, axis, out_id)
    tag, new_dist = results[0]
    if tag != "stored":
        raise AssertionError("inconsistent reduction paths")
    return DistArray(a.ctx, out_id, new_dist, a.dtype)


def _reduce_grid(a: DistArray, op_name: str, axis: int) -> np.ndarray:
    """Axis reduction of a grid-distributed array: tiles are combined on
    the driver (tiles sharing remaining-axes coordinates reduce together).
    Returns a NumPy array of the reduced shape."""
    reducer = REDUCERS[op_name]
    tiles = a.ctx.run(opcodes.REDUCE, a.array_id, op_name, axis)
    out_shape = tuple(s for i, s in enumerate(a.shape) if i != axis)
    out = np.empty(out_shape, dtype=a.dtype)
    filled = np.zeros(out_shape, dtype=bool)
    for tag, coords, part in tiles:
        if tag != "tile":
            raise AssertionError("inconsistent grid reduction path")
        if part is None:
            continue
        per_axis = [np.arange(out_shape[i], dtype=np.int64)
                    if ids is None else np.asarray(ids)
                    for i, ids in enumerate(coords)]
        sel = np.ix_(*per_axis) if per_axis else ()
        existing = filled[sel] if per_axis else filled
        merged = np.where(existing, reducer(out[sel], part), part) \
            if per_axis else (reducer(out, part) if existing else part)
        out[sel] = merged
        filled[sel] = True
    if not filled.all():
        raise AssertionError("grid reduction left uncovered entries")
    return out


# Worker-side kernels, registered at import so that workers forked after
# it (the process backend) find them; parameters travel as call args.
def _histogram_kernel(block, bins, lo, hi):
    counts, _edges = np.histogram(block, bins=bins, range=(lo, hi))
    return counts


def _bincount_kernel(block, length):
    return np.bincount(block.reshape(-1), minlength=length)


def _argextreme_kernel(block, mode):
    """(value, local index) of this block's extreme, None when empty."""
    if block.size == 0:
        return None
    local = int(np.argmin(block) if mode == "min" else np.argmax(block))
    return float(block[local]), local


local_registry["__odin_histogram__"] = _histogram_kernel
local_registry["__odin_bincount__"] = _bincount_kernel
local_registry["__odin_argextreme__"] = _argextreme_kernel


def histogram(a: DistArray, bins: int = 10, range=None):  # noqa: A002
    """Distributed ``numpy.histogram``: each worker bins its local block,
    the per-worker counts sum on the driver.  Returns (counts, edges)."""
    if range is None:
        lo = float(a.min())
        hi = float(a.max())
    else:
        lo, hi = float(range[0]), float(range[1])
    results = a.ctx.call_local(
        "__odin_histogram__", (("array", a.array_id), ("value", bins),
                               ("value", lo), ("value", hi)), {},
        out_id=None)
    counts = np.sum([payload for _tag, payload in results], axis=0)
    return counts, np.linspace(lo, hi, bins + 1)


def bincount(a: DistArray, minlength: int = 0) -> np.ndarray:
    """Distributed ``numpy.bincount`` for nonnegative integer arrays."""
    if not np.issubdtype(a.dtype, np.integer):
        raise TypeError("bincount needs an integer array")
    length = max(int(a.max()) + 1, minlength)
    results = a.ctx.call_local(
        "__odin_bincount__", (("array", a.array_id), ("value", length)), {},
        out_id=None)
    return np.sum([payload for _tag, payload in results], axis=0)


def _argextreme(a: DistArray, mode: str) -> int:
    """Global argmin/argmax of a 1-D array (ties -> lowest global index)."""
    if a.ndim != 1:
        raise ValueError(f"arg{mode} supports 1-D arrays")
    results = a.ctx.call_local(
        "__odin_argextreme__", (("array", a.array_id), ("value", mode)), {},
        out_id=None)
    best_gid = None
    best_val = None
    for w, (_tag, payload) in enumerate(results):
        if payload is None:
            continue
        val, local = payload
        gid = int(a.dist.indices_for(w)[local])
        better = (best_val is None
                  or (val < best_val if mode == "min" else val > best_val)
                  or (val == best_val and gid < best_gid))
        if better:
            best_val, best_gid = val, gid
    if best_gid is None:
        raise ValueError(f"arg{mode} of an empty array")
    return best_gid


def argmin(a: DistArray) -> int:
    """Global index of the minimum (NumPy-compatible for 1-D arrays)."""
    return _argextreme(a, "min")


def argmax(a: DistArray) -> int:
    """Global index of the maximum (NumPy-compatible for 1-D arrays)."""
    return _argextreme(a, "max")


def sum(a: DistArray, axis: Optional[int] = None):  # noqa: A001
    """Distributed sum (NumPy-compatible signature)."""
    return a.sum(axis=axis)


def prod(a: DistArray, axis: Optional[int] = None):
    return a.prod(axis=axis)


def amin(a: DistArray, axis: Optional[int] = None):
    return a.min(axis=axis)


def amax(a: DistArray, axis: Optional[int] = None):
    return a.max(axis=axis)


def mean(a: DistArray, axis: Optional[int] = None):
    return a.mean(axis=axis)


def std(a: DistArray, axis: Optional[int] = None):
    return a.std(axis=axis)

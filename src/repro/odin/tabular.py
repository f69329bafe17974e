"""Distributed tabular data and Map-Reduce (paper section III-I).

"ODIN supports distributed structured or tabular data sets, building on
the powerful dtype features of NumPy. In combination with ODIN's
distributed function interface, distributed structured arrays provide the
fundamental components for parallel Map-Reduce style computations."

A table is simply a 1-D DistArray with a structured dtype; this module
adds the record-wise map / filter / group-by-aggregate operators on top.
Map and filter never move a row.  Group-by is a combine, shuffle, merge:
each worker reduces its block to one partial per key, the partials are
hash-partitioned worker-to-worker over the worker comm, and each key's
owner merges what arrives.  Only row *counts* travel through the ODIN
process.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from . import opcodes
from .array import DistArray
from .context import OdinContext, get_context
from .creation import array as _dist_array
from .distribution import BlockDistribution
from .worker import GROUP_OPS, _ship_function

__all__ = ["from_records", "map_records", "filter_records",
           "group_aggregate", "compress"]


def from_records(records, dtype=None,
                 ctx: Optional[OdinContext] = None) -> DistArray:
    """Distribute a structured array (or list of tuples + dtype)."""
    rec = np.asarray(records, dtype=dtype)
    if rec.dtype.names is None:
        raise TypeError("from_records expects a structured dtype")
    return _dist_array(rec, ctx=ctx)


def _transform(a: DistArray, fn: Callable) -> DistArray:
    """Run a block-wise transform whose output length may differ; the
    TRANSFORM op carries *fn* by value, so a recovery replay runs exactly
    the function it was issued with."""
    out_id = a.ctx.new_array_id()
    results = a.ctx.run(opcodes.TRANSFORM, a.array_id, out_id,
                        _ship_function(fn))
    counts = [c for c, _dt in results]
    dtype = np.dtype(results[0][1])
    total = int(sum(counts))
    dist = BlockDistribution((total,), 0, a.dist.nworkers,
                             counts=[int(c) for c in counts])
    a.ctx.run(opcodes.SET_DIST, out_id, dist)
    return DistArray(a.ctx, out_id, dist, dtype)


def map_records(fn: Callable[[np.ndarray], np.ndarray],
                a: DistArray) -> DistArray:
    """Map: apply *fn* to each worker's record block (the "map" phase).

    *fn* receives a structured block and returns an equal-or-different
    length block; rows never move between workers.
    """
    return _transform(a, fn)


def filter_records(predicate: Callable[[np.ndarray], np.ndarray],
                   a: DistArray) -> DistArray:
    """Keep the rows where *predicate(block)* is True (vectorized)."""
    def fn(block):
        return block[np.asarray(predicate(block), dtype=bool)]
    return _transform(a, fn)


def compress(mask: DistArray, a: DistArray) -> DistArray:
    """Boolean-mask selection ``a[mask]`` for 1-D distributed arrays.

    Worker-local compaction followed by the counts-change protocol the
    tabular layer uses; no row ever crosses the wire.
    """
    if a.ndim != 1 or mask.ndim != 1:
        raise ValueError("compress works on 1-D arrays")
    if mask.shape != a.shape:
        raise ValueError("mask and array shapes differ")
    if not mask.dist.same_as(a.dist):
        mask = mask.redistribute(a.dist)
    mask_id = mask.array_id

    def fn(block):
        from .context import worker_state
        mask_block, _d = worker_state().get(mask_id)
        return block[np.asarray(mask_block, dtype=bool)]

    keepalive = mask  # the mask must outlive the transform op
    out = _transform(a, fn)
    del keepalive
    return out


def group_aggregate(a: DistArray, key_field: str, value_field: str,
                    op: str = "sum") -> DistArray:
    """The "reduce" phase: aggregate *value_field* per distinct key.

    Returns a distributed table with fields ``key`` and ``value``
    (float64), one row per distinct key; *op* is one of ``sum``,
    ``count``, ``mean``, ``min``, ``max``.  Each worker first reduces its
    own block to one partial per key (a count, plus a float64 sum or a
    partial extreme), then ships each partial to the worker the key's
    hash names, which merges them: per-key partials cross the wire, not
    records.  Each worker holds the rows of the keys it owns, keys
    ascending.  ``sum``/``mean`` add per-block sums rather than records
    in order (equal to a serial sum within rounding); ``count``, ``min``
    and ``max`` are exact.

    Bad requests are refused here, before any worker sees the op: a
    worker that raised inside the shuffle would leave its peers waiting.
    """
    if a.dtype.names is None or key_field not in a.dtype.names:
        raise ValueError(f"array has no field {key_field!r}")
    if op not in GROUP_OPS:
        raise ValueError(f"unknown aggregation {op!r}; expected one of "
                         f"{', '.join(GROUP_OPS)}")
    if op != "count" and value_field not in a.dtype.names:
        raise ValueError(f"array has no field {value_field!r}")
    if a.dtype[key_field].kind == "O":
        raise TypeError(f"key field {key_field!r} has object dtype; "
                        f"group keys must be comparable fixed-size values")
    if op != "count" and a.dtype[value_field].kind not in "biuf":
        raise TypeError(f"{op} needs a numeric value field; "
                        f"{value_field!r} is {a.dtype[value_field]}")
    out_id = a.ctx.new_array_id()
    results = a.ctx.run(opcodes.GROUPBY, a.array_id, out_id, key_field,
                        value_field if op != "count" else key_field, op)
    counts = [c for c, _dt in results]
    dtype = np.dtype(results[0][1])
    total = int(sum(counts))
    dist = BlockDistribution((total,), 0, a.dist.nworkers,
                             counts=[int(c) for c in counts])
    a.ctx.run(opcodes.SET_DIST, out_id, dist)
    return DistArray(a.ctx, out_id, dist, dtype)

"""Distributed dense linear algebra on DistArrays: dot / matmul.

Row-distributed GEMV/GEMM with a replicated right operand: each worker
allgathers the (narrow) right-hand operand over the worker communicator --
the standard tall-skinny pattern -- then multiplies its local row block.
The result inherits the left operand's row decomposition, so chains like
``odin.matmul(A, odin.matmul(B, x))`` stay distributed end to end.
"""

from __future__ import annotations

import numpy as np

from .array import DistArray
from .context import local_registry, worker_comm
from .distribution import (BlockDistribution, ConcatDistribution,
                           same_scheme)

__all__ = ["dot", "matmul", "concatenate", "sort"]


def _matmul_kernel(a_block, b_block, b_dist):
    """Worker side: allgather B, multiply the local row block."""
    comm = worker_comm()
    blocks = comm.allgather(b_block)
    bg = np.empty(b_dist.global_shape, dtype=b_block.dtype)
    for w, blk in enumerate(blocks):
        bg[b_dist.global_selector(w)] = blk
    return np.ascontiguousarray(a_block @ bg)


local_registry["__odin_matmul__"] = _matmul_kernel


def _rows_dist_of(a: DistArray):
    """a's axis-0 decomposition (redistributing if a is split elsewhere)."""
    if a.dist.dist_axes != (0,):
        a = a.redistribute(BlockDistribution(a.shape, 0, a.dist.nworkers))
    return a


def matmul(a: DistArray, b: DistArray) -> DistArray:
    """a @ b for 2-D x 1-D (matvec) and 2-D x 2-D (matmat).

    *a* is (re)distributed by rows; *b* is allgathered per worker, so this
    targets the tall-skinny regime (b much smaller than a).
    """
    if not isinstance(a, DistArray) or not isinstance(b, DistArray):
        raise TypeError("matmul operands must be DistArrays")
    if a.ndim != 2 or b.ndim not in (1, 2):
        raise ValueError(f"unsupported shapes {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    a = _rows_dist_of(a)
    out_shape = (a.shape[0],) if b.ndim == 1 else (a.shape[0], b.shape[1])
    out_dist = same_scheme(a.dist, out_shape, 0)
    out_id = a.ctx.new_array_id()
    results = a.ctx.call_local(
        "__odin_matmul__",
        (("array", a.array_id), ("array", b.array_id),
         ("value", b.dist)), {}, out_id=out_id, out_dist=out_dist)
    if {tag for tag, _p in results} != {"stored"}:
        raise AssertionError("matmul workers failed to store result blocks")
    dtype = np.result_type(a.dtype, b.dtype)
    return DistArray(a.ctx, out_id, out_dist, dtype)


def _concat_kernel(*block_ids_and_axis):
    from .context import worker_state
    *ids, axis = block_ids_and_axis
    state = worker_state()
    blocks = [state.get(i)[0] for i in ids]
    return np.concatenate(blocks, axis=axis)


local_registry["__odin_concat__"] = _concat_kernel


def concatenate(arrays, axis: int = 0) -> DistArray:
    """Concatenate distributed arrays along their distributed axis.

    When every operand is block-distributed along *axis*, each worker just
    concatenates its local blocks -- zero communication; other layouts are
    redistributed first.
    """
    arrays = list(arrays)
    if not arrays:
        raise ValueError("need at least one array")
    if any(not isinstance(a, DistArray) for a in arrays):
        raise TypeError("concatenate operands must be DistArrays")
    ndim = arrays[0].ndim
    axis = int(axis) % ndim
    for a in arrays[1:]:
        if a.ndim != ndim:
            raise ValueError("operands must share dimensionality")
        if tuple(s for i, s in enumerate(a.shape) if i != axis) != \
                tuple(s for i, s in enumerate(arrays[0].shape)
                      if i != axis):
            raise ValueError("non-concatenated extents must match")
    ctx = arrays[0].ctx
    # normalize: everything block-distributed along the concat axis
    keepalive = []
    normalized = []
    for a in arrays:
        if not (isinstance(a.dist, BlockDistribution)
                and a.dist.axis == axis):
            a = a.redistribute(BlockDistribution(a.shape, axis,
                                                 ctx.nworkers))
            keepalive.append(a)
        normalized.append(a)
    # a compact descriptor built from the (small) part distributions:
    # worker w holds [a's w-block, b's w-block, ...] locally
    out_dist = ConcatDistribution([a.dist for a in normalized], axis)
    out_id = ctx.new_array_id()
    specs = tuple(("value", a.array_id) for a in normalized) + \
        (("value", axis),)
    results = ctx.call_local("__odin_concat__", specs, {},
                             out_id=out_id, out_dist=out_dist)
    if {tag for tag, _p in results} != {"stored"}:
        raise AssertionError("concatenate failed to store result blocks")
    dtype = np.result_type(*(a.dtype for a in arrays))
    del keepalive
    return DistArray(ctx, out_id, out_dist, dtype)


def dot(a: DistArray, b: DistArray):
    """NumPy-style dot: inner product for 1-D operands, matmul otherwise."""
    if a.ndim == 1 and b.ndim == 1:
        if a.shape != b.shape:
            raise ValueError(f"shape mismatch: {a.shape} . {b.shape}")
        return (a * b).sum()
    return matmul(a, b)


# ----------------------------------------------------------------------
# distributed sorting (parallel sample sort)
# ----------------------------------------------------------------------
def _sample_sort_kernel(block, nsamples):
    """Worker side of sample sort.

    1. sort locally;
    2. contribute regular samples; allgather them and pick P-1 splitters;
    3. partition the local data by splitter and alltoall the buckets;
    4. merge received runs; report the new local count.
    """
    comm = worker_comm()
    P = comm.size
    local = np.sort(np.asarray(block).reshape(-1))
    if len(local):
        idx = np.linspace(0, len(local) - 1, nsamples).astype(np.int64)
        samples = local[idx]
    else:
        samples = local
    all_samples = np.sort(np.concatenate(comm.allgather(samples)))
    if P > 1 and len(all_samples):
        # exactly P-1 splitters, indices clamped into range
        idx = (np.arange(1, P) * len(all_samples)) // P
        splitters = all_samples[np.clip(idx, 0, len(all_samples) - 1)]
        bounds = np.searchsorted(local, splitters, side="right")
        pieces = np.split(local, bounds)
    else:
        # degenerate: a single worker, or nothing anywhere
        pieces = [local] + [local[:0]] * (P - 1)
    received = comm.alltoall(pieces)
    mine = [r for r in received if len(r)]
    if mine:
        merged = np.sort(np.concatenate(mine))
    else:
        merged = local[:0]
    return merged


def _sample_sort_store(block, nsamples, out_id):
    """Sort, keep the merged run in this worker's table, report its size
    (only the count crosses back to the driver)."""
    from .context import worker_state
    merged = _sample_sort_kernel(block, nsamples)
    worker_state().arrays[out_id] = (np.ascontiguousarray(merged), None)
    return int(len(merged))


local_registry["__odin_sample_sort__"] = _sample_sort_store


def sort(a: DistArray, oversample: int = 32) -> DistArray:
    """Globally sort a 1-D distributed array (parallel sample sort).

    Workers sort locally, agree on splitters from a regular sample,
    exchange buckets worker-to-worker, and merge.  The result is block
    distributed with data-dependent (approximately balanced) counts; the
    driver sees only the per-worker counts.
    """
    if a.ndim != 1:
        raise ValueError("sort supports 1-D arrays")
    ctx = a.ctx
    nsamples = max(2, min(oversample, max(2, a.shape[0] // ctx.nworkers)))
    out_id = ctx.new_array_id()
    results = ctx.call_local(
        "__odin_sample_sort__",
        (("array", a.array_id), ("value", nsamples),
         ("value", out_id)), {}, out_id=None)
    counts = [int(payload) for _tag, payload in results]
    from . import opcodes
    dist = BlockDistribution((sum(counts),), 0, ctx.nworkers,
                             counts=counts)
    ctx.run(opcodes.SET_DIST, out_id, dist)
    return DistArray(ctx, out_id, dist, a.dtype)

"""Worker-node execution engine.

Each worker holds the local segments of every live distributed array and
executes control ops from the driver.  All bulk data movement happens here,
over the workers-only communicator -- the ODIN process never relays array
data (Fig. 1's "worker nodes can communicate directly with each other").
"""

from __future__ import annotations

import importlib
import marshal
import os
import sys
import types
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..mpi.comm import Intracomm
from ..obs import causal as _CZ
from ..trace import TRACER as _TR
from . import opcodes
from .distribution import (ArbitraryDistribution, BlockDistribution,
                           Distribution)

__all__ = ["WorkerState", "execute_op", "UFUNCS"]


def _plan_cache_cap() -> int:
    """Max cached communication plans per worker (LRU bound)."""
    return int(os.environ.get("REPRO_ODIN_PLAN_CACHE", "64"))

# ufuncs exposed as odin.<name>; unary and binary sets drive arity checks
UNARY_UFUNCS = {
    "negative": np.negative, "absolute": np.absolute, "abs": np.absolute,
    "sqrt": np.sqrt, "exp": np.exp, "log": np.log, "log2": np.log2,
    "log10": np.log10, "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "arcsin": np.arcsin, "arccos": np.arccos, "arctan": np.arctan,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "floor": np.floor, "ceil": np.ceil, "rint": np.rint, "sign": np.sign,
    "square": np.square, "reciprocal": np.reciprocal, "conj": np.conjugate,
    "isnan": np.isnan, "isinf": np.isinf, "logical_not": np.logical_not,
}
BINARY_UFUNCS = {
    "add": np.add, "subtract": np.subtract, "multiply": np.multiply,
    "divide": np.divide, "true_divide": np.true_divide,
    "floor_divide": np.floor_divide, "power": np.power, "mod": np.mod,
    "arctan2": np.arctan2, "hypot": np.hypot, "maximum": np.maximum,
    "minimum": np.minimum, "fmax": np.fmax, "fmin": np.fmin,
    "equal": np.equal, "not_equal": np.not_equal, "less": np.less,
    "less_equal": np.less_equal, "greater": np.greater,
    "greater_equal": np.greater_equal, "logical_and": np.logical_and,
    "logical_or": np.logical_or, "logical_xor": np.logical_xor,
}
TERNARY_UFUNCS = {
    "where": np.where, "clip": np.clip,
}
UFUNCS = {**UNARY_UFUNCS, **BINARY_UFUNCS, **TERNARY_UFUNCS}

REDUCERS = {
    "sum": np.add, "prod": np.multiply, "min": np.minimum,
    "max": np.maximum, "any": np.logical_or, "all": np.logical_and,
}


@dataclass
class WorkerState:
    """Everything one worker knows."""

    index: int
    comm: Intracomm                       # workers-only communicator
    registry: Dict[str, Callable]         # @odin.local functions
    full_comm: Optional[Intracomm] = None  # driver + workers (scatter path)
    arrays: Dict[int, Tuple[np.ndarray, Distribution]] = field(
        default_factory=dict)
    # communication-plan cache (redistribution + slicing index math),
    # LRU-bounded; keyed on (kind, src dist key, dst dist key, dtype)
    plan_cache: "OrderedDict[tuple, Any]" = field(
        default_factory=OrderedDict)
    plan_cache_cap: int = field(default_factory=_plan_cache_cap)
    plan_hits: int = 0
    plan_misses: int = 0
    # SCR-style in-memory checkpoints: version -> (own snapshot, partner's
    # snapshot, partner's old worker index).  A snapshot is a deep-copied
    # {array_id: (block, dist)}.  The partner copy belongs to the previous
    # worker in the ring, so worker (d+1) % P can resurrect a dead d.
    checkpoints: Dict[int, Tuple] = field(default_factory=dict)

    def prune_checkpoints(self, keep: int = 2) -> None:
        """Keep only the newest *keep* versions (a crash mid-checkpoint
        must still be able to restore the previous one)."""
        for version in sorted(self.checkpoints)[:-keep]:
            del self.checkpoints[version]

    def get(self, array_id: int) -> Tuple[np.ndarray, Distribution]:
        try:
            return self.arrays[array_id]
        except KeyError:
            raise KeyError(f"worker {self.index}: unknown array id "
                           f"{array_id}") from None


# ----------------------------------------------------------------------
# creation
# ----------------------------------------------------------------------
def _fill_local(state: WorkerState, dist: Distribution, dtype,
                fill_spec) -> np.ndarray:
    """Allocate and initialize the local block from a tiny descriptor.

    Index-dependent fills (arange, linspace, fromfunction, random seeds)
    are computed from the worker's own global indices -- no data on the
    wire, exactly as the paper describes for ``odin.rand(shape)``.
    """
    w = state.index
    shape = dist.local_shape(w)
    kind = fill_spec[0]
    if kind == "zeros":
        return np.zeros(shape, dtype=dtype)
    if kind == "ones":
        return np.ones(shape, dtype=dtype)
    if kind == "empty":
        return np.empty(shape, dtype=dtype)
    if kind == "full":
        return np.full(shape, fill_spec[1], dtype=dtype)
    if kind == "random":
        seed = fill_spec[1]
        rng = np.random.default_rng(None if seed is None else seed + w)
        return rng.random(shape).astype(dtype, copy=False)
    if kind == "normal":
        seed = fill_spec[1]
        rng = np.random.default_rng(None if seed is None else seed + w)
        return rng.standard_normal(shape).astype(dtype, copy=False)
    if kind == "fromfunction":
        fn = state.registry[fill_spec[1]]
        per_axis = []
        for ax in range(dist.ndim):
            ids = dist.axis_indices(w, ax)
            per_axis.append(np.arange(dist.global_shape[ax])
                            if ids is None else ids)
        grids = np.meshgrid(*per_axis, indexing="ij")
        return np.asarray(fn(*grids), dtype=dtype)
    if len(dist.dist_axes) > 1:
        raise ValueError(f"fill {kind!r} is 1-D-indexed; use fromfunction "
                         f"for grid-distributed arrays")
    gi = dist.indices_for(w).astype(np.float64)
    if kind == "arange":
        start, step = fill_spec[1], fill_spec[2]
        vals = (start + step * gi).astype(dtype, copy=False)
    elif kind == "linspace":
        start, stop, num, endpoint = fill_spec[1:]
        denom = (num - 1) if endpoint else num
        step = (stop - start) / denom if denom else 0.0
        vals = (start + step * gi).astype(dtype, copy=False)
    else:
        raise ValueError(f"unknown fill spec {fill_spec!r}")
    if dist.ndim == 1:
        return vals
    # index-dependent 1-D fills broadcast along the distributed axis
    shape_b = [1] * dist.ndim
    shape_b[dist.axis] = len(gi)
    return np.broadcast_to(vals.reshape(shape_b), shape).copy()


# ----------------------------------------------------------------------
# redistribution (the workhorse: worker-to-worker, driver untouched)
# ----------------------------------------------------------------------
def _split_by_owner(owner: np.ndarray, gids: np.ndarray,
                    P: int) -> List[np.ndarray]:
    """Storage positions of *gids* grouped by *owner*, one array per peer.

    ``owner[k]`` is the peer that holds ``gids[k]`` on the other side of
    the transfer.  Within each group the positions are in ascending
    global-id order -- the wire order both ends agree on -- so a sort is
    paid only when *gids* (a storage order) does not already ascend.
    """
    order = None
    if len(gids) > 1 and not bool((gids[1:] > gids[:-1]).all()):
        order = np.argsort(gids, kind="stable")
        owner = owner[order]
    parts = [np.flatnonzero(owner == v) for v in range(P)]
    return parts if order is None else [order[k] for k in parts]


def _axis_indexer(ndim: int, axis: int, idx) -> tuple:
    sl: List[Any] = [slice(None)] * ndim
    sl[axis] = idx
    return tuple(sl)


def _is_multi_axis(src: Distribution, dst: Distribution) -> bool:
    return (len(src.dist_axes) > 1 or len(dst.dist_axes) > 1
            or src.general_only or dst.general_only)


class _RedistPlan:
    """Precomputed communication schedule for one (src, dst) pair on one
    worker.

    All index math -- ownership intersections, local take positions,
    output placement indexers -- is computed once from the distribution
    descriptors; execution replays the schedule: take, alltoall, place.
    Plans are pure index metadata, so one plan serves every array with
    the same (src, dst) pair regardless of contents.
    """

    __slots__ = ("kind", "out_shape", "send", "recv", "self_pair")

    def __init__(self, kind, out_shape, send, recv, self_pair):
        self.kind = kind              # "single-axis" | "general"
        self.out_shape = out_shape    # dst.local_shape(w)
        self.send = send              # [(peer, [(axis, idx), ...]), ...]
        self.recv = recv              # [(peer, placement indexer), ...]
        self.self_pair = self_pair    # (take_ops, placement) or None

    def execute(self, state: WorkerState, local: np.ndarray) -> np.ndarray:
        comm = state.comm
        out = np.empty(self.out_shape, dtype=local.dtype)
        if self.self_pair is not None:
            take_ops, place = self.self_pair
            out[place] = _apply_take(local, take_ops)
        sendobjs: List[Any] = [None] * comm.size
        for v, take_ops in self.send:
            sendobjs[v] = _apply_take(local, take_ops)
        received = comm.alltoall(sendobjs)
        for u, place in self.recv:
            out[place] = received[u]
        return out


def _apply_take(local: np.ndarray, take_ops) -> np.ndarray:
    """Sequentially gather positions along each planned axis."""
    out = local
    for ax, idx in take_ops:
        out = np.take(out, idx, axis=ax)
    return out if take_ops else np.ascontiguousarray(out)


def _build_redist_plan(state: WorkerState, src: Distribution,
                       dst: Distribution) -> _RedistPlan:
    """Plan construction: the index math formerly done on every call.

    Both sides of every pairwise transfer derive it deterministically
    from the distribution descriptors, so only array data crosses the
    wire -- no index lists.  Single-axis pairs use owner arithmetic: the
    sender asks ``dst.owner_of`` where each of its elements goes, the
    receiver asks ``src.owner_of`` where each of its slots comes from,
    and grouping by owner (one mask per peer) yields every take and place
    array in O(n*P).  Grid distributions go through the general per-axis
    Cartesian-intersection engine (ownership is separable per axis, so
    the overlap of two workers is always a rectangular tile).
    """
    if _is_multi_axis(src, dst):
        return _build_general_plan(state, src, dst)
    w = state.index
    P = state.comm.size
    ax = src.axis
    if ax == dst.axis:
        mine = src.indices_for(w)
        theirs = dst.indices_for(w)
        takes = [[(ax, k)] if len(k) else None
                 for k in _split_by_owner(dst.owner_of(mine), mine, P)]
        places = [_axis_indexer(dst.ndim, ax, k) if len(k) else None
                  for k in _split_by_owner(src.owner_of(theirs), theirs, P)]
    else:
        # I own full slabs along dst.axis: send v its columns of my slab;
        # u's piece lands at u's rows (full extent here: ids are positions)
        takes = [[(dst.axis, dst.indices_for(v))] for v in range(P)]
        places = [_axis_indexer(dst.ndim, ax, src.indices_for(u))
                  for u in range(P)]
    send = [(v, takes[v]) for v in range(P)
            if v != w and takes[v] is not None]
    recv = [(u, places[u]) for u in range(P)
            if u != w and places[u] is not None]
    self_pair = None if takes[w] is None else (takes[w], places[w])
    return _RedistPlan("single-axis", dst.local_shape(w), send, recv,
                       self_pair)


def _redistribute_block(state: WorkerState, local: np.ndarray,
                        src: Distribution, dst: Distribution) -> np.ndarray:
    """Move a local block from distribution *src* to *dst* (plan-cached)."""
    plan, cached = _redist_plan_for(state, src, dst, local.dtype)
    if _TR.enabled:
        with _TR.span("odin.worker", "redistribute.exchange",
                      worker=state.index, kind=plan.kind, plan=cached):
            return plan.execute(state, local)
    return plan.execute(state, local)


def _pair_tile(src: Distribution, dst: Distribution, from_w: int,
               to_w: int):
    """Per-axis sorted intersections of from_w's src block with to_w's dst
    block, or None when the tile is empty.  Axes neither side distributes
    are full-extent and omitted (slice(None))."""
    ndim = len(src.global_shape)
    tile = []
    for ax in range(ndim):
        mine = src.axis_indices(from_w, ax)
        theirs = dst.axis_indices(to_w, ax)
        if mine is None and theirs is None:
            tile.append(None)  # full extent on both sides
            continue
        if mine is None:
            inter = np.asarray(theirs, dtype=np.int64)
        elif theirs is None:
            inter = np.asarray(mine, dtype=np.int64)
        else:
            inter = np.intersect1d(mine, theirs, assume_unique=True)
        if len(inter) == 0:
            return None
        tile.append(inter)
    return tile


def _take_tile_ops(src: Distribution, worker: int, tile):
    """Planned gather positions for a pairwise tile (skips full axes)."""
    return [(ax, src.axis_local_position(worker, ax, inter))
            for ax, inter in enumerate(tile) if inter is not None]


def _tile_indexer(dst: Distribution, worker: int, tile, out_shape):
    per_axis = []
    for ax, inter in enumerate(tile):
        if inter is None:
            per_axis.append(np.arange(out_shape[ax], dtype=np.int64))
        else:
            per_axis.append(dst.axis_local_position(worker, ax, inter))
    return np.ix_(*per_axis)


def _build_general_plan(state: WorkerState, src: Distribution,
                        dst: Distribution) -> _RedistPlan:
    w = state.index
    P = state.comm.size
    out_shape = dst.local_shape(w)
    send = []
    self_pair = None
    for v in range(P):
        tile = _pair_tile(src, dst, w, v)
        if tile is None:
            continue
        take_ops = _take_tile_ops(src, w, tile)
        if v == w:
            self_pair = (take_ops, _tile_indexer(dst, w, tile, out_shape))
        else:
            send.append((v, take_ops))
    recv = []
    for u in range(P):
        if u == w:
            continue
        tile = _pair_tile(src, dst, u, w)
        if tile is None:
            continue
        recv.append((u, _tile_indexer(dst, w, tile, out_shape)))
    return _RedistPlan("general", out_shape, send, recv, self_pair)


# ----------------------------------------------------------------------
# plan cache (LRU per worker; keys derived from distribution descriptors)
# ----------------------------------------------------------------------
def _plan_cache_get(state: WorkerState, key):
    plan = state.plan_cache.get(key)
    if plan is not None:
        state.plan_cache.move_to_end(key)
        state.plan_hits += 1
        return plan
    state.plan_misses += 1
    return None


def _plan_cache_put(state: WorkerState, key, plan) -> None:
    cache = state.plan_cache
    cache[key] = plan
    while len(cache) > state.plan_cache_cap:
        cache.popitem(last=False)


def _redist_plan_for(state: WorkerState, src: Distribution,
                     dst: Distribution, dtype):
    """The plan and how the cache served it: ``"hit"``, ``"miss"``, or
    None for an unkeyable distribution."""
    src_key = src.cache_key()
    dst_key = dst.cache_key()
    if src_key is None or dst_key is None:
        # unkeyable distribution: build fresh, bypass the cache entirely
        return _build_redist_plan(state, src, dst), None
    key = ("redist", src_key, dst_key, np.dtype(dtype).str)
    plan = _plan_cache_get(state, key)
    if plan is not None:
        return plan, "hit"
    plan = _build_redist_plan(state, src, dst)
    _plan_cache_put(state, key, plan)
    return plan, "miss"


# ----------------------------------------------------------------------
# slicing
# ----------------------------------------------------------------------
def _slice_survivors(dist: Distribution, worker: int, sl: slice):
    """Global source indices on *worker* that survive slice *sl* along the
    distributed axis, plus their new global indices."""
    start, stop, step = sl.indices(dist.axis_length)
    mine = dist.indices_for(worker)
    if step > 0:
        mask = (mine >= start) & (mine < stop) & ((mine - start) % step == 0)
    else:
        mask = (mine <= start) & (mine > stop) & ((start - mine) % -step == 0)
    kept = mine[mask]
    new_g = (kept - start) // step
    return kept, new_g


class _SlicePlan:
    """Precomputed slice-then-redistribute schedule.

    Stores the local slicing indexer, the survivor take along the
    distributed axis, and the inner redistribution plan from the implied
    intermediate distribution to the target -- so a cache hit skips the
    survivor scan and the ArbitraryDistribution construction entirely.
    """

    __slots__ = ("local_sl", "take", "axis", "inner")

    def __init__(self, local_sl, take, axis, inner):
        self.local_sl = local_sl
        self.take = take
        self.axis = axis
        self.inner = inner

    def execute(self, state: WorkerState, local: np.ndarray) -> np.ndarray:
        part = local[self.local_sl]
        part = np.take(part, self.take, axis=self.axis)
        return self.inner.execute(state, part)


def _build_slice_plan(state: WorkerState, src: Distribution, slices,
                      new_dist: Distribution) -> _SlicePlan:
    w = state.index
    # local part: every non-distributed axis is sliced in place
    local_sl: List[Any] = []
    mid_shape = list(src.global_shape)
    for ax, sl in enumerate(slices):
        if ax == src.axis:
            local_sl.append(slice(None))
        else:
            local_sl.append(sl)
            mid_shape[ax] = len(range(*sl.indices(src.global_shape[ax])))
    # distributed axis: keep survivors, renumber them globally
    axis_sl = slices[src.axis]
    kept, _new_g = _slice_survivors(src, w, axis_sl)
    take = src.axis_local_position(w, src.axis, kept)
    start, stop, step = axis_sl.indices(src.axis_length)
    mid_shape[src.axis] = len(range(start, stop, step))
    # ownership after the cut, before rebalancing: each worker holds the
    # survivors of its own segment (deterministically recomputable)
    lists = [_slice_survivors(src, v, axis_sl)[1]
             for v in range(src.nworkers)]
    inter = ArbitraryDistribution(tuple(mid_shape), src.axis, lists,
                                  validate=False)
    inner = _build_redist_plan(state, inter, new_dist)
    return _SlicePlan(tuple(local_sl), take, src.axis, inner)


def _apply_slice(state: WorkerState, local: np.ndarray, src: Distribution,
                 slices, new_dist: Distribution) -> np.ndarray:
    """Slice then redistribute to *new_dist* (same ndim preserved)."""
    src_key = src.cache_key()
    dst_key = new_dist.cache_key()
    key = None
    plan = cached = None
    if src_key is not None and dst_key is not None:
        # slices are unhashable before 3.12: normalize to index triples
        triples = tuple(sl.indices(src.global_shape[ax])
                        for ax, sl in enumerate(slices))
        key = ("slice", src_key, triples, dst_key,
               np.dtype(local.dtype).str)
        plan = _plan_cache_get(state, key)
        cached = "miss" if plan is None else "hit"
    if plan is None:
        plan = _build_slice_plan(state, src, slices, new_dist)
        if key is not None:
            _plan_cache_put(state, key, plan)
    if _TR.enabled:
        with _TR.span("odin.worker", "redistribute.exchange",
                      worker=state.index, kind=plan.inner.kind,
                      plan=cached):
            return plan.execute(state, local)
    return plan.execute(state, local)


# ----------------------------------------------------------------------
# fused expression evaluation (loop fusion, paper section III intro)
# ----------------------------------------------------------------------
def _eval_program(state: WorkerState, program, blocks: List[np.ndarray],
                  use_seamless: bool) -> np.ndarray:
    """Evaluate a postfix elementwise program over conformable blocks.

    With ``use_seamless``, float64 blocks and real constants the program
    is compiled to a single native loop via :mod:`repro.seamless` (true
    loop fusion); otherwise a NumPy stack machine evaluates it
    block-at-a-time (still one control round-trip for the whole
    expression instead of one per op).  The native loop computes in
    float64 only, so any other dtype takes the stack machine, which
    follows NumPy's type promotion.
    """
    if (use_seamless and all(b.dtype == np.float64 for b in blocks)
            and all(np.isrealobj(inst[1]) for inst in program
                    if inst[0] == "const")):
        from .fusion import compiled_kernel
        kernel = compiled_kernel(tuple(program), len(blocks))
        if kernel is not None:
            if _TR.enabled:
                t0 = _TR.now()
                out = kernel(blocks)
                _TR.complete("odin.worker", "fused.kernel", t0,
                             ops=len(program), engine="seamless")
                return out
            return kernel(blocks)
    t0 = _TR.now() if _TR.enabled else 0.0
    stack: List[np.ndarray] = []
    for inst in program:
        tag = inst[0]
        if tag == "load":
            stack.append(blocks[inst[1]])
        elif tag == "const":
            stack.append(inst[1])
        elif tag == "unary":
            stack.append(UNARY_UFUNCS[inst[1]](stack.pop()))
        elif tag == "binary":
            b = stack.pop()
            a = stack.pop()
            stack.append(BINARY_UFUNCS[inst[1]](a, b))
        else:
            raise ValueError(f"bad instruction {inst!r}")
    if len(stack) != 1:
        raise ValueError("malformed fusion program")
    out = np.asarray(stack[0])
    if _TR.enabled:
        _TR.complete("odin.worker", "fused.stack", t0,
                     ops=len(program), engine="numpy")
    return out


def _key_hash(keys: np.ndarray) -> np.ndarray:
    """Deterministic shuffle hash for group-by keys (ints or strings)."""
    keys = np.asarray(keys)
    if keys.dtype.kind in "iu":
        return np.abs(keys.astype(np.int64) * np.int64(2654435761)) \
            & np.int64(0x7FFFFFFF)
    out = np.empty(len(keys), dtype=np.int64)
    for i, k in enumerate(keys):
        h = 0
        for ch in str(k).encode():
            h = (h * 131 + ch) & 0x7FFFFFFF
        out[i] = h
    return out


# ----------------------------------------------------------------------
# checkpoint / restore (repro.recover)
# ----------------------------------------------------------------------
_CKPT_TAG = 7001  # p2p tag for the partner ring exchange


def _checkpoint(state: WorkerState, version: int) -> int:
    """Snapshot every live array and mirror the snapshot on the ring
    partner ``(w + 1) % P``; returns the snapshot's payload bytes."""
    snapshot = {array_id: (np.array(block, copy=True), dist)
                for array_id, (block, dist) in state.arrays.items()}
    nbytes = sum(block.nbytes for block, _dist in snapshot.values())
    comm = state.comm
    P = comm.size
    if P > 1:
        # eager buffered sends: everyone sends before anyone receives,
        # so the ring cannot deadlock
        comm.send(snapshot, dest=(state.index + 1) % P, tag=_CKPT_TAG)
        partner = comm.recv(source=(state.index - 1) % P, tag=_CKPT_TAG)
    else:
        partner = {}
    state.checkpoints[version] = (snapshot, partner,
                                  (state.index - 1) % P)
    state.prune_checkpoints()
    if _TR.enabled:
        _TR.instant("recover", "worker.ckpt", worker=state.index,
                    nbytes=nbytes)
    return nbytes


def _restore(state: WorkerState, version: int, old_indices, dead_indices,
             old_n: int) -> int:
    """Rebuild every checkpointed array on the shrunk worker set.

    Runs on the post-shrink communicator; ``state.index``/``state.comm``
    are already the new ones.  ``old_indices[j]`` is new worker j's old
    index; each dead worker's blocks come from its ring partner's copy.
    Single-axis arrays are redistributed with the (cacheable) alltoall
    plan; grid/concat/undistributed arrays take an allgather-assemble
    fallback.  Returns the number of restored arrays.
    """
    own, partner, partner_of = state.checkpoints.get(
        version, ({}, {}, None))
    my_old = old_indices[state.index]
    dead = set(dead_indices)
    for d in dead:
        holder = (d + 1) % old_n
        if holder in dead:
            raise RuntimeError(
                f"unrecoverable: worker {d} and its checkpoint partner "
                f"{holder} both failed")
    # old worker index -> snapshot dict I can contribute
    mine = {my_old: own}
    if partner_of in dead and partner:
        mine[partner_of] = partner
    elif partner_of in dead and not own:
        # version 0 (no checkpoint taken): nothing to contribute is fine
        pass

    new_n = len(old_indices)
    state.arrays.clear()

    # split arrays by restore strategy using my own snapshot's metadata
    # (every worker checkpointed the same id set)
    simple, general = [], []
    for array_id, (_block, dist) in own.items():
        if (dist is not None and len(dist.dist_axes) == 1
                and not dist.general_only):
            simple.append(array_id)
        else:
            general.append(array_id)

    # -- single-axis arrays: alltoall redistribution, plan-cacheable ----
    for array_id in sorted(simple):
        _block, old_dist = own[array_id]
        # source view over the NEW workers: worker j holds the old blocks
        # of old_indices[j] plus any dead worker it partners for
        src_lists = []
        for j in range(new_n):
            covered = [old_indices[j]]
            covered += [d for d in sorted(dead)
                        if (d + 1) % old_n == old_indices[j]]
            src_lists.append(np.concatenate(
                [old_dist.indices_for(v) for v in covered])
                if covered else np.empty(0, dtype=np.int64))
        src_dist = ArbitraryDistribution(
            old_dist.global_shape, old_dist.axis, src_lists, validate=False)
        parts = [own[array_id][0]]
        parts += [mine[d][array_id][0] for d in sorted(dead)
                  if d in mine and d != my_old]
        local_src = np.concatenate(parts, axis=old_dist.axis) \
            if len(parts) > 1 else parts[0]
        new_dist = old_dist.with_nworkers(new_n)
        moved = _redistribute_block(state, local_src, src_dist, new_dist)
        state.arrays[array_id] = (moved, new_dist)

    # -- grid/concat/undistributed: allgather and assemble globally -----
    if general:
        contributions = state.comm.allgather(
            {v: {array_id: snap[array_id] for array_id in general
                 if array_id in snap}
             for v, snap in mine.items()})
        by_old: Dict[int, dict] = {}
        for contrib in contributions:
            by_old.update(contrib)
        for array_id in sorted(general):
            _block, old_dist = own[array_id]
            if old_dist is None:
                # tabular/unknown layout: concatenate rows in old worker
                # order, re-deal contiguously over the new workers
                rows = np.concatenate(
                    [by_old[v][array_id][0] for v in sorted(by_old)])
                base, extra = divmod(len(rows), new_n)
                lo = state.index * base + min(state.index, extra)
                hi = lo + base + (1 if state.index < extra else 0)
                state.arrays[array_id] = (rows[lo:hi].copy(), None)
                continue
            glob = np.empty(old_dist.global_shape,
                            dtype=own[array_id][0].dtype)
            for v in range(old_n):
                glob[old_dist.global_selector(v)] = by_old[v][array_id][0]
            new_dist = old_dist.with_nworkers(new_n)
            state.arrays[array_id] = (
                np.ascontiguousarray(glob[new_dist.global_selector(
                    state.index)]), new_dist)

    if _TR.enabled:
        _TR.instant("recover", "worker.restore", worker=state.index,
                    arrays=len(own))
    return len(own)


# ----------------------------------------------------------------------
# function shipping (process-backend REGISTER_LOCAL)
# ----------------------------------------------------------------------
def _ship_function(fn: Callable) -> tuple:
    """Wire form of an ``@odin.local`` function for process workers.

    Plain pickling stores a module+qualname reference, which a forked
    worker cannot resolve for functions defined *after* the fork (the
    common case: test bodies).  Marshalling the code object ships the
    actual bytecode; the worker rebinds it over the live globals of the
    same module, so references like ``np`` resolve there.  Closures
    cannot cross (cell contents live in the defining frame) -- rejected
    with a pointed error rather than a NameError on the worker.
    """
    code = getattr(fn, "__code__", None)
    if code is None:
        raise TypeError(f"cannot ship {fn!r} to process workers "
                        "(not a plain Python function)")
    if fn.__closure__:
        raise TypeError(
            f"@odin.local function {fn.__qualname__!r} closes over outer "
            "variables; process-backend workers cannot rebuild closures -- "
            "pass the values as arguments instead")
    return (fn.__module__, fn.__name__, marshal.dumps(code), fn.__defaults__)


def _unship_function(spec: tuple) -> Callable:
    module, name, code_bytes, defaults = spec
    mod = sys.modules.get(module)
    if mod is None:
        try:
            mod = importlib.import_module(module)
        except Exception:  # noqa: BLE001 - fall back to a minimal namespace
            mod = None
    globs = mod.__dict__ if mod is not None else {
        "np": np, "__builtins__": __builtins__}
    return types.FunctionType(marshal.loads(code_bytes), globs, name,
                              defaults)


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def execute_op(state: WorkerState, op: tuple) -> Any:
    """Execute one control op; each op becomes one ``odin.worker`` span
    (tagged with the causal op_id/epoch_id from the TAGGED envelope)."""
    if not _TR.recording:
        return _execute_op_impl(state, op)
    oid, eid = _CZ.current()
    t0 = _TR.now()
    try:
        return _execute_op_impl(state, op)
    finally:
        _TR.complete("odin.worker", str(op[0]), t0, worker=state.index,
                     op_id=oid, epoch_id=eid)


def _execute_op_impl(state: WorkerState, op: tuple) -> Any:
    code = op[0]

    if code == opcodes.CREATE:
        _code, array_id, dist, dtype_str, fill_spec = op
        state.arrays[array_id] = (
            _fill_local(state, dist, np.dtype(dtype_str), fill_spec), dist)
        return None

    if code == opcodes.SCATTER:
        _code, array_id, dist, _dtype_str = op
        block = state.full_comm.scatter(None, root=0)
        state.arrays[array_id] = (block, dist)
        return None

    if code == opcodes.DELETE:
        state.arrays.pop(op[1], None)
        return None

    if code == opcodes.DELETE_MANY:
        for array_id in op[1]:
            state.arrays.pop(array_id, None)
        return None

    if code == opcodes.GATHER:
        local, dist = state.get(op[1])
        return (dist, local)

    if code == opcodes.FETCH:
        _code, array_id, index_tuple = op
        local, dist = state.get(array_id)
        li = []
        for ax in range(dist.ndim):
            ids = dist.axis_indices(state.index, ax)
            if ids is None:
                li.append(int(index_tuple[ax]))
                continue
            pos = np.nonzero(ids == index_tuple[ax])[0]
            if len(pos) == 0:
                return None  # not this worker's tile
            li.append(int(pos[0]))
        return local[tuple(li)]

    if code == opcodes.UFUNC:
        _code, name, in_specs, out_id = op
        blocks = []
        dist = None
        for spec in in_specs:
            if spec[0] == "array":
                block, d = state.get(spec[1])
                blocks.append(block)
                dist = d if dist is None else dist
            else:
                blocks.append(spec[1])
        result = UFUNCS[name](*blocks)
        state.arrays[out_id] = (np.asarray(result), dist)
        return None

    if code == opcodes.FUSED:
        _code, program, in_ids, out_id, use_seamless = op
        blocks = []
        dist = None
        for array_id in in_ids:
            block, d = state.get(array_id)
            blocks.append(block)
            dist = d if dist is None else dist
        result = _eval_program(state, program, blocks, use_seamless)
        state.arrays[out_id] = (result, dist)
        return None

    if code == opcodes.REDIST:
        _code, src_id, dst_id, new_dist = op
        local, src_dist = state.get(src_id)
        moved = _redistribute_block(state, local, src_dist, new_dist)
        state.arrays[dst_id] = (moved, new_dist)
        return None

    if code == opcodes.TRANSPOSE:
        # axis permutation keeps every element on its worker: the new
        # distribution permutes the distributed axes the same way, so the
        # whole op is a local np.transpose -- zero communication
        _code, src_id, dst_id, axes_perm, new_dist = op
        local, _src_dist = state.get(src_id)
        state.arrays[dst_id] = (
            np.ascontiguousarray(np.transpose(local, axes_perm)), new_dist)
        return None

    if code == opcodes.SLICE:
        _code, src_id, dst_id, slices, new_dist = op
        local, src_dist = state.get(src_id)
        out = _apply_slice(state, local, src_dist, slices, new_dist)
        state.arrays[dst_id] = (out, new_dist)
        return None

    if code == opcodes.PLAN_STATS:
        return (state.plan_hits, state.plan_misses, len(state.plan_cache))

    if code == opcodes.SETITEM:
        _code, array_id, slices, value_spec = op
        local, dist = state.get(array_id)
        if not local.flags.writeable:
            # scattered/received blocks share read-only payload buffers
            # (one-copy rule); mutate a private copy
            local = local.copy()
            state.arrays[array_id] = (local, dist)
        w = state.index
        local_sl = []
        for ax, sl in enumerate(slices):
            if ax == dist.axis:
                local_sl.append(None)  # placeholder
            else:
                local_sl.append(sl)
        kept, _new_g = _slice_survivors(dist, w, slices[dist.axis])
        take = dist.axis_local_position(w, dist.axis, kept)
        local_sl[dist.axis] = take
        if value_spec[0] == "scalar":
            sl = list(local_sl)
            local[tuple(sl)] = value_spec[1]
        else:
            raise ValueError("only scalar setitem values are supported via "
                             "control messages; use local functions for "
                             "array-valued assignment")
        return None

    if code == opcodes.REDUCE:
        _code, array_id, op_name, axis = op[:4]
        local, dist = state.get(array_id)
        reducer = REDUCERS[op_name]
        if axis is None:
            if local.size == 0:
                return ("partial", None)
            return ("partial", reducer.reduce(local, axis=None))
        if len(dist.dist_axes) > 1:
            # grid: reduce locally, ship the tile with its remaining-axes
            # coordinates; the driver combines overlapping tiles
            part = reducer.reduce(local, axis=axis) if local.size else None
            coords = []
            for ax in range(dist.ndim):
                if ax == axis:
                    continue
                ids = dist.axis_indices(state.index, ax)
                coords.append(None if ids is None else ids)
            return ("tile", coords, part)
        if axis == dist.axis:
            part = reducer.reduce(local, axis=axis) if local.size else None
            return ("partial", part)
        # purely local reduction: result stays distributed, with the same
        # axis decomposition (expressed as an arbitrary distribution so
        # nonuniform block counts survive unchanged)
        reduced = reducer.reduce(local, axis=axis)
        new_shape = tuple(s for i, s in enumerate(dist.global_shape)
                          if i != axis)
        new_axis = dist.axis - (1 if axis < dist.axis else 0)
        lists = [dist.indices_for(v) for v in range(dist.nworkers)]
        new_dist = ArbitraryDistribution(new_shape, new_axis, lists,
                                         validate=False)
        out_id = op[4]
        state.arrays[out_id] = (reduced, new_dist)
        return ("stored", new_dist)

    if code == opcodes.CALL_LOCAL:
        _code, fname, arg_specs, kwarg_specs, out_id = op[:5]
        out_dist = op[5] if len(op) > 5 else None
        fn = state.registry[fname]
        args = []
        first_dist = None
        for spec in arg_specs:
            if spec[0] == "array":
                block, d = state.get(spec[1])
                args.append(block)
                first_dist = d if first_dist is None else first_dist
            else:
                args.append(spec[1])
        kwargs = {}
        for key, spec in kwarg_specs.items():
            if spec[0] == "array":
                block, d = state.get(spec[1])
                kwargs[key] = block
                first_dist = d if first_dist is None else first_dist
            else:
                kwargs[key] = spec[1]
        result = fn(*args, **kwargs)
        target = out_dist if out_dist is not None else first_dist
        if out_id is not None and isinstance(result, np.ndarray) and \
                target is not None and \
                result.shape == target.local_shape(state.index):
            state.arrays[out_id] = (result, target)
            return ("stored", target)
        return ("value", result)

    if code == opcodes.TRANSFORM:
        # apply a registered record-wise transform; the local length may
        # change (filter), so the driver fixes the distribution afterwards
        _code, src_id, dst_id, fname = op
        local, _dist = state.get(src_id)
        fn = state.registry[fname]
        result = np.asarray(fn(local))
        state.arrays[dst_id] = (result, None)
        return (int(result.shape[0]), result.dtype.str
                if result.dtype.names is None else result.dtype.descr)

    if code == opcodes.SET_DIST:
        _code, array_id, dist = op
        local, _old = state.get(array_id)
        expected = dist.local_shape(state.index)
        if tuple(local.shape) != tuple(expected):
            raise ValueError(f"stored block shape {local.shape} does not "
                             f"match assigned distribution {expected}")
        state.arrays[array_id] = (local, dist)
        return None

    if code == opcodes.GROUPBY:
        # shuffle rows by key hash over the worker comm, then aggregate
        _code, src_id, dst_id, key_field, agg_field, agg_op = op
        local, _dist = state.get(src_id)
        P = state.comm.size
        keys = local[key_field]
        dest = _key_hash(keys) % P
        outbound = [local[dest == v] for v in range(P)]
        received = state.comm.alltoall(outbound)
        mine = np.concatenate([r for r in received if len(r)]) \
            if any(len(r) for r in received) else local[:0]
        uniq, inverse = np.unique(mine[key_field], return_inverse=True)
        values = mine[agg_field]
        if agg_op == "count":
            agg = np.bincount(inverse, minlength=len(uniq)).astype(
                np.float64)
        elif agg_op == "sum":
            agg = np.bincount(inverse, weights=values.astype(np.float64),
                              minlength=len(uniq))
        elif agg_op == "mean":
            sums = np.bincount(inverse, weights=values.astype(np.float64),
                               minlength=len(uniq))
            cnts = np.bincount(inverse, minlength=len(uniq))
            agg = sums / np.maximum(cnts, 1)
        elif agg_op in ("min", "max"):
            fill = np.inf if agg_op == "min" else -np.inf
            agg = np.full(len(uniq), fill)
            ufn = np.minimum if agg_op == "min" else np.maximum
            ufn.at(agg, inverse, values.astype(np.float64))
        else:
            raise ValueError(f"unknown aggregation {agg_op!r}")
        out = np.empty(len(uniq), dtype=[("key", uniq.dtype),
                                         ("value", np.float64)])
        out["key"] = uniq
        out["value"] = agg
        state.arrays[dst_id] = (out, None)
        return (int(len(out)), out.dtype.descr)

    if code == opcodes.REGISTER_LOCAL:
        _code, name, spec = op
        state.registry[name] = _unship_function(spec)
        return None

    if code == opcodes.CHAOS_INSTALL:
        from ..chaos.core import ENGINE, FaultPlan
        ENGINE.install(FaultPlan.from_dict(op[1]))
        return None

    if code == opcodes.CHAOS_UNINSTALL:
        from ..chaos.core import ENGINE
        ENGINE.uninstall()
        return None

    if code == opcodes.CKPT:
        _code, version = op
        return _checkpoint(state, version)

    if code == opcodes.RESTORE:
        _code, version, old_indices, dead_indices, old_n = op
        return _restore(state, version, old_indices, dead_indices, old_n)

    if code == opcodes.DIST_SYNC:
        _code, ids = op
        return {array_id: state.arrays[array_id][1]
                for array_id in ids if array_id in state.arrays}

    if code == opcodes.SAVE:
        _code, array_id, pattern = op
        local, dist = state.get(array_id)
        np.save(pattern.format(rank=state.index), local)
        return None

    if code == opcodes.LOAD:
        _code, array_id, dist, dtype_str, pattern = op
        block = np.load(pattern.format(rank=state.index))
        expected = dist.local_shape(state.index)
        if block.shape != expected:
            raise ValueError(f"loaded block shape {block.shape} != expected "
                             f"{expected}")
        state.arrays[array_id] = (block.astype(np.dtype(dtype_str),
                                               copy=False), dist)
        return None

    raise ValueError(f"unknown opcode {code!r}")

"""Worker-node execution engine.

Each worker holds the local segments of every live distributed array and
executes control ops from the driver.  All bulk data movement happens here,
over the workers-only communicator -- the ODIN process never relays array
data (Fig. 1's "worker nodes can communicate directly with each other").
"""

from __future__ import annotations

import importlib
import marshal
import pickle
import sys
import types
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..mpi.comm import Intracomm
from ..obs import causal as _CZ
from ..trace import TRACER as _TR
from . import opcodes
from .distribution import (BlockDistribution, Distribution, axis_ids,
                           same_scheme)
from .periodic import PeriodicSet, Piece, intersect

__all__ = ["WorkerState", "execute_op", "UFUNCS"]

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
    full_comm: Optional[Intracomm] = None  # driver + workers (scatter path)
    arrays: Dict[int, Tuple[np.ndarray, Distribution]] = field(
        default_factory=dict)
    # communication plans built, one per redistribution or slice op
    plans_built: int = 0
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
        fn = _unship_function(fill_spec[1])
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
class _RedistPlan:
    """Precomputed communication schedule for one (src, dst) pair on one
    worker.

    Every take and place is one :class:`Piece` of local positions per
    axis in ``axes`` (the axes either side splits).  A source tile u and
    a destination worker v share the Cartesian product of their per-axis
    shares, so a pair's elements travel as one C-order block whose every
    axis lists its ids ascending -- the wire order both ends derive
    independently.  This worker holds its own source tile, and during
    recovery also its dead ring predecessor's; a peer is sent one packed
    block per tile it shares, a bare array when there is one.  ``flip``
    is the axis a negative-step slice places through reversed, or None.

    Plans are pure index metadata, so one plan serves every array with
    the same (src, dst) pair regardless of contents.
    """

    __slots__ = ("axes", "out_shape", "send", "recv", "self_pairs", "flip")

    def __init__(self, axes, out_shape, send, recv, self_pairs, flip):
        self.axes = axes              # the planned axes, ascending
        self.out_shape = out_shape    # dst.local_shape(w)
        self.send = send              # [(peer, [(tile, takes), ...]), ...]
        self.recv = recv              # [(peer, [(tile, places), ...]), ...]
        self.self_pairs = self_pairs  # [(tile, takes, places), ...]
        self.flip = flip

    def execute(self, state: WorkerState,
                local: Dict[int, np.ndarray]) -> np.ndarray:
        """Run the schedule on the blocks of the source tiles held here,
        keyed by tile."""
        comm = state.comm
        out = np.empty(self.out_shape,
                       dtype=next(iter(local.values())).dtype)
        view = out if self.flip is None else np.flip(out, self.flip)
        for u, takes, places in self.self_pairs:
            _place(view, self.axes, places,
                   _pack(local[u], self.axes, takes))
        sendobjs: List[Any] = [None] * comm.size
        for v, pairs in self.send:
            bufs = [_pack(local[u], self.axes, takes) for u, takes in pairs]
            sendobjs[v] = bufs[0] if len(bufs) == 1 else bufs
        received = comm.alltoall(sendobjs)
        for p, pairs in self.recv:
            got = received[p]
            for (_u, places), data in zip(pairs, [got] if len(pairs) == 1
                                          else got):
                _place(view, self.axes, places, data)
        return out


def _cut(axes, pieces, ndim):
    """The basic index of every piece that is one run, and the others."""
    cut = [slice(None)] * ndim
    rest = []
    for ax, piece in zip(axes, pieces):
        run = piece.run
        if run is None:
            rest.append((ax, piece))
        else:
            cut[ax] = run
    return tuple(cut), rest


def _pack(local: np.ndarray, axes, pieces) -> np.ndarray:
    """One pair's elements as a contiguous block: axes that are one run
    are cut as a view, the others packed one after another."""
    cut, rest = _cut(axes, pieces, local.ndim)
    view = local[cut]
    if not rest:
        return np.ascontiguousarray(view)
    for ax, piece in rest:
        view = piece.pack(view, ax)
    return view


def _place(out: np.ndarray, axes, pieces, data: np.ndarray) -> None:
    """Write one pair's block into the output: through views where each
    axis is one run or strided pieces, else one ``np.ix_`` assignment."""
    cut, rest = _cut(axes, pieces, out.ndim)
    view = out[cut]
    if not rest:
        view[...] = data
    elif len(rest) == 1:
        ax, piece = rest[0]
        piece.place(view, data, ax)
    else:
        index = [np.arange(n, dtype=np.int64) for n in view.shape]
        for ax, piece in rest:
            index[ax] = piece.positions()
        view[np.ix_(*index)] = data


def _image(s: PeriodicSet, start: int, step: int) -> PeriodicSet:
    """The source ids the destination ids *s* take when destination id k
    takes source id ``start + step*k``.  A slice lands on a block layout,
    so *s* is a range, and its image has period |step| and a one-residue
    window."""
    if (start, step) == (0, 1):
        return s
    if s.period != 1:
        raise ValueError("a slice must land on a block layout")
    if s.hi <= s.lo:
        return PeriodicSet(0, 0, 1, 0, 1)
    first, last = start + step * s.lo, start + step * (s.hi - 1)
    T = abs(step)
    return PeriodicSet(min(first, last), max(first, last) + 1, T, start % T,
                       start % T + 1)


def _preimage(ids: np.ndarray, start: int, step: int, m: int):
    """Positions in *ids* of the source ids that a destination id k < m
    takes, and those k."""
    k, r = np.divmod(ids - start, step)
    kept = np.flatnonzero((r == 0) & (k >= 0) & (k < m))
    return kept, k[kept]


def _intersect_each(mine: PeriodicSet, sets) -> List[Piece]:
    """``intersect(mine, s)`` for every s, once per distinct s."""
    memo: Dict[PeriodicSet, Piece] = {}
    out = []
    for s in sets:
        piece = memo.get(s)
        if piece is None:
            piece = memo[s] = intersect(mine, s)
        out.append(piece)
    return out


def _listed(pos: np.ndarray, gids: np.ndarray, keys: np.ndarray,
            other: Distribution, sets) -> List[Piece]:
    """Owner arithmetic along an axis one side splits irregularly: the
    local positions *pos*, which hold source ids *gids* (ids *keys* on
    *other*'s side), grouped by the tile of *other* that holds each --
    asked of ``other.owner_of`` where *other* is the irregular side, else
    tested against its periodic *sets* -- every group in ascending
    source id.  One mask per peer: O(n*P)."""
    if len(gids) > 1 and not bool((gids[1:] > gids[:-1]).all()):
        order = np.argsort(gids, kind="stable")
        pos, keys = pos[order], keys[order]
    if None in sets:
        owner = other.owner_of(keys)
        return [Piece([pos[owner == p]]) for p in range(len(sets))]
    return [Piece([pos[s.contains(keys)]]) for s in sets]


def _takes(src: Distribution, dst: Distribution, u: int, ax: int,
           peers: int, start: int, step: int) -> List[Piece]:
    """Along *ax*, tile u's positions of the ids each destination worker
    takes: ``intersect(S_u, image(D_v))``."""
    mine = src.axis_periodic(u, ax)
    theirs = [dst.axis_periodic(v, ax) for v in range(peers)]
    if mine is not None and None not in theirs:
        return _intersect_each(mine, [_image(s, start, step)
                                      for s in theirs])
    ids = axis_ids(src, u, ax)
    if (start, step) == (0, 1):
        return _listed(np.arange(len(ids)), ids, ids, dst, theirs)
    kept, k = _preimage(ids, start, step, dst.global_shape[ax])
    return _listed(kept, ids[kept], k, dst, theirs)


def _places(src: Distribution, dst: Distribution, w: int, ax: int,
            tiles: int, start: int, step: int) -> List[Piece]:
    """Along *ax*, worker w's output positions of the ids each source
    tile sends it: ``intersect(image(D_w), S_u)``, counted in the
    reversed output for a negative step."""
    mine = dst.axis_periodic(w, ax)
    theirs = [src.axis_periodic(u, ax) for u in range(tiles)]
    if mine is not None and None not in theirs:
        return _intersect_each(_image(mine, start, step), theirs)
    slots = axis_ids(dst, w, ax)
    gids = start + step * (slots[::-1] if step < 0 else slots)
    return _listed(np.arange(len(gids)), gids, gids, src, theirs)


def _pairs(per_axis: List[List[Piece]]) -> List[Optional[Tuple]]:
    """Per peer, its pieces on every axis, or None where it shares
    nothing."""
    return [pieces if all(p.size for p in pieces) else None
            for pieces in zip(*per_axis)]


def _build_redist_plan(state: WorkerState, src: Distribution,
                       dst: Distribution, start: int = 0, step: int = 1,
                       holders: Optional[List[int]] = None) -> _RedistPlan:
    """This worker's communication plan for one redistribution or slice.

    One rule for every layout: source tile u sends destination worker v,
    on every axis either side splits, the ids ``intersect(S_u, D_v)`` --
    taken at u's positions, placed at v's -- where an axis a side holds
    whole is ``PeriodicSet.full``.  Block, cyclic, block-cyclic and grid
    axes are periodic sets and are planned in closed form
    (:mod:`repro.odin.periodic`): each piece is a head, a strided tile
    and a tail, O(P + L) per worker (L = lcm of the two periods), never
    O(n).  An irregular axis (index lists, concatenations) uses owner
    arithmetic (:func:`_listed`), O(n*P).  Along the distributed axis
    destination id k takes source id ``start + step*k``: ``(0, 1)`` is a
    plain redistribution, anything else a slice.

    ``holders[u]`` is the worker holding source tile u: the identity for
    every op, recovery's ring-partner map after a shrink.  Both sides of
    every transfer derive the plan from the descriptors alone, so only
    array data crosses the wire -- no index lists.
    """
    w = state.index
    P = state.comm.size
    n = src.nworkers
    if holders is None:
        holders = range(n)
    axes = tuple(sorted(set(src.dist_axes) | set(dst.dist_axes)))
    # the affine map applies along the distributed axis only
    maps = [(start, step) if ax == src.axis else (0, 1) for ax in axes]
    tiles = [u for u in range(n) if holders[u] == w]
    takes = {u: _pairs([_takes(src, dst, u, ax, P, *m)
                        for ax, m in zip(axes, maps)]) for u in tiles}
    places = _pairs([_places(src, dst, w, ax, n, *m)
                     for ax, m in zip(axes, maps)])
    send = []
    for v in range(P):
        pairs = [(u, takes[u][v]) for u in tiles if takes[u][v] is not None]
        if v != w and pairs:
            send.append((v, pairs))
    recv = []
    for p in range(P):
        pairs = [(u, places[u]) for u in range(n)
                 if holders[u] == p and places[u] is not None]
        if p != w and pairs:
            recv.append((p, pairs))
    self_pairs = [(u, takes[u][w], places[u]) for u in tiles
                  if takes[u][w] is not None]
    return _RedistPlan(axes, dst.local_shape(w), send, recv, self_pairs,
                       src.axis if step < 0 else None)


def _redistribute_block(state: WorkerState, blocks: Dict[int, np.ndarray],
                        src: Distribution, dst: Distribution,
                        start: int = 0, step: int = 1,
                        holders: Optional[List[int]] = None) -> np.ndarray:
    """Move the local blocks of the source tiles this worker holds (keyed
    by tile) from distribution *src* to *dst*, slicing on the way for
    any ``(start, step)`` but ``(0, 1)``.  Every op builds its own
    plan."""
    plan = _build_redist_plan(state, src, dst, start, step, holders)
    state.plans_built += 1
    if _TR.enabled:
        with _TR.span("odin.worker", "redistribute.exchange",
                      worker=state.index):
            return plan.execute(state, blocks)
    return plan.execute(state, blocks)


def _apply_slice(state: WorkerState, local: np.ndarray, src: Distribution,
                 slices, new_dist: Distribution) -> np.ndarray:
    """Slice onto the block layout *new_dist*: every other axis is cut in
    place, and the distributed axis is a redistribution in which
    destination id k takes source id ``start + step*k``."""
    ax = src.axis
    start, _stop, step = slices[ax].indices(src.axis_length)
    cut = tuple(slice(None) if a == ax else sl for a, sl in enumerate(slices))
    return _redistribute_block(state, {state.index: local[cut]}, src,
                               new_dist, start, step)


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
# group-by: combine -> shuffle -> merge
# ----------------------------------------------------------------------
GROUP_OPS = ("count", "sum", "mean", "min", "max")
# integer keys whose range is at most this many times the block length
# are grouped by a dense bincount; any other key goes through np.unique
_DENSE_SPAN = 4


def _fold(index: np.ndarray, size: int, values: Optional[np.ndarray],
          agg_op: str) -> np.ndarray:
    """Per-group float64 sum, min or max of *values* by group *index*
    (zeros for ``count``, which needs no values)."""
    if agg_op in ("min", "max"):
        acc = np.full(size, np.inf if agg_op == "min" else -np.inf)
        # ufunc.at propagates NaN, as NumPy's own min/max do, but it
        # also warns, which must not become an error on one worker only
        with np.errstate(invalid="ignore"):
            (np.minimum if agg_op == "min" else np.maximum).at(
                acc, index, values)
        return acc
    if agg_op == "count":
        return np.zeros(size)
    # bincount of no rows is an int64 array, whatever the weights
    return np.bincount(index, weights=values,
                       minlength=size).astype(np.float64, copy=False)


def _columns(**cols: np.ndarray) -> np.ndarray:
    """A structured array of equal-length columns, in argument order."""
    out = np.empty(len(cols["key"]),
                   dtype=[(name, col.dtype) for name, col in cols.items()])
    for name, col in cols.items():
        out[name] = col
    return out


def _combine(keys: np.ndarray, values: Optional[np.ndarray],
             agg_op: str) -> np.ndarray:
    """One block reduced to one ``(key, acc, count)`` partial per
    distinct key, keys ascending.  Nothing here may raise for some
    blocks and not others: the peers are about to enter the shuffle."""
    n = len(keys)
    if n and keys.dtype.kind in "iu":
        lo, hi = keys.min(), keys.max()
        span = int(hi) - int(lo) + 1
        if span <= _DENSE_SPAN * n:
            # keys - lo wraps in a narrow dtype; its unsigned view is exact
            index = keys - lo
            if index.dtype != np.intp:
                index = index.view(f"u{index.itemsize}").astype(np.intp)
            count = np.bincount(index, minlength=span)
            acc = _fold(index, span, values, agg_op)
            present = np.flatnonzero(count)
            return _columns(key=present.astype(keys.dtype) + lo,
                            acc=acc[present], count=count[present])
    ukeys, index = np.unique(keys, return_inverse=True)
    return _columns(key=ukeys, acc=_fold(index, len(ukeys), values, agg_op),
                    count=np.bincount(index, minlength=len(ukeys)))


def _merge(partials: np.ndarray, agg_op: str) -> np.ndarray:
    """The owner's rows from its peers' partials: one ``(key, value)``
    per distinct key, keys ascending."""
    keys, index = np.unique(partials["key"], return_inverse=True)
    count = np.zeros(len(keys), dtype=np.int64)
    np.add.at(count, index, partials["count"])
    if agg_op == "count":
        value = count.astype(np.float64)
    else:
        value = _fold(index, len(keys), partials["acc"], agg_op)
        if agg_op == "mean":
            value /= np.maximum(count, 1)
    return _columns(key=keys, value=value)


def _group_aggregate(state: WorkerState, local: np.ndarray, key_field: str,
                     agg_field: str, agg_op: str) -> np.ndarray:
    """Combine this block, ship each key's partial to the worker its
    ``_key_hash`` names, merge what arrives."""
    if agg_op not in GROUP_OPS:
        raise ValueError(f"unknown aggregation {agg_op!r}")
    values = None if agg_op == "count" else \
        local[agg_field].astype(np.float64)
    part = _combine(local[key_field], values, agg_op)
    P = state.comm.size
    dest = _key_hash(part["key"]) % P
    received = state.comm.alltoall([part[dest == v] for v in range(P)])
    return _merge(np.concatenate(received), agg_op)


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
    Every array, tabular ones included, is one redistribution from its
    old layout over ``old_n`` tiles -- each held by its old worker or,
    for a dead one, by that worker's partner -- to the same scheme over
    the survivors.  A tabular array (no distribution) is block-with-
    counts over the old tiles, re-dealt as uniform blocks; one small
    allgather of per-tile row counts describes it.  Returns the number
    of restored arrays.
    """
    own, partner, partner_of = state.checkpoints.get(
        version, ({}, {}, None))
    dead = set(dead_indices)
    for d in dead:
        if (d + 1) % old_n in dead:
            raise RuntimeError(
                f"unrecoverable: worker {d} and its checkpoint partner "
                f"{(d + 1) % old_n} both failed")
    new_of = {old: j for j, old in enumerate(old_indices)}
    holders = [new_of[(t + 1) % old_n] if t in dead else new_of[t]
               for t in range(old_n)]
    # old tile -> the snapshot I hold for it
    snaps = {old_indices[state.index]: own}
    if partner_of in dead:
        snaps[partner_of] = partner

    new_n = len(old_indices)
    state.arrays.clear()
    tabular = sorted(aid for aid, (_block, dist) in own.items()
                     if dist is None)
    rows: Dict[int, Dict[int, int]] = {}    # old tile -> array -> rows
    if tabular:
        for held in state.comm.allgather(
                {t: {aid: len(snap[aid][0]) for aid in tabular}
                 for t, snap in snaps.items()}):
            rows.update(held)
    for array_id in sorted(own):
        block, old_dist = own[array_id]
        if old_dist is None:
            counts = [rows[t][array_id] for t in range(old_n)]
            shape = (sum(counts),) + block.shape[1:]
            old_dist = BlockDistribution(shape, 0, old_n, counts=counts)
            new_dist = BlockDistribution(shape, 0, new_n)
        else:
            new_dist = old_dist.with_nworkers(new_n)
        moved = _redistribute_block(
            state, {t: snap[array_id][0] for t, snap in snaps.items()},
            old_dist, new_dist, holders=holders)
        state.arrays[array_id] = (
            moved, None if array_id in tabular else new_dist)

    if _TR.enabled:
        _TR.instant("recover", "worker.restore", worker=state.index,
                    arrays=len(own))
    return len(own)


# ----------------------------------------------------------------------
# function shipping: every op that runs a callable carries it by value
# ----------------------------------------------------------------------
def _ship_function(fn: Callable) -> bytes:
    """The wire form of *fn*, taken now, for CALL_LOCAL, TRANSFORM and
    CREATE's ``("fromfunction", ...)`` fill spec.

    A Python function ships as its marshalled code, defaults, keyword
    defaults and closure-cell contents; a cell holding a function ships
    by the same rule (recursion included), into one table.  The worker
    rebinds the code over ``sys.modules[fn.__module__]``.  Anything else
    ships by pickle reference.  Pickling happens here, on the driver: an
    unpicklable cell is refused before any message is sent, and a later
    change to a captured object cannot reach the op or its replay.
    """
    table: List[Optional[tuple]] = []
    slots: Dict[int, int] = {}

    def ship(value) -> tuple:
        if not isinstance(value, types.FunctionType):
            return ("value", value)
        if id(value) not in slots:
            slots[id(value)] = len(table)
            table.append(None)
            table[slots[id(value)]] = (
                value.__module__, value.__qualname__,
                marshal.dumps(value.__code__), value.__defaults__,
                value.__kwdefaults__,
                tuple(ship(c.cell_contents) for c in value.__closure__ or ()))
        return ("fn", slots[id(value)])

    try:
        return pickle.dumps((ship(fn), table),
                            protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise TypeError(f"cannot ship {fn!r} to the workers: {exc}") from exc


def _unship_function(spec: bytes) -> Callable:
    """Rebuild the callable :func:`_ship_function` shipped."""
    (kind, root), table = pickle.loads(spec)
    built = []
    for module, qualname, code, defaults, kwdefaults, cells in table:
        try:
            mod = sys.modules.get(module) or importlib.import_module(module)
        except ImportError as exc:
            raise ImportError(
                f"cannot rebuild function {qualname!r} on a worker: its "
                f"module {module!r} does not import there ({exc})",
                name=module) from exc
        fn = types.FunctionType(marshal.loads(code), mod.__dict__,
                                qualname.rpartition(".")[2], defaults,
                                tuple(types.CellType() for _ in cells))
        fn.__qualname__, fn.__kwdefaults__ = qualname, kwdefaults
        built.append(fn)
    for fn, entry in zip(built, table):
        for cell, (tag, value) in zip(fn.__closure__ or (), entry[-1]):
            cell.cell_contents = built[value] if tag == "fn" else value
    return built[root] if kind == "fn" else root


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def execute_op(state: WorkerState, op: tuple) -> Any:
    """Execute one control op; each op becomes one ``odin.worker`` span
    (tagged with the causal op_id/epoch_id of its EPOCH record)."""
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
        for ax, g in enumerate(index_tuple):
            mine = dist.axis_periodic(state.index, ax)
            if mine is None:    # irregular layout: scan the owned ids
                pos = np.flatnonzero(dist.axis_indices(state.index, ax) == g)
            elif mine.lo <= g < mine.hi and \
                    mine.wlo <= g % mine.period < mine.whi:
                pos = (mine.below(g) - mine.below(mine.lo),)
            else:
                pos = ()
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
        moved = _redistribute_block(state, {state.index: local}, src_dist,
                                    new_dist)
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
        return state.plans_built

    if code == opcodes.SETITEM:
        _code, array_id, slices, value_spec = op
        local, dist = state.get(array_id)
        if not local.flags.writeable:
            # scattered/received blocks share read-only payload buffers
            # (one-copy rule); mutate a private copy
            local = local.copy()
            state.arrays[array_id] = (local, dist)
        ax = dist.axis
        ids = range(*slices[ax].indices(dist.axis_length))
        mine = dist.periodic(state.index)
        if mine is None:
            kept = Piece([_preimage(dist.indices_for(state.index), ids.start,
                                    ids.step, len(ids))[0]])
        else:   # what a slice plan takes from me, for every destination
            kept = intersect(mine, _image(PeriodicSet(0, len(ids), 1, 0, 1),
                                          ids.start, ids.step))
        if value_spec[0] == "scalar":
            view = local[tuple(slice(None) if a == ax else sl
                               for a, sl in enumerate(slices))]
            shape = list(view.shape)
            shape[ax] = kept.size
            kept.place(view, np.broadcast_to(value_spec[1], shape), ax)
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
        # purely local reduction: the result stays distributed by the
        # same scheme, every worker keeping its ids
        reduced = reducer.reduce(local, axis=axis)
        new_shape = tuple(s for i, s in enumerate(dist.global_shape)
                          if i != axis)
        new_axis = dist.axis - (1 if axis < dist.axis else 0)
        new_dist = same_scheme(dist, new_shape, new_axis)
        out_id = op[4]
        state.arrays[out_id] = (reduced, new_dist)
        return ("stored", new_dist)

    if code == opcodes.CALL_LOCAL:
        _code, fn_spec, arg_specs, kwarg_specs, out_id, out_dist = op
        fn = _unship_function(fn_spec)
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
        # apply a shipped record-wise transform; the local length may
        # change (filter), so the driver fixes the distribution afterwards
        _code, src_id, dst_id, fn_spec = op
        local, _dist = state.get(src_id)
        fn = _unship_function(fn_spec)
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
        # combine per key, shuffle the partials by key hash, merge
        _code, src_id, dst_id, key_field, agg_field, agg_op = op
        local, _dist = state.get(src_id)
        out = _group_aggregate(state, local, key_field, agg_field, agg_op)
        state.arrays[dst_id] = (out, None)
        return (int(len(out)), out.dtype.descr)

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

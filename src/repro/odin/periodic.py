"""Closed-form ownership sets and the strided pieces planned from them.

Block, cyclic and block-cyclic layouts are periodic.  Worker w of such a
layout owns the global ids g of a range ``[lo, hi)`` whose residue
``g % T`` falls in one window ``[wlo, whi)`` of the period T:

- block: ``T = 1``, window ``[0, 1)``, the range is w's own block;
- cyclic: ``T = P``, window ``[w, w + 1)``, the range is the whole axis;
- block-cyclic(b): ``T = P*b``, window ``[w*b, (w + 1)*b)``, whole axis.

Every worker stores its ids ascending, so the local position of an owned
id is the number of owned ids below it -- a closed form.

The ids two such sets share are periodic with ``L = lcm(T1, T2)``,
clipped to the overlap of the two ranges.  One period of the sparser
set is enumerated and tested against the denser set's window to find
the offsets both own; from period to period the local positions then
advance by a fixed stride ``Lp`` (the ids one side owns per period).
The positions of a whole intersection are therefore a head, a tile --
``local[start:start + k*Lp].reshape(k, Lp)[:, sel]`` -- and a tail, and
a piece costs O(1 + L/P) index arithmetic, never O(n).  When the range
overlap spans fewer than two periods the shared ids are enumerated
directly, which is no worse than an index list.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

__all__ = ["PeriodicSet", "Piece", "intersect", "overlap"]


class PeriodicSet(NamedTuple):
    """Ids g in ``[lo, hi)`` with ``wlo <= g % period < whi``."""

    lo: int
    hi: int
    period: int
    wlo: int
    whi: int

    @classmethod
    def full(cls, n: int) -> "PeriodicSet":
        """Every id of an axis of length n, at its own position."""
        return cls(0, n, 1, 0, 1)

    def below(self, x: int) -> int:
        """Ids of the unclipped periodic set below x."""
        width = self.whi - self.wlo
        q, r = divmod(x, self.period)
        return q * width + min(max(r - self.wlo, 0), width)

    def count(self) -> int:
        return max(self.below(self.hi) - self.below(self.lo), 0)

    def nth(self, k: int) -> int:
        """The k-th id of the set in ascending order (its id at local
        position k), in O(1)."""
        if not 0 <= k < self.count():
            raise IndexError(f"position {k} outside a set of "
                             f"{self.count()} ids")
        q, r = divmod(self.below(self.lo) + k, self.whi - self.wlo)
        return q * self.period + self.wlo + r

    def contains(self, ids: np.ndarray) -> np.ndarray:
        """Which elements of an int64 array the set holds."""
        return (ids >= self.lo) & (ids < self.hi) & _member(self, ids)

    def below_each(self, x: np.ndarray) -> np.ndarray:
        """:meth:`below` of every element of an int64 array."""
        width = self.whi - self.wlo
        q, r = np.divmod(x, self.period)
        return q * width + np.clip(r - self.wlo, 0, width)


# ----------------------------------------------------------------------
# segments: one stretch of a piece's local positions, in wire order
# ----------------------------------------------------------------------
class _Idx:
    """Positions with no stride: an index array."""

    __slots__ = ("index", "size")

    def __init__(self, index: np.ndarray):
        self.index, self.size = index, len(index)

    def positions(self) -> np.ndarray:
        return self.index

    def gather(self, src: np.ndarray, out: np.ndarray) -> None:
        out[...] = src[self.index]

    def scatter(self, out: np.ndarray, data: np.ndarray) -> None:
        out[self.index] = data


class _Run(_Idx):
    """``size`` positions from ``start`` by ``step`` > 0: a basic slice."""

    __slots__ = ("start", "step")

    def __init__(self, start: int, size: int, step: int = 1):
        self.start, self.size, self.step = int(start), int(size), int(step)
        self.index = slice(self.start,
                           self.start + (self.size - 1) * self.step + 1,
                           self.step)

    def positions(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.size, dtype=np.int64)

    def extend(self, nxt: "_Run") -> Optional["_Run"]:
        """This run followed by *nxt* as one run, if they form one."""
        gap = nxt.start - (self.start + (self.size - 1) * self.step)
        if gap <= 0 or any(run.size > 1 and run.step != gap
                           for run in (self, nxt)):
            return None
        return _Run(self.start, self.size + nxt.size, gap)


class _Tile:
    """k periods of ``period`` positions from ``start``, keeping the
    offsets ``sel`` (a slice or an index array) of each."""

    __slots__ = ("start", "k", "period", "sel", "nsel", "size")

    def __init__(self, start: int, k: int, period: int,
                 sel: Union[slice, np.ndarray], nsel: int):
        self.start, self.k, self.period = int(start), int(k), int(period)
        self.sel, self.nsel, self.size = sel, int(nsel), int(k) * int(nsel)

    def _rows(self, a: np.ndarray) -> np.ndarray:
        # splitting one axis in two is always a view, never a copy
        return a[self.start:self.start + self.k * self.period].reshape(
            (self.k, self.period) + a.shape[1:])

    def positions(self) -> np.ndarray:
        sel = np.arange(self.period, dtype=np.int64)[self.sel]
        rows = self.start + self.period * np.arange(self.k, dtype=np.int64)
        return (rows[:, None] + sel).ravel()

    def gather(self, src: np.ndarray, out: np.ndarray) -> None:
        out.reshape((self.k, self.nsel) + out.shape[1:])[...] = \
            self._rows(src)[:, self.sel]

    def scatter(self, out: np.ndarray, data: np.ndarray) -> None:
        self._rows(out)[:, self.sel] = data.reshape(
            (self.k, self.nsel) + data.shape[1:])


def _progression(pos: np.ndarray):
    """A non-empty position array as one ascending run, else as-is."""
    if len(pos) == 1:
        return _Run(pos[0], 1)
    step = int(pos[1] - pos[0])
    if step > 0 and bool((pos[1:] - pos[:-1] == step).all()):
        return _Run(pos[0], len(pos), step)
    return _Idx(pos)


class Piece:
    """The local positions of one plan piece along one axis, in wire
    order (ascending global id), as runs, tiles and index arrays.

    ``pack`` copies them out of a local block into a new contiguous
    array and ``place`` writes a received array back to them, both
    through strided views wherever the positions have a stride.
    """

    __slots__ = ("segs", "size")

    def __init__(self, parts: Sequence = ()):
        segs = []
        for part in parts:
            if isinstance(part, np.ndarray):
                if not len(part):
                    continue
                part = _progression(part)
            if isinstance(part, _Run) and segs and isinstance(segs[-1], _Run):
                joined = segs[-1].extend(part)
                if joined is not None:
                    segs[-1] = joined
                    continue
            segs.append(part)
        self.segs = tuple(segs)
        self.size = sum(seg.size for seg in segs)

    @property
    def run(self) -> Optional[slice]:
        """The positions as one basic slice, when they form one run."""
        if len(self.segs) == 1 and type(self.segs[0]) is _Run:
            return self.segs[0].index
        return None

    def positions(self) -> np.ndarray:
        if not self.segs:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([seg.positions() for seg in self.segs])

    def pack(self, local: np.ndarray, axis: int) -> np.ndarray:
        if len(self.segs) == 1 and type(self.segs[0]) is _Idx:
            return np.take(local, self.segs[0].index, axis=axis)
        shape = local.shape[:axis] + (self.size,) + local.shape[axis + 1:]
        buf = np.empty(shape, dtype=local.dtype)
        src, out = (local, buf) if axis == 0 else \
            (np.moveaxis(local, axis, 0), np.moveaxis(buf, axis, 0))
        at = 0
        for seg in self.segs:
            seg.gather(src, out[at:at + seg.size])
            at += seg.size
        return buf

    def place(self, out: np.ndarray, data: np.ndarray, axis: int) -> None:
        if axis:
            out, data = np.moveaxis(out, axis, 0), np.moveaxis(data, axis, 0)
        at = 0
        for seg in self.segs:
            seg.scatter(out, data[at:at + seg.size])
            at += seg.size


# ----------------------------------------------------------------------
# intersection
# ----------------------------------------------------------------------
def _owned(s: PeriodicSet, a: int, e: int) -> np.ndarray:
    """Ids of the unclipped periodic set *s* in ``[a, e)``, ascending."""
    if s.whi - s.wlo == s.period:
        return np.arange(a, e, dtype=np.int64)
    j = np.arange(a // s.period, (e - 1) // s.period + 1,
                  dtype=np.int64) * s.period
    starts = np.maximum(j + s.wlo, a)
    lens = np.maximum(np.minimum(j + s.whi, e) - starts, 0)
    total = int(lens.sum())
    # concatenated aranges: each run's ids are its start + a running count
    shift = starts - (np.cumsum(lens) - lens)
    return np.arange(total, dtype=np.int64) + np.repeat(shift, lens)


def _member(s: PeriodicSet, ids: np.ndarray) -> np.ndarray:
    r = ids % s.period
    return (r >= s.wlo) & (r < s.whi)


def _local(s: PeriodicSet, ids: np.ndarray, base: int) -> np.ndarray:
    """Local positions of ids *s* owns (base = ``s.below(s.lo)``)."""
    q, r = np.divmod(ids, s.period)
    return q * (s.whi - s.wlo) + (r - (s.wlo + base))


def _tile(start: int, k: int, period: int, sel: np.ndarray):
    """The tile segment, as a run wherever the kept offsets allow."""
    s = _progression(sel)
    if not isinstance(s, _Run):
        return _Tile(start, k, period, sel, len(sel))
    if s.size == 1:
        return _Run(start + s.start, k, period)
    if s.size * s.step == period:       # the stride carries on across rows
        return _Run(start + s.start, k * s.size, s.step)
    if k == 1:
        return _Run(start + s.start, s.size, s.step)
    return _Tile(start, k, period, s.index, s.size)


def intersect(mine: PeriodicSet, other: PeriodicSet) -> Piece:
    """*mine*'s local positions of the ids both sets own, ascending."""
    a, e = max(mine.lo, other.lo), min(mine.hi, other.hi)
    if a >= e:
        return Piece()
    L = math.lcm(mine.period, other.period)
    base = mine.below(mine.lo)
    # enumerate the sparser set and test membership in the denser one
    sparse, dense = mine, other
    if (other.whi - other.wlo) * mine.period < \
            (mine.whi - mine.wlo) * other.period:
        sparse, dense = other, mine
    if e - a < 2 * L:
        ids = _owned(sparse, a, e)
        return Piece([_local(mine, ids[_member(dense, ids)], base)])
    # the sparse side's ids in one period [0, L), and those both own
    ring = (np.arange(0, L, sparse.period, dtype=np.int64)[:, None]
            + np.arange(sparse.wlo, sparse.whi, dtype=np.int64)).ravel()
    shared = _member(dense, ring)
    offsets = ring[shared]
    if not len(offsets):
        return Piece()
    # ring[i] is mine's i-th id of the period when mine is the sparse side
    sel = np.flatnonzero(shared) if sparse is mine else \
        _local(mine, offsets, 0)
    k0, k1 = -(-a // L), e // L               # full periods [k0*L, k1*L)
    parts = []
    if a < k0 * L:
        head = (k0 - 1) * L + offsets
        parts.append(_local(mine, head[head >= a], base))
    parts.append(_tile(mine.below(k0 * L) - base, k1 - k0,
                       L // mine.period * (mine.whi - mine.wlo), sel))
    if k1 * L < e:
        tail = k1 * L + offsets
        parts.append(_local(mine, tail[tail < e], base))
    return Piece(parts)


# ----------------------------------------------------------------------
# counting
# ----------------------------------------------------------------------
def _count_in(walk: PeriodicSet, other: PeriodicSet, lo: int,
              hi: int) -> int:
    """Ids of both unclipped sets in ``[lo, hi)``: *walk*'s windows
    there, each counted against *other* in closed form."""
    if lo >= hi:
        return 0
    if walk.whi - walk.wlo == walk.period:      # every id: one window
        starts = np.array([lo], dtype=np.int64)
        ends = np.array([hi], dtype=np.int64)
    else:
        j = np.arange(lo // walk.period, (hi - 1) // walk.period + 1,
                      dtype=np.int64) * walk.period
        starts = np.clip(j + walk.wlo, lo, hi)
        ends = np.clip(j + walk.whi, lo, hi)
    return int((other.below_each(ends) - other.below_each(starts)).sum())


def overlap(a: PeriodicSet, b: PeriodicSet) -> int:
    """How many ids both sets own, without listing any.

    The side with the longer period is walked one window at a time, and
    only over one period L = lcm of both plus the partial periods at the
    ends, so the cost is O(min(T_short, n / T_long)) windows: at most
    O(sqrt(n)), however the two layouts are shaped.
    """
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo >= hi:
        return 0
    walk, other = (a, b) if a.period >= b.period else (b, a)
    if other.whi - other.wlo == other.period:   # a range: walk it
        walk, other = other, walk
    L = math.lcm(a.period, b.period)
    k0, k1 = -(-lo // L), hi // L                # full periods [k0*L, k1*L)
    if k1 <= k0:
        return _count_in(walk, other, lo, hi)
    return ((k1 - k0) * _count_in(walk, other, 0, L)
            + _count_in(walk, other, lo, k0 * L)
            + _count_in(walk, other, k1 * L, hi))

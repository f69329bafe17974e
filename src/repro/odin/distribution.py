"""Array distributions: how a global N-D array is split over workers.

Paper section III-A: creation routines "take optional arguments to control
the distribution": which nodes, which dimension, nonuniform sections, and
"either block, cyclic, block-cyclic, or another arbitrary global-to-local
index mapping".  All four are here, parameterized by the distributed axis.

A distribution answers purely index-arithmetic questions (no
communication): which global indices along each axis live on worker *w*,
in which local order -- as a closed-form periodic set wherever the
layout is regular -- and, for a single-axis layout, who owns a given
global index.  The redistribution planner in :mod:`repro.odin.worker`
is built on those answers.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .periodic import PeriodicSet, overlap

__all__ = ["Distribution", "BlockDistribution", "CyclicDistribution",
           "BlockCyclicDistribution", "ArbitraryDistribution",
           "GridDistribution", "ConcatDistribution", "make_distribution",
           "same_scheme"]


class Distribution:
    """Base class: a single-axis decomposition of a global shape."""

    kind = "abstract"

    def __init__(self, global_shape: Sequence[int], axis: int,
                 nworkers: int):
        self.global_shape = tuple(int(s) for s in global_shape)
        if not self.global_shape:
            raise ValueError("zero-dimensional arrays are not distributed")
        self.axis = int(axis) % len(self.global_shape)
        self.nworkers = int(nworkers)

    # -- interface ------------------------------------------------------
    def indices_for(self, worker: int) -> np.ndarray:
        """Global indices along the distributed axis owned by *worker*,
        in local storage order."""
        raise NotImplementedError

    def owner_of(self, global_idx: np.ndarray) -> np.ndarray:
        """Owning worker of each global index along the distributed axis."""
        raise NotImplementedError

    def local_position(self, global_idx: np.ndarray) -> np.ndarray:
        """Local (storage) position of each global index on its owner."""
        raise NotImplementedError

    # -- derived --------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.global_shape)

    @property
    def axis_length(self) -> int:
        return self.global_shape[self.axis]

    def periodic(self, worker: int) -> Optional[PeriodicSet]:
        """*worker*'s ids along the distributed axis as a closed-form
        periodic set (stored ascending), or None for an irregular
        layout."""
        return None

    def local_count(self, worker: int) -> int:
        s = self.periodic(worker)
        return len(self.indices_for(worker)) if s is None else s.count()

    def local_shape(self, worker: int) -> Tuple[int, ...]:
        shape = list(self.global_shape)
        shape[self.axis] = self.local_count(worker)
        return tuple(shape)

    def counts(self) -> List[int]:
        return [self.local_count(w) for w in range(self.nworkers)]

    def same_as(self, other: "Distribution") -> bool:
        """Conformability test: identical global shape and, worker by
        worker, the same local shape holding the same elements at the
        same positions (paper III-D: binary ufuncs are 'trivially
        parallelizable' exactly in this case).  Symmetric, whatever the
        two classes: compared axis by axis, in closed form wherever both
        sides are periodic along that axis."""
        if self.global_shape != other.global_shape or \
                self.nworkers != other.nworkers:
            return False
        ka, kb = self.cache_key(), other.cache_key()
        if ka is not None and ka == kb:
            # equal keys guarantee an identical index mapping; unequal
            # keys prove nothing (block vs 1-axis grid), so fall through
            return True
        shapes = [self.local_shape(w) for w in range(self.nworkers)]
        if shapes != [other.local_shape(w) for w in range(self.nworkers)]:
            return False
        # an empty tile holds nothing, whatever its ids on other axes
        held = [w for w, shape in enumerate(shapes) if 0 not in shape]
        for ax in range(self.ndim):
            mine = [self.axis_periodic(w, ax) for w in held]
            theirs = [other.axis_periodic(w, ax) for w in held]
            if any(s is None for s in mine + theirs):
                if not all(np.array_equal(axis_ids(self, w, ax),
                                          axis_ids(other, w, ax))
                           for w in held):
                    return False
            elif not _same_sets(mine, theirs):
                return False
        return True

    def with_shape(self, global_shape: Sequence[int]) -> "Distribution":
        """Same scheme applied to a different global shape."""
        raise NotImplementedError

    def with_nworkers(self, nworkers: int) -> "Distribution":
        """Same scheme over a different worker count.

        This is the remap recovery applies when a communicator shrinks:
        each surviving array's target distribution is its old scheme
        re-balanced over the survivors.  Schemes with worker-count-bound
        parameters (explicit counts, arbitrary index lists) rebalance
        deterministically rather than erroring -- any valid partition is
        correct because recovery redistributes/replays the content onto
        whatever this returns.
        """
        raise NotImplementedError

    def cache_key(self):
        """Hashable value identifying the index mapping, or None when the
        distribution cannot be cheaply keyed.  Two distributions with
        equal keys must assign every global index to the same worker at
        the same local position (:meth:`same_as` relies on it)."""
        return None

    # -- multi-axis protocol (used by the redistribution engine) --------
    @property
    def dist_axes(self) -> Tuple[int, ...]:
        """The axes this distribution actually splits."""
        return (self.axis,)

    def axis_indices(self, worker: int, axis: int) -> Optional[np.ndarray]:
        """Global indices along *axis* owned by *worker*, or None when
        the axis is not distributed (the worker holds its full extent)."""
        if axis == self.axis:
            return self.indices_for(worker)
        return None

    def axis_periodic(self, worker: int,
                      axis: int) -> Optional[PeriodicSet]:
        """:meth:`periodic` along any axis (a full-extent axis is the
        whole range), or None where the ownership is irregular."""
        if axis == self.axis:
            return self.periodic(worker)
        return PeriodicSet.full(self.global_shape[axis])

    def global_selector(self, worker: int):
        """Open-mesh indexer placing this worker's block in a global array:
        ``global_arr[dist.global_selector(w)] = local_block``."""
        return np.ix_(*(axis_ids(self, worker, ax)
                        for ax in range(self.ndim)))

    def __repr__(self):
        return (f"{type(self).__name__}(shape={self.global_shape}, "
                f"axis={self.axis}, workers={self.nworkers})")

    def __eq__(self, other):
        return isinstance(other, Distribution) and self.same_as(other)


class BlockDistribution(Distribution):
    """Contiguous blocks, uniform by default or with explicit counts
    (the paper's "apportion nonuniform sections of an array to each
    node")."""

    kind = "block"

    def __init__(self, global_shape, axis: int, nworkers: int,
                 counts: Optional[Sequence[int]] = None):
        super().__init__(global_shape, axis, nworkers)
        n = self.axis_length
        if counts is None:
            base = n // nworkers
            extra = n % nworkers
            counts = [base + (1 if w < extra else 0)
                      for w in range(nworkers)]
        counts = [int(c) for c in counts]
        if len(counts) != nworkers or sum(counts) != n:
            raise ValueError(f"counts {counts} do not partition axis of "
                             f"length {n} over {nworkers} workers")
        self._counts = counts
        self._offsets = np.zeros(nworkers + 1, dtype=np.int64)
        np.cumsum(counts, out=self._offsets[1:])

    @property
    def uniform(self) -> bool:
        return len(set(self._counts[:-1] or [0])) <= 1

    def indices_for(self, worker: int) -> np.ndarray:
        return np.arange(self._offsets[worker], self._offsets[worker + 1],
                         dtype=np.int64)

    def owner_of(self, global_idx) -> np.ndarray:
        gi = np.asarray(global_idx, dtype=np.int64)
        return (np.searchsorted(self._offsets, gi, side="right") - 1) \
            .astype(np.int64)

    def local_position(self, global_idx) -> np.ndarray:
        gi = np.asarray(global_idx, dtype=np.int64)
        return gi - self._offsets[self.owner_of(gi)]

    def local_count(self, worker: int) -> int:
        return self._counts[worker]

    def periodic(self, worker: int) -> PeriodicSet:
        return PeriodicSet(int(self._offsets[worker]),
                           int(self._offsets[worker + 1]), 1, 0, 1)

    def with_shape(self, global_shape) -> "BlockDistribution":
        return BlockDistribution(global_shape, self.axis, self.nworkers)

    def with_nworkers(self, nworkers: int) -> "BlockDistribution":
        # explicit counts are bound to the old worker count; rebalance
        return BlockDistribution(self.global_shape, self.axis, nworkers)

    def cache_key(self):
        return ("block", self.global_shape, self.axis, self.nworkers,
                tuple(self._counts))


class CyclicDistribution(Distribution):
    """Round-robin along the axis: index i lives on worker i % P."""

    kind = "cyclic"

    def indices_for(self, worker: int) -> np.ndarray:
        return np.arange(worker, self.axis_length, self.nworkers,
                         dtype=np.int64)

    def owner_of(self, global_idx) -> np.ndarray:
        gi = np.asarray(global_idx, dtype=np.int64)
        return gi % self.nworkers

    def local_position(self, global_idx) -> np.ndarray:
        gi = np.asarray(global_idx, dtype=np.int64)
        return gi // self.nworkers

    def periodic(self, worker: int) -> PeriodicSet:
        return PeriodicSet(0, self.axis_length, self.nworkers, worker,
                           worker + 1)

    def with_shape(self, global_shape) -> "CyclicDistribution":
        return CyclicDistribution(global_shape, self.axis, self.nworkers)

    def with_nworkers(self, nworkers: int) -> "CyclicDistribution":
        return CyclicDistribution(self.global_shape, self.axis, nworkers)

    def cache_key(self):
        return ("cyclic", self.global_shape, self.axis, self.nworkers)


class BlockCyclicDistribution(Distribution):
    """Blocks of *block_size* dealt round-robin (ScaLAPACK-style)."""

    kind = "block-cyclic"

    def __init__(self, global_shape, axis: int, nworkers: int,
                 block_size: int = 1):
        super().__init__(global_shape, axis, nworkers)
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.block_size = int(block_size)

    def indices_for(self, worker: int) -> np.ndarray:
        b = self.block_size
        n = self.axis_length
        blocks = np.arange(worker, -(-n // b), self.nworkers,
                           dtype=np.int64)
        # b > n means one block of n ids; only the last block is ragged
        ids = (blocks[:, None] * b
               + np.arange(min(b, n), dtype=np.int64)).ravel()
        return ids[:int(np.searchsorted(ids, n))]

    def owner_of(self, global_idx) -> np.ndarray:
        gi = np.asarray(global_idx, dtype=np.int64)
        return (gi // self.block_size) % self.nworkers

    def local_position(self, global_idx) -> np.ndarray:
        gi = np.asarray(global_idx, dtype=np.int64)
        block = gi // self.block_size
        local_block = block // self.nworkers
        return local_block * self.block_size + gi % self.block_size

    def periodic(self, worker: int) -> PeriodicSet:
        b = self.block_size
        return PeriodicSet(0, self.axis_length, self.nworkers * b,
                           worker * b, (worker + 1) * b)

    def with_shape(self, global_shape) -> "BlockCyclicDistribution":
        return BlockCyclicDistribution(global_shape, self.axis,
                                       self.nworkers, self.block_size)

    def with_nworkers(self, nworkers: int) -> "BlockCyclicDistribution":
        return BlockCyclicDistribution(self.global_shape, self.axis,
                                       nworkers, self.block_size)

    def cache_key(self):
        return ("block-cyclic", self.global_shape, self.axis, self.nworkers,
                self.block_size)


class ArbitraryDistribution(Distribution):
    """Explicit global-to-local mapping: one index list per worker.

    ``validate=False`` skips the O(n log n) partition check for lists that
    are derived from an existing distribution (internal callers).
    """

    kind = "arbitrary"

    def __init__(self, global_shape, axis: int,
                 index_lists: Sequence[np.ndarray], validate: bool = True):
        super().__init__(global_shape, axis, len(index_lists))
        self._lists = [np.asarray(ix, dtype=np.int64) for ix in index_lists]
        n = self.axis_length
        total = sum(len(ix) for ix in self._lists)
        if total != n:
            raise ValueError("index lists must partition the axis exactly")
        if validate:
            seen = np.concatenate(self._lists) if self._lists else \
                np.empty(0, dtype=np.int64)
            if not np.array_equal(np.sort(seen), np.arange(n)):
                raise ValueError("index lists must partition the axis "
                                 "exactly")
        self._digest = None
        self._owner = np.empty(n, dtype=np.int64)
        self._pos = np.empty(n, dtype=np.int64)
        for w, ix in enumerate(self._lists):
            self._owner[ix] = w
            self._pos[ix] = np.arange(len(ix))

    def indices_for(self, worker: int) -> np.ndarray:
        return self._lists[worker]

    def owner_of(self, global_idx) -> np.ndarray:
        return self._owner[np.asarray(global_idx, dtype=np.int64)]

    def local_position(self, global_idx) -> np.ndarray:
        return self._pos[np.asarray(global_idx, dtype=np.int64)]

    def with_shape(self, global_shape) -> "Distribution":
        raise ValueError("an arbitrary distribution does not generalize to "
                         "a new shape; specify one explicitly")

    def with_nworkers(self, nworkers: int) -> "ArbitraryDistribution":
        # deterministic rebalance: old lists concatenated in worker order,
        # re-dealt as contiguous runs -- preserves the (possibly permuted)
        # global ordering the lists encode while dropping the dependence
        # on the old worker count
        order = (np.concatenate(self._lists) if self._lists
                 else np.empty(0, dtype=np.int64))
        n = len(order)
        base, extra = divmod(n, nworkers)
        lists, lo = [], 0
        for w in range(nworkers):
            hi = lo + base + (1 if w < extra else 0)
            lists.append(order[lo:hi])
            lo = hi
        return ArbitraryDistribution(self.global_shape, self.axis, lists,
                                     validate=False)

    def cache_key(self):
        if self._digest is None:
            h = hashlib.blake2b(digest_size=16)
            for ix in self._lists:
                h.update(np.ascontiguousarray(ix).tobytes())
                h.update(b"|")
            self._digest = h.hexdigest()
        return ("arbitrary", self.global_shape, self.axis, self.nworkers,
                self._digest)


class GridDistribution(Distribution):
    """Multi-axis block decomposition over a worker grid.

    Paper section III-A lists "which dimension or dimensions to distribute
    over"; this is the plural case: e.g. a (1000, 1000) array on a 2x3
    worker grid gives each worker a ~500x333 tile.  Workers map onto grid
    coordinates row-major.
    """

    kind = "grid"

    def __init__(self, global_shape, axes: Sequence[int],
                 grid: Sequence[int]):
        axes = tuple(int(a) for a in axes)
        grid = tuple(int(g) for g in grid)
        if len(axes) != len(grid):
            raise ValueError("axes and grid must have equal length")
        if len(set(axes)) != len(axes):
            raise ValueError("axes must be distinct")
        nworkers = 1
        for g in grid:
            nworkers *= g
        super().__init__(global_shape, axes[0], nworkers)
        self.axes = tuple(a % len(self.global_shape) for a in axes)
        self.grid = grid
        # uniform block offsets per distributed axis
        self._axis_offsets = {}
        for ax, g in zip(self.axes, grid):
            n = self.global_shape[ax]
            counts = np.full(g, n // g, dtype=np.int64)
            counts[:n % g] += 1
            offsets = np.zeros(g + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            self._axis_offsets[ax] = offsets

    # -- worker <-> grid coordinates ------------------------------------
    def coords_of(self, worker: int) -> Tuple[int, ...]:
        coords = []
        rem = worker
        for g in reversed(self.grid):
            coords.append(rem % g)
            rem //= g
        return tuple(reversed(coords))

    def worker_at(self, coords: Sequence[int]) -> int:
        w = 0
        for c, g in zip(coords, self.grid):
            if not 0 <= c < g:
                raise ValueError(f"grid coordinate {c} out of range")
            w = w * g + c
        return w

    # -- multi-axis protocol ---------------------------------------------
    @property
    def dist_axes(self) -> Tuple[int, ...]:
        return self.axes

    def axis_indices(self, worker: int, axis: int) -> Optional[np.ndarray]:
        if axis not in self._axis_offsets:
            return None
        dim = self.axes.index(axis)
        c = self.coords_of(worker)[dim]
        offsets = self._axis_offsets[axis]
        return np.arange(offsets[c], offsets[c + 1], dtype=np.int64)

    def axis_periodic(self, worker: int, axis: int) -> PeriodicSet:
        if axis not in self._axis_offsets:
            return PeriodicSet.full(self.global_shape[axis])
        c = self.coords_of(worker)[self.axes.index(axis)]
        offsets = self._axis_offsets[axis]
        return PeriodicSet(int(offsets[c]), int(offsets[c + 1]), 1, 0, 1)

    # -- base interface ----------------------------------------------------
    def indices_for(self, worker: int) -> np.ndarray:
        """Indices along the *first* distributed axis (base-interface
        compatibility; prefer :meth:`axis_indices`)."""
        return self.axis_indices(worker, self.axes[0])

    def local_shape(self, worker: int) -> Tuple[int, ...]:
        shape = list(self.global_shape)
        for ax in self.axes:
            shape[ax] = len(self.axis_indices(worker, ax))
        return tuple(shape)

    def local_count(self, worker: int) -> int:
        return len(self.indices_for(worker))

    def with_shape(self, global_shape) -> "GridDistribution":
        return GridDistribution(global_shape, self.axes, self.grid)

    def with_nworkers(self, nworkers: int) -> "GridDistribution":
        return GridDistribution(self.global_shape, self.axes,
                                _balanced_grid(nworkers, len(self.axes)))

    def cache_key(self):
        return ("grid", self.global_shape, self.axes, self.grid)

    def __repr__(self):
        return (f"GridDistribution(shape={self.global_shape}, "
                f"axes={self.axes}, grid={self.grid})")


class ConcatDistribution(Distribution):
    """Ownership of a concatenation result, described by its parts.

    Worker w's local block is [part0's w-block, part1's w-block, ...] in
    order; globally part k's indices are shifted by the lengths of the
    preceding parts.  The descriptor stays tiny on the wire (it stores the
    part distributions, not index lists), which is why
    :func:`repro.odin.linalg.concatenate` is a control-plane-only op.
    """

    kind = "concat"

    def __init__(self, parts: Sequence[Distribution], axis: int):
        parts = list(parts)
        if not parts:
            raise ValueError("need at least one part")
        nworkers = parts[0].nworkers
        shape = list(parts[0].global_shape)
        shape[axis] = sum(p.global_shape[axis] for p in parts)
        super().__init__(tuple(shape), axis, nworkers)
        self.parts = parts
        self._offsets = np.zeros(len(parts) + 1, dtype=np.int64)
        np.cumsum([p.global_shape[axis] for p in parts],
                  out=self._offsets[1:])

    def indices_for(self, worker: int) -> np.ndarray:
        return np.concatenate(
            [self._offsets[k] + p.indices_for(worker)
             for k, p in enumerate(self.parts)])

    def owner_of(self, global_idx) -> np.ndarray:
        gi = np.atleast_1d(np.asarray(global_idx, dtype=np.int64))
        out = np.empty(len(gi), dtype=np.int64)
        part = np.searchsorted(self._offsets, gi, side="right") - 1
        for k, p in enumerate(self.parts):
            mask = part == k
            if mask.any():
                out[mask] = p.owner_of(gi[mask] - self._offsets[k])
        return out

    def local_count(self, worker: int) -> int:
        return sum(p.local_count(worker) for p in self.parts)

    def with_shape(self, global_shape) -> "Distribution":
        raise ValueError("a concat distribution does not generalize to a "
                         "new shape")

    def with_nworkers(self, nworkers: int) -> "ConcatDistribution":
        return ConcatDistribution(
            [p.with_nworkers(nworkers) for p in self.parts], self.axis)

    def cache_key(self):
        part_keys = tuple(p.cache_key() for p in self.parts)
        if any(k is None for k in part_keys):
            return None
        return ("concat", self.global_shape, self.axis, part_keys)


def axis_ids(dist: Distribution, worker: int, axis: int) -> np.ndarray:
    """*worker*'s global ids along *axis* in storage order: the whole
    range where *dist* does not split the axis."""
    ids = dist.axis_indices(worker, axis)
    if ids is None:
        return np.arange(dist.global_shape[axis], dtype=np.int64)
    return ids


def _same_sets(mine: Sequence[PeriodicSet],
               theirs: Sequence[PeriodicSet]) -> bool:
    """Worker by worker, the same ids at the same positions, in closed
    form: periodic sets are stored ascending, so two are the same
    layout iff what they share is all of each."""
    for a, b in zip(mine, theirs):
        n = a.count()
        if b.count() != n or overlap(a, b) != n:
            return False
    return True


def same_scheme(dist: Distribution, global_shape: Sequence[int],
                axis: int) -> Distribution:
    """*dist*'s layout on a new global shape whose axis *axis* takes the
    place of *dist*'s distributed axis (same length): every worker keeps
    the same ids at the same positions.  Block (with its counts), cyclic
    and block-cyclic keep their closed form; any other single-axis
    layout becomes its index lists."""
    P = dist.nworkers
    if isinstance(dist, BlockDistribution):
        return BlockDistribution(global_shape, axis, P, counts=dist.counts())
    if isinstance(dist, CyclicDistribution):
        return CyclicDistribution(global_shape, axis, P)
    if isinstance(dist, BlockCyclicDistribution):
        return BlockCyclicDistribution(global_shape, axis, P,
                                       block_size=dist.block_size)
    return ArbitraryDistribution(global_shape, axis,
                                 [dist.indices_for(w) for w in range(P)],
                                 validate=False)


def make_distribution(global_shape, nworkers: int, dist: str = "block",
                      axis: int = 0, counts=None, block_size: int = 1,
                      index_lists=None, axes=None,
                      grid=None) -> Distribution:
    """Factory used by every ODIN creation routine's ``dist=`` argument."""
    key = dist.strip().lower().replace("_", "-")
    if key in ("block", "b"):
        return BlockDistribution(global_shape, axis, nworkers, counts=counts)
    if key in ("cyclic", "c"):
        return CyclicDistribution(global_shape, axis, nworkers)
    if key in ("block-cyclic", "bc"):
        return BlockCyclicDistribution(global_shape, axis, nworkers,
                                       block_size=block_size)
    if key in ("arbitrary", "a"):
        if index_lists is None:
            raise ValueError("arbitrary distribution needs index_lists")
        return ArbitraryDistribution(global_shape, axis, index_lists)
    if key in ("grid", "g"):
        if axes is None:
            axes = (0, 1)
        if grid is None:
            grid = _balanced_grid(nworkers, len(axes))
        d = GridDistribution(global_shape, axes, grid)
        if d.nworkers != nworkers:
            raise ValueError(f"grid {grid} needs {d.nworkers} workers, "
                             f"context has {nworkers}")
        return d
    raise ValueError(f"unknown distribution {dist!r}")


def _balanced_grid(nworkers: int, ndims: int) -> Tuple[int, ...]:
    """Near-square factorization of the worker count (like dims_create)."""
    from ..mpi.cart import dims_create
    return tuple(dims_create(nworkers, ndims))

"""The DistArray: the global mode of interaction (paper section III-B).

"ODIN arrays feel very much like regular NumPy arrays, even though
computations are carried out in a distributed fashion."  DistArray is the
driver-side handle: shape/dtype/distribution metadata plus an array id;
all element data lives on the workers.  Methods broadcast small control
ops and (only when the user asks for values) gather data back.

Binary operations between arrays with different distributions trigger the
redistribution strategy chooser in :mod:`repro.odin.ufuncs` -- "ODIN will
choose a strategy that will minimize communication, while allowing the
knowledgeable user to modify its behavior via Python context managers".
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from . import opcodes
from .context import OdinContext, get_context, local_registry
from .distribution import (BlockDistribution, Distribution, GridDistribution,
                           same_scheme)

__all__ = ["DistArray"]

local_registry["__squeeze__"] = np.squeeze

Scalar = Union[int, float, complex, bool, np.number]


class DistArray:
    """Handle to a distributed N-D array."""

    def __init__(self, ctx: OdinContext, array_id: int,
                 dist: Distribution, dtype):
        self.ctx = ctx
        self.array_id = array_id
        self.dist = dist
        self.dtype = np.dtype(dtype)
        # recovery re-points .dist after a shrink+replay (weak ref, so
        # handles still die -- and enqueue their delete -- normally)
        ctx._register_handle(self)

    @classmethod
    def stored(cls, ctx: OdinContext, array_id: int, results,
               what: str) -> "DistArray":
        """The handle of the blocks every worker reported storing under
        *array_id*, each status being ``("stored", dist, dtype)``: the
        first worker's dtype is the one :meth:`gather` assembles."""
        if {status[0] for status in results} != {"stored"}:
            raise AssertionError(f"{what} workers failed to store blocks")
        _tag, dist, dtype = results[0]
        return cls(ctx, array_id, dist, dtype)

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.dist.global_shape

    @property
    def ndim(self) -> int:
        return self.dist.ndim

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize

    def __len__(self) -> int:
        return self.shape[0]

    def __repr__(self):
        return (f"DistArray(shape={self.shape}, dtype={self.dtype}, "
                f"dist={self.dist.kind}@axis{self.dist.axis}, "
                f"id={self.array_id})")

    def __del__(self):
        try:
            self.ctx.delete(self.array_id)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # data access
    # ------------------------------------------------------------------
    def gather(self) -> np.ndarray:
        """Assemble the whole array on the driver.  Data-plane."""
        return self.ctx.gather(self.array_id)

    def __array__(self, dtype=None, copy=None):
        out = self.gather()
        return out.astype(dtype) if dtype is not None else out

    def local_arrays(self):
        """Per-worker (indices, block) pairs gathered to the driver.

        For computing *on* local segments without gathering, use
        ``@odin.local`` functions instead.
        """
        pieces = self.ctx.run(opcodes.GATHER, self.array_id)
        return [(self.dist.indices_for(w), block)
                for w, (_dist, block) in enumerate(pieces)]

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------
    def _normalize_key(self, key):
        if not isinstance(key, tuple):
            key = (key,)
        if len(key) > self.ndim:
            raise IndexError(f"too many indices for {self.ndim}-D array")
        key = key + (slice(None),) * (self.ndim - len(key))
        return key

    def __getitem__(self, key):
        key = self._normalize_key(key)
        # all-integer key: fetch one element
        if all(isinstance(k, (int, np.integer)) for k in key):
            idx = tuple(int(k) % self.shape[ax] if int(k) >= -self.shape[ax]
                        else _raise_oob(k, ax)
                        for ax, k in enumerate(key))
            results = self.ctx.run(opcodes.FETCH, self.array_id, idx)
            for val in results:
                if val is not None:
                    return self.dtype.type(val)
            raise IndexError(f"index {idx} out of range")
        # otherwise: basic slicing
        if len(self.dist.dist_axes) > 1:
            raise NotImplementedError(
                "slicing a grid-distributed array: redistribute to a "
                "single-axis distribution first")
        slices = []
        for ax, k in enumerate(key):
            if isinstance(k, slice):
                slices.append(k)
            elif isinstance(k, (int, np.integer)):
                if ax == self.dist.axis:
                    raise NotImplementedError(
                        "integer indexing on the distributed axis of an "
                        "N-D array; slice with [k:k+1] instead")
                kk = int(k) % self.shape[ax]
                slices.append(slice(kk, kk + 1))
            else:
                raise NotImplementedError(
                    "only basic slicing is supported in global mode")
        new_shape = tuple(
            len(range(*sl.indices(self.shape[ax])))
            for ax, sl in enumerate(slices))
        new_dist = _block_like(self.dist, new_shape)
        out_id = self.ctx.new_array_id()
        self.ctx.run(opcodes.SLICE, self.array_id, out_id,
                     tuple(slices), new_dist)
        out = DistArray(self.ctx, out_id, new_dist, self.dtype)
        # squeeze axes where the user gave an integer
        squeeze_axes = tuple(ax for ax, k in enumerate(key)
                             if isinstance(k, (int, np.integer)))
        if squeeze_axes:
            out = out._squeeze_local(squeeze_axes)
        return out

    def _squeeze_local(self, axes) -> "DistArray":
        """Remove length-1 non-distributed axes: each worker squeezes and
        keeps its own block, under the same scheme."""
        new_shape = tuple(s for ax, s in enumerate(self.shape)
                          if ax not in axes)
        new_axis = self.dist.axis - sum(1 for ax in axes
                                        if ax < self.dist.axis)
        new_dist = same_scheme(self.dist, new_shape, new_axis)
        out_id = self.ctx.new_array_id()
        results = self.ctx.call_local(
            "__squeeze__", (("array", self.array_id),),
            {"axis": ("value", axes)}, out_id=out_id, out_dist=new_dist)
        return DistArray.stored(self.ctx, out_id, results, "squeeze")

    def __setitem__(self, key, value) -> None:
        key = self._normalize_key(key)
        if len(self.dist.dist_axes) > 1:
            raise NotImplementedError(
                "assigning into a grid-distributed array: redistribute to "
                "a single-axis distribution first")
        if not np.isscalar(value):
            raise NotImplementedError(
                "global-mode assignment accepts scalars; use @odin.local "
                "for array-valued updates")
        slices = []
        for ax, k in enumerate(key):
            if isinstance(k, slice):
                slices.append(k)
            elif isinstance(k, (int, np.integer)):
                kk = int(k) % self.shape[ax]
                slices.append(slice(kk, kk + 1))
            else:
                raise NotImplementedError("only basic indexing in setitem")
        self.ctx.run(opcodes.SETITEM, self.array_id, tuple(slices),
                     ("scalar", value))

    # ------------------------------------------------------------------
    # arithmetic -> ufuncs module (import cycle broken at call time)
    # ------------------------------------------------------------------
    def _binary(self, other, name, reflected=False):
        from .expr import LazyExpr, is_lazy
        if is_lazy() or isinstance(other, LazyExpr):
            a, b = (LazyExpr.wrap(other), LazyExpr.wrap(self)) if reflected \
                else (LazyExpr.wrap(self), LazyExpr.wrap(other))
            return LazyExpr(name, "binary", [a, b])
        from .ufuncs import binary_ufunc
        a, b = (other, self) if reflected else (self, other)
        return binary_ufunc(name, a, b)

    def __add__(self, other):
        return self._binary(other, "add")

    def __radd__(self, other):
        return self._binary(other, "add", reflected=True)

    def __sub__(self, other):
        return self._binary(other, "subtract")

    def __rsub__(self, other):
        return self._binary(other, "subtract", reflected=True)

    def __mul__(self, other):
        return self._binary(other, "multiply")

    def __rmul__(self, other):
        return self._binary(other, "multiply", reflected=True)

    def __truediv__(self, other):
        return self._binary(other, "divide")

    def __rtruediv__(self, other):
        return self._binary(other, "divide", reflected=True)

    def __pow__(self, other):
        return self._binary(other, "power")

    def __mod__(self, other):
        return self._binary(other, "mod")

    def __neg__(self):
        from .expr import LazyExpr, is_lazy
        if is_lazy():
            return LazyExpr("negative", "unary", [LazyExpr.wrap(self)])
        from .ufuncs import unary_ufunc
        return unary_ufunc("negative", self)

    def __abs__(self):
        from .expr import LazyExpr, is_lazy
        if is_lazy():
            return LazyExpr("absolute", "unary", [LazyExpr.wrap(self)])
        from .ufuncs import unary_ufunc
        return unary_ufunc("absolute", self)

    # comparisons produce boolean DistArrays
    def __lt__(self, other):
        return self._binary(other, "less")

    def __le__(self, other):
        return self._binary(other, "less_equal")

    def __gt__(self, other):
        return self._binary(other, "greater")

    def __ge__(self, other):
        return self._binary(other, "greater_equal")

    # NB: __eq__/__ne__ stay identity-based so DistArrays remain hashable
    # handles; use odin.equal(a, b) for elementwise comparison.

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def _reduce(self, op_name: str, axis: Optional[int]):
        from .reductions import reduce_array
        return reduce_array(self, op_name, axis)

    def sum(self, axis: Optional[int] = None):
        return self._reduce("sum", axis)

    def prod(self, axis: Optional[int] = None):
        return self._reduce("prod", axis)

    def min(self, axis: Optional[int] = None):
        return self._reduce("min", axis)

    def max(self, axis: Optional[int] = None):
        return self._reduce("max", axis)

    def any(self, axis: Optional[int] = None):
        return self._reduce("any", axis)

    def all(self, axis: Optional[int] = None):
        return self._reduce("all", axis)

    def mean(self, axis: Optional[int] = None):
        total = self.sum(axis=axis)
        count = self.size if axis is None else self.shape[axis]
        if isinstance(total, DistArray):
            return total * (1.0 / count)
        return total / count

    def std(self, axis: Optional[int] = None):
        mu = self.mean(axis=None)
        if axis is not None:
            raise NotImplementedError("std with axis; use axis=None")
        sq = (self - mu) ** 2
        return float(np.sqrt(sq.mean(axis=None)))

    # ------------------------------------------------------------------
    # redistribution
    # ------------------------------------------------------------------
    def transpose(self, axes: Optional[Tuple[int, ...]] = None
                  ) -> "DistArray":
        """Permute axes.  Zero communication: the distribution's axes are
        permuted along with the data, so every element stays put."""
        if axes is None:
            axes = tuple(range(self.ndim))[::-1]
        axes = tuple(int(a) % self.ndim for a in axes)
        if sorted(axes) != list(range(self.ndim)):
            raise ValueError(f"invalid axis permutation {axes}")
        new_shape = tuple(self.shape[a] for a in axes)
        new_dist = _permuted_distribution(self.dist, axes, new_shape)
        out_id = self.ctx.new_array_id()
        self.ctx.run(opcodes.TRANSPOSE, self.array_id, out_id, axes,
                     new_dist)
        return DistArray(self.ctx, out_id, new_dist, self.dtype)

    @property
    def T(self) -> "DistArray":  # noqa: N802 - NumPy spelling
        return self.transpose()

    def redistribute(self, new_dist: Distribution) -> "DistArray":
        """Move to a new distribution (worker-to-worker traffic only)."""
        if new_dist.global_shape != self.shape:
            raise ValueError("new distribution must keep the global shape")
        out_id = self.ctx.new_array_id()
        self.ctx.run(opcodes.REDIST, self.array_id, out_id, new_dist)
        return DistArray(self.ctx, out_id, new_dist, self.dtype)

    def copy(self) -> "DistArray":
        return self.redistribute(self.dist)


def _block_like(dist: Distribution, new_shape) -> Distribution:
    """A balanced block distribution over the same workers/axis."""
    return BlockDistribution(new_shape, dist.axis, dist.nworkers)


def _permuted_distribution(dist: Distribution, axes, new_shape):
    """The distribution after np.transpose(data, axes): distributed axis k
    (old numbering) becomes axis axes.index(k)."""
    if isinstance(dist, GridDistribution):
        new_axes = tuple(axes.index(a) for a in dist.axes)
        return GridDistribution(new_shape, new_axes, dist.grid)
    return same_scheme(dist, new_shape, axes.index(dist.axis))


def _raise_oob(k, ax):
    raise IndexError(f"index {k} out of range on axis {ax}")

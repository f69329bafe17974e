"""Distributed array creation routines (paper section III-A).

"All NumPy array creation routines are supported by ODIN, and the
resulting arrays are distributed. Routines that create a new array take
optional arguments to control the distribution."

Every routine here (except :func:`array`, which ships user data) sends a
single short control message; workers allocate and initialize from their
own index ranges, matching the paper's description of ``odin.rand``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from .array import DistArray
from .context import OdinContext, get_context
from .distribution import Distribution, make_distribution
from .worker import _ship_function

__all__ = ["zeros", "ones", "empty", "full", "arange", "linspace",
           "random", "rand", "randn", "array", "fromfunction",
           "zeros_like", "ones_like", "empty_like", "load"]

Shape = Union[int, Sequence[int]]


def _resolve(shape: Shape, ctx: Optional[OdinContext], dist, axis,
             **dist_kwargs):
    ctx = ctx if ctx is not None else get_context()
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape),)
    else:
        shape = tuple(int(s) for s in shape)
    if isinstance(dist, Distribution):
        if dist.global_shape != shape:
            raise ValueError(f"distribution shape {dist.global_shape} "
                             f"does not match array shape {shape}")
        distribution = dist
    else:
        distribution = make_distribution(shape, ctx.nworkers, dist=dist,
                                         axis=axis, **dist_kwargs)
    return ctx, shape, distribution


def _create(ctx, distribution, dtype, fill_spec) -> DistArray:
    array_id = ctx.new_array_id()
    ctx.create(array_id, distribution, dtype, fill_spec)
    return DistArray(ctx, array_id, distribution, dtype)


def zeros(shape: Shape, dtype=np.float64, dist="block", axis=0,
          ctx: Optional[OdinContext] = None, **dist_kwargs) -> DistArray:
    """Distributed zeros."""
    ctx, shape, d = _resolve(shape, ctx, dist, axis, **dist_kwargs)
    return _create(ctx, d, dtype, ("zeros",))


def ones(shape: Shape, dtype=np.float64, dist="block", axis=0,
         ctx: Optional[OdinContext] = None, **dist_kwargs) -> DistArray:
    """Distributed ones."""
    ctx, shape, d = _resolve(shape, ctx, dist, axis, **dist_kwargs)
    return _create(ctx, d, dtype, ("ones",))


def empty(shape: Shape, dtype=np.float64, dist="block", axis=0,
          ctx: Optional[OdinContext] = None, **dist_kwargs) -> DistArray:
    """Distributed uninitialized array."""
    ctx, shape, d = _resolve(shape, ctx, dist, axis, **dist_kwargs)
    return _create(ctx, d, dtype, ("empty",))


def full(shape: Shape, fill_value, dtype=None, dist="block", axis=0,
         ctx: Optional[OdinContext] = None, **dist_kwargs) -> DistArray:
    """Distributed constant array."""
    if dtype is None:
        dtype = np.asarray(fill_value).dtype
    ctx, shape, d = _resolve(shape, ctx, dist, axis, **dist_kwargs)
    return _create(ctx, d, dtype, ("full", fill_value))


def arange(start, stop=None, step=1, dtype=None, dist="block",
           ctx: Optional[OdinContext] = None, **dist_kwargs) -> DistArray:
    """Distributed ``numpy.arange`` (1-D)."""
    if stop is None:
        start, stop = 0, start
    n = max(0, int(np.ceil((stop - start) / step)))
    if dtype is None:
        dtype = np.asarray(start + step).dtype
    ctx, shape, d = _resolve(n, ctx, dist, 0, **dist_kwargs)
    return _create(ctx, d, dtype, ("arange", start, step))


def linspace(start: float, stop: float, num: int = 50, endpoint: bool = True,
             dtype=np.float64, dist="block",
             ctx: Optional[OdinContext] = None,
             **dist_kwargs) -> DistArray:
    """Distributed ``numpy.linspace`` (1-D) -- as in the paper's
    finite-difference example ``x = odin.linspace(1, 2*pi, 10**8)``."""
    ctx, shape, d = _resolve(int(num), ctx, dist, 0, **dist_kwargs)
    return _create(ctx, d, dtype,
                   ("linspace", float(start), float(stop), int(num),
                    bool(endpoint)))


def random(shape: Shape, seed: Optional[int] = 12345, dtype=np.float64,
           dist="block", axis=0, ctx: Optional[OdinContext] = None,
           **dist_kwargs) -> DistArray:
    """Distributed uniform [0, 1) -- "a message is sent to all
    participating nodes to create a local section ... with a specified
    random seed, different for each node"."""
    ctx, shape, d = _resolve(shape, ctx, dist, axis, **dist_kwargs)
    return _create(ctx, d, dtype, ("random", seed))


rand = random


def randn(shape: Shape, seed: Optional[int] = 12345, dtype=np.float64,
          dist="block", axis=0, ctx: Optional[OdinContext] = None,
          **dist_kwargs) -> DistArray:
    """Distributed standard normal."""
    ctx, shape, d = _resolve(shape, ctx, dist, axis, **dist_kwargs)
    return _create(ctx, d, dtype, ("normal", seed))


def array(data, dtype=None, dist="block", axis=0,
          ctx: Optional[OdinContext] = None, **dist_kwargs) -> DistArray:
    """Distribute an existing array-like (ships data: data-plane)."""
    data = np.asarray(data, dtype=dtype)
    ctx, shape, d = _resolve(data.shape, ctx, dist, axis, **dist_kwargs)
    array_id = ctx.new_array_id()
    ctx.scatter(array_id, d, data)
    return DistArray(ctx, array_id, d, data.dtype)


def fromfunction(fn, shape: Shape, dtype=np.float64, dist="block", axis=0,
                 ctx: Optional[OdinContext] = None,
                 **dist_kwargs) -> DistArray:
    """Distributed ``numpy.fromfunction``: *fn* receives global index
    grids, evaluated worker-locally."""
    ctx, shape, d = _resolve(shape, ctx, dist, axis, **dist_kwargs)
    return _create(ctx, d, dtype, ("fromfunction", _ship_function(fn)))


def zeros_like(a: DistArray) -> DistArray:
    return _create(a.ctx, a.dist, a.dtype, ("zeros",))


def ones_like(a: DistArray) -> DistArray:
    return _create(a.ctx, a.dist, a.dtype, ("ones",))


def empty_like(a: DistArray) -> DistArray:
    return _create(a.ctx, a.dist, a.dtype, ("empty",))


def load(path_pattern: str, shape: Shape, dtype=np.float64, dist="block",
         axis=0, ctx: Optional[OdinContext] = None,
         **dist_kwargs) -> DistArray:
    """Load per-worker ``.npy`` blocks written by ``odin.save``.

    *path_pattern* must contain ``{rank}`` (paper section III-H: node-level
    I/O gives "full control to read or write any arbitrary distributed
    file format").
    """
    from . import opcodes
    ctx, shape, d = _resolve(shape, ctx, dist, axis, **dist_kwargs)
    array_id = ctx.new_array_id()
    ctx.run(opcodes.LOAD, array_id, d, np.dtype(dtype).str, path_pattern)
    return DistArray(ctx, array_id, d, dtype)

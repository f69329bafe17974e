"""Distributed I/O (paper section III-H).

Each worker reads/writes its own block (``.npy`` per worker plus a JSON
manifest), the offline analogue of MPI-IO's per-rank file views; "access
to node-level computations allows full control to read or write any
arbitrary distributed file format."
"""

from __future__ import annotations

import json
import os
from typing import Optional

import numpy as np

from . import opcodes
from .array import DistArray
from .context import OdinContext, get_context, local_registry
from .creation import load as _load_blocks
from .distribution import make_distribution

__all__ = ["save", "load", "save_shared", "load_shared"]

_MANIFEST = "manifest.json"


def save(a: DistArray, directory: str) -> None:
    """Write one ``block_{rank}.npy`` per worker plus a manifest."""
    os.makedirs(directory, exist_ok=True)
    pattern = os.path.join(directory, "block_{rank}.npy")
    a.ctx.run(opcodes.SAVE, a.array_id, pattern)
    manifest = {
        "global_shape": list(a.shape),
        "dtype": a.dtype.str,
        "dist_kind": a.dist.kind,
        "axis": a.dist.axis,
        "nworkers": a.dist.nworkers,
        "counts": [int(c) for c in a.dist.counts()],
    }
    with open(os.path.join(directory, _MANIFEST), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)


def load(directory: str, ctx: Optional[OdinContext] = None) -> DistArray:
    """Load an array previously written by :func:`save`.

    The worker count must match the manifest (each worker loads its own
    block); to change worker counts, load then
    :meth:`~repro.odin.array.DistArray.redistribute`.
    """
    with open(os.path.join(directory, _MANIFEST), encoding="utf-8") as fh:
        manifest = json.load(fh)
    ctx = ctx if ctx is not None else get_context()
    if ctx.nworkers != manifest["nworkers"]:
        raise ValueError(
            f"dataset was saved from {manifest['nworkers']} workers but the "
            f"context has {ctx.nworkers}")
    shape = tuple(manifest["global_shape"])
    kind = manifest["dist_kind"]
    if kind == "block":
        dist = make_distribution(shape, ctx.nworkers, dist="block",
                                 axis=manifest["axis"],
                                 counts=manifest["counts"])
    elif kind in ("cyclic", "block-cyclic"):
        dist = make_distribution(shape, ctx.nworkers, dist=kind,
                                 axis=manifest["axis"])
    else:
        raise ValueError(f"cannot reload distribution kind {kind!r}; "
                         f"save with a block/cyclic layout")
    pattern = os.path.join(directory, "block_{rank}.npy")
    return _load_blocks(pattern, shape, dtype=np.dtype(manifest["dtype"]),
                        dist=dist, ctx=ctx)


# ----------------------------------------------------------------------
# single shared file via MPI-IO (paper: "ODIN, being compatible with MPI,
# can make use of MPI's distributed IO routines")
# ----------------------------------------------------------------------
def _shared_write_kernel(block, path, dist):
    from ..mpi import MODE_CREATE, MODE_RDWR, File
    from .context import worker_comm, worker_index

    comm = worker_comm()
    w = worker_index()
    fh = File.Open(comm, path, MODE_RDWR | MODE_CREATE)
    fh.Set_view(0, block.dtype)
    # contiguous row-major layout: offset = flattened position of this
    # worker's first element (single-axis axis-0 block layouts only)
    row_len = int(np.prod(dist.global_shape[1:])) \
        if len(dist.global_shape) > 1 else 1
    offset = int(dist.indices_for(w)[0]) * row_len if block.size else 0
    fh.Write_at_all(offset, np.ascontiguousarray(block))
    fh.Close()
    return block.nbytes


def _shared_read_kernel(path, dist, dtype_str):
    from ..mpi import MODE_RDONLY, File
    from .context import worker_comm, worker_index

    comm = worker_comm()
    w = worker_index()
    dtype = np.dtype(dtype_str)
    fh = File.Open(comm, path, MODE_RDONLY)
    fh.Set_view(0, dtype)
    block = np.empty(dist.local_shape(w), dtype=dtype)
    row_len = int(np.prod(dist.global_shape[1:])) \
        if len(dist.global_shape) > 1 else 1
    offset = int(dist.indices_for(w)[0]) * row_len if block.size else 0
    fh.Read_at_all(offset, block)
    fh.Close()
    return block


local_registry["__odin_shared_write__"] = _shared_write_kernel
local_registry["__odin_shared_read__"] = _shared_read_kernel


def _require_axis0_block(a: DistArray, what: str) -> None:
    from .distribution import BlockDistribution
    if not isinstance(a.dist, BlockDistribution) or a.dist.axis != 0:
        raise ValueError(f"{what} requires an axis-0 block distribution; "
                         f"redistribute first")


def save_shared(a: DistArray, path: str) -> None:
    """Write the array into ONE shared binary file (row-major), every
    worker writing its block at its own offset through the MPI-IO layer.

    The file is a plain C-order dump readable with ``np.fromfile``.
    """
    _require_axis0_block(a, "save_shared")
    a.ctx.call_local("__odin_shared_write__",
                     (("array", a.array_id), ("value", path),
                      ("value", a.dist)), {}, out_id=None)


def load_shared(path: str, shape, dtype=np.float64,
                ctx: Optional[OdinContext] = None) -> DistArray:
    """Load a C-order binary file written by :func:`save_shared` (or
    ``ndarray.tofile``) as an axis-0 block-distributed array."""
    from .distribution import BlockDistribution

    ctx = ctx if ctx is not None else get_context()
    shape = (int(shape),) if np.isscalar(shape) else tuple(shape)
    dist = BlockDistribution(shape, 0, ctx.nworkers)
    out_id = ctx.new_array_id()
    results = ctx.call_local(
        "__odin_shared_read__",
        (("value", path), ("value", dist),
         ("value", np.dtype(dtype).str)), {}, out_id=out_id,
        out_dist=dist)
    if {tag for tag, _p in results} != {"stored"}:
        raise AssertionError("shared read failed to store blocks")
    return DistArray(ctx, out_id, dist, np.dtype(dtype))

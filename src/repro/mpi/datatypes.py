"""MPI-style datatype handles mapped onto NumPy dtypes.

The paper's substrate (mpi4py) distinguishes the pickle path (lowercase
methods) from the fast buffer path (uppercase methods) where a datatype may
be given explicitly, e.g. ``comm.Send([data, MPI.DOUBLE], ...)``.  We keep
the same convention: a :class:`Datatype` is a thin named wrapper around a
NumPy dtype, and buffer specifications accept ``array``, ``[array, Datatype]``
or ``[array, count, Datatype]``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Datatype",
    "BYTE", "CHAR", "SHORT", "INT", "LONG", "LONG_LONG",
    "UNSIGNED", "UNSIGNED_LONG", "FLOAT", "DOUBLE", "C_FLOAT_COMPLEX",
    "C_DOUBLE_COMPLEX", "BOOL", "INT32_T", "INT64_T",
    "from_numpy_dtype", "decode_buffer_spec",
]


class Datatype:
    """A named handle pairing an MPI-style name with a NumPy dtype."""

    __slots__ = ("name", "np_dtype")

    def __init__(self, name: str, np_dtype) -> None:
        self.name = name
        self.np_dtype = np.dtype(np_dtype)

    @property
    def extent(self) -> int:
        """Size in bytes of one element of this datatype."""
        return self.np_dtype.itemsize

    def __repr__(self) -> str:
        return f"Datatype({self.name})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Datatype) and self.np_dtype == other.np_dtype

    def __hash__(self) -> int:
        return hash(self.np_dtype)


BYTE = Datatype("MPI_BYTE", np.uint8)
CHAR = Datatype("MPI_CHAR", np.int8)
SHORT = Datatype("MPI_SHORT", np.int16)
INT = Datatype("MPI_INT", np.int32)
LONG = Datatype("MPI_LONG", np.int64)
LONG_LONG = Datatype("MPI_LONG_LONG", np.int64)
UNSIGNED = Datatype("MPI_UNSIGNED", np.uint32)
UNSIGNED_LONG = Datatype("MPI_UNSIGNED_LONG", np.uint64)
FLOAT = Datatype("MPI_FLOAT", np.float32)
DOUBLE = Datatype("MPI_DOUBLE", np.float64)
C_FLOAT_COMPLEX = Datatype("MPI_C_FLOAT_COMPLEX", np.complex64)
C_DOUBLE_COMPLEX = Datatype("MPI_C_DOUBLE_COMPLEX", np.complex128)
BOOL = Datatype("MPI_BOOL", np.bool_)
INT32_T = Datatype("MPI_INT32_T", np.int32)
INT64_T = Datatype("MPI_INT64_T", np.int64)

_BY_DTYPE = {
    d.np_dtype: d
    for d in (BYTE, CHAR, SHORT, INT, LONG, UNSIGNED, UNSIGNED_LONG,
              FLOAT, DOUBLE, C_FLOAT_COMPLEX, C_DOUBLE_COMPLEX, BOOL)
}


def from_numpy_dtype(dtype) -> Datatype:
    """Return the :class:`Datatype` matching a NumPy dtype.

    Unknown dtypes (e.g. structured dtypes) get a fresh ad-hoc handle, which
    is what mpi4py's automatic discovery effectively does for PEP-3118
    buffers of custom layout.
    """
    dtype = np.dtype(dtype)
    try:
        return _BY_DTYPE[dtype]
    except KeyError:
        return Datatype(f"MPI_USER<{dtype}>", dtype)


def _parse(spec):
    """``(array, count or None, Datatype)`` of a buffer specification,
    the array viewed as the datatype."""
    count = None
    dtype = None
    if isinstance(spec, (list, tuple)):
        if len(spec) == 2:
            buf, dtype = spec
        elif len(spec) == 3:
            buf, count, dtype = spec
        else:
            raise ValueError(
                "buffer spec must be array, [array, Datatype] or "
                "[array, count, Datatype]"
            )
    else:
        buf = spec
    arr = np.asarray(buf)
    if dtype is not None and not isinstance(dtype, Datatype):
        dtype = from_numpy_dtype(dtype)
    if dtype is None:
        dtype = from_numpy_dtype(arr.dtype)
    elif arr.dtype != dtype.np_dtype:
        arr = arr.view(dtype.np_dtype)
    return arr, count, dtype


def _restrict(flat, count, dtype):
    if count is None:
        count = flat.shape[0]
    elif count > flat.shape[0]:
        raise ValueError(f"count {count} exceeds buffer length {flat.shape[0]}")
    return flat[:count], int(count), dtype


def decode_buffer_spec(spec):
    """Decode an mpi4py-style buffer specification.

    Accepts ``array``, ``[array, Datatype]`` or ``[array, count, Datatype]``
    and returns ``(flat, count, Datatype)`` where *flat* is a 1-D
    array of the buffer's data restricted to *count* elements: a view
    wherever the array can be flattened without a copy, else a copy --
    fine for data that is only read (a send buffer).
    """
    arr, count, dtype = _parse(spec)
    return _restrict(arr.reshape(-1), count, dtype)


def _decode_recv_spec(spec):
    """:func:`decode_buffer_spec` for a buffer that is written (a receive
    buffer): *flat* is always a view, so every write lands in the
    caller's array.  A multi-dimensional array that cannot be flattened
    without a copy raises ``ValueError``, as mpi4py does."""
    arr, count, dtype = _parse(spec)
    flat = arr.reshape(-1)
    if flat.size and not np.may_share_memory(flat, arr):
        raise ValueError("receive buffer is not contiguous")
    return _restrict(flat, count, dtype)

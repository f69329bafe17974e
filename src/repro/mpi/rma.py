"""One-sided communication (MPI-3 RMA): windows, Put/Get/Accumulate.

The mpi4py interface this substrate mirrors exposes RMA; ODIN-style
runtimes use it for halo updates without matching receives.  Semantics
implemented here:

- ``Win.Create(buffer, comm)`` is collective; every rank exposes a local
  NumPy array.
- Active-target synchronization with ``Fence()`` (a barrier); one-sided
  ops are only legal inside an open epoch, and complete by the closing
  fence (here: immediately, under a per-target lock -- legal, as MPI only
  *allows* delay).
- Passive target ``Lock(rank)/Unlock(rank)`` for lock-based access.

Data movement is counted in the traffic counters with the true direction
(Put/Accumulate: origin->target; Get: target->origin).
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

import numpy as np

from ..chaos.core import ENGINE as _CH
from ..trace import TRACER as _TR
from . import ops as _ops
from .comm import Intracomm
from .errors import MPIError, RankError

__all__ = ["Win", "apply_rma"]


def apply_rma(kind: str, entry, offset: int, data: np.ndarray,
              op: _ops.Op = None) -> None:
    """Apply one one-sided op to a window buffer in this address space.

    *entry* is the target's ``(buffer, lock)``; *kind* is ``"Put"``,
    ``"Get"`` or ``"Accumulate"``.  Put and Accumulate read *data*, Get
    fills it.  Both transports apply through here -- locally for a
    thread-transport origin, in the target's RMA service for a remote
    one -- so bounds errors read the same everywhere.
    """
    buf, lock = entry
    flat = buf.reshape(-1)
    vals = data.reshape(-1)
    sl = slice(offset, offset + vals.size)
    if sl.stop > flat.size:
        raise MPIError(f"{kind} overruns the target window")
    with lock:
        if kind == "Put":
            flat[sl] = vals.astype(buf.dtype, copy=False)
        elif kind == "Get":
            vals[...] = flat[sl].astype(vals.dtype, copy=False)
        else:
            flat[sl] = op.np_func(flat[sl], vals)


class Win:
    """An RMA window over each rank's exposed local buffer."""

    _registry_guard = threading.Lock()

    def __init__(self, comm: Intracomm, buffer: np.ndarray, win_id):
        self.comm = comm
        self._id = win_id
        self._epoch = False
        with Win._registry_guard:
            table = comm.context.world.rma_windows.setdefault(win_id, {})
        table[comm.context.rank] = (buffer, threading.RLock())
        self._table: Dict[int, Tuple[np.ndarray, threading.Lock]] = table
        comm.barrier()  # Create is collective: all buffers registered

    @classmethod
    def Create(cls, buffer, comm: Intracomm) -> "Win":
        buffer = np.asarray(buffer)
        if not buffer.flags["C_CONTIGUOUS"]:
            raise ValueError("window buffers must be C-contiguous")
        # SPMD-consistent window id from the comm's collective stream
        win_id = (comm._ctx_id, "win", comm._coll_seq)
        return cls(comm, buffer, win_id)

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def Fence(self) -> None:
        """Open/continue an active-target epoch (collective barrier)."""
        self.comm.barrier()
        self._epoch = True

    def Lock(self, rank: int) -> None:
        """Begin passive-target access to *rank*'s window.

        The per-target lock is reentrant, so one-sided operations issued
        inside a Lock/Unlock epoch (same thread) nest safely.  On the
        process backend a remote target's lock lives in its process and
        is held by the RMA service around each individual operation:
        Lock/Unlock then only opens the epoch -- per-op atomicity is
        preserved, cross-op mutual exclusion between concurrent origins
        is not (see docs/INTERNALS.md §11).
        """
        if self._is_remote(rank):
            self._epoch = True
            return
        self._target_entry(rank)[1].acquire()
        self._epoch = True

    def Unlock(self, rank: int) -> None:
        if self._is_remote(rank):
            return
        self._target_entry(rank)[1].release()

    # ------------------------------------------------------------------
    # one-sided operations
    # ------------------------------------------------------------------
    def _target_entry(self, rank: int):
        if not 0 <= rank < self.comm.size:
            raise RankError(f"rank {rank} out of range")
        world_rank = self.comm.world_rank(rank)
        try:
            return self._table[world_rank]
        except KeyError:
            raise MPIError("window not exposed on target (Create not "
                           "called there?)") from None

    def _is_remote(self, rank: int) -> bool:
        """Does *rank*'s window buffer live in another process?

        Thread transport: never (all buffers share the table).  Process
        transport: any rank but our own -- those ops ship over the mesh
        to the target's RMA service, which applies them with the same
        :func:`apply_rma` under the target-side lock.
        """
        if not 0 <= rank < self.comm.size:
            raise RankError(f"rank {rank} out of range")
        return self.comm.context.world.is_remote_rank(
            self.comm.world_rank(rank))

    def _check_epoch(self):
        if not self._epoch:
            raise MPIError("one-sided operation outside an access epoch; "
                           "call Fence() or Lock() first")

    def _access(self, kind: str, target_rank: int, offset: int,
                data: np.ndarray, op: _ops.Op = None) -> None:
        """One Put/Get/Accumulate on *target_rank*, counted and traced."""
        self._check_epoch()
        ctx = self.comm.context
        if _CH.enabled:
            _CH.on_op("rma", ctx.rank, peer=self.comm.world_rank(target_rank))
        t0 = _TR.now() if _TR.enabled else 0.0
        remote = self._is_remote(target_rank)
        target = self.comm.world_rank(target_rank)
        if remote:
            ctx.world.rma_remote(kind, self._id, target, offset, data, op)
        else:
            apply_rma(kind, self._target_entry(target_rank), offset, data,
                      op)
        if kind == "Get":
            # data flowed target -> origin; a remote target's service
            # counted its own send
            if not remote:
                ctx.world.counters[target].record_send(ctx.rank, data.nbytes)
            self.comm.counters().record_recv(target, data.nbytes)
        else:
            self.comm.counters().record_send(target, data.nbytes)
        if _TR.enabled:
            _TR.complete("mpi.rma", kind, t0, rank=ctx.rank, target=target,
                         nbytes=data.nbytes)

    def Put(self, origin: np.ndarray, target_rank: int,
            target_offset: int = 0) -> None:
        """Write *origin* into the target window at element offset."""
        self._access("Put", target_rank, target_offset,
                     np.ascontiguousarray(origin))

    def Get(self, origin: np.ndarray, target_rank: int,
            target_offset: int = 0) -> None:
        """Read from the target window into *origin*."""
        self._access("Get", target_rank, target_offset, origin.reshape(-1))

    def Accumulate(self, origin: np.ndarray, target_rank: int,
                   target_offset: int = 0,
                   op: _ops.Op = _ops.SUM) -> None:
        """Combine *origin* into the target window with *op* (atomically
        with respect to other accumulates on the same target)."""
        self._access("Accumulate", target_rank, target_offset,
                     np.ascontiguousarray(origin), op)

    def Free(self) -> None:
        """Collective teardown."""
        self.comm.barrier()
        self._table.pop(self.comm.context.rank, None)
        self._epoch = False

    def __enter__(self) -> "Win":
        return self

    def __exit__(self, *exc) -> None:
        self.Free()

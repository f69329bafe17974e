"""Data redistribution plans (Tpetra::Import / Tpetra::Export).

An :class:`Import` moves data from a source-distributed object to a
target-distributed object (the owners push to the requesters); an
:class:`Export` pushes possibly-overlapping contributions to the owners,
combining with ADD/INSERT/ABSMAX -- the assembly primitive.

Both are *plans*: the communication pattern (who sends which local ids to
whom) is computed once, collectively, at construction; executing the plan
then costs exactly one message per communicating pair.  Each message is
the packed block of rows on the buffer path (``Send``/``Recv``, no
pickling), received from its named source in plan order.  The CrsMatrix
SpMV, the overlapping-Schwarz preconditioner and ``Vector`` gid lookups
execute Import plans.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Tuple

import numpy as np

from ..mpi.errors import TruncationError
from ..mpi.status import Status
from ..trace import TRACER as _TR
from .map import Map

__all__ = ["CombineMode", "Import", "Export"]


class CombineMode(enum.Enum):
    """How incoming values merge with existing ones at the target."""

    INSERT = "insert"
    REPLACE = "replace"
    ADD = "add"
    ABSMAX = "absmax"


def _combine(target_local: np.ndarray, lids: np.ndarray,
             values: np.ndarray, mode: CombineMode) -> None:
    if mode in (CombineMode.INSERT, CombineMode.REPLACE):
        target_local[lids] = values
    elif mode == CombineMode.ADD:
        np.add.at(target_local, lids, values)
    elif mode == CombineMode.ABSMAX:
        current = np.abs(target_local[lids])
        incoming = np.abs(values)
        target_local[lids] = np.where(incoming > current, values,
                                      target_local[lids])
    else:  # pragma: no cover - enum is closed
        raise ValueError(mode)


class _Plan:
    """One-directional communication plan between two maps.

    ``send_plan``: list of (dest rank, source lids to send).
    ``recv_plan``: list of (src rank, target lids to fill), in the order
    the blocks are received and combined.
    ``permute``: (source lids, target lids) moved locally.

    A plan is built once and executed many times (a Krylov SpMV executes
    the same Import every iteration), so execution state is cached on the
    instance: per-peer pack and receive buffers are reused across
    ``execute`` calls, and the transpose plan built by :meth:`reversed` is
    memoized.  Plans are treated as immutable once built -- the lid
    arrays are shared, never copied, between a plan and its reverse.
    """

    def __init__(self, send_plan, recv_plan, permute_src, permute_tgt):
        self.send_plan: List[Tuple[int, np.ndarray]] = send_plan
        self.recv_plan: List[Tuple[int, np.ndarray]] = recv_plan
        self.permute_src = permute_src
        self.permute_tgt = permute_tgt
        self._reversed: "_Plan" = None
        self._send_bufs: Dict[int, np.ndarray] = {}
        self._recv_bufs: Dict[int, np.ndarray] = {}

    @staticmethod
    def _buffer(cache: Dict[int, np.ndarray], peer: int, nrows: int,
                like: np.ndarray) -> np.ndarray:
        """The reused per-peer block of *nrows* rows shaped like *like*."""
        shape = (nrows,) + like.shape[1:]
        buf = cache.get(peer)
        if buf is None or buf.shape != shape or buf.dtype != like.dtype:
            buf = cache[peer] = np.empty(shape, dtype=like.dtype)
        return buf

    def execute(self, comm, src_local: np.ndarray, tgt_local: np.ndarray,
                mode: CombineMode, tag: int) -> None:
        """Move values according to the plan.

        ``src_local`` / ``tgt_local`` may be 1-D (Vector) or 2-D
        (MultiVector, rows = local elements).  Every block travels on the
        buffer path: all sends (``comm.Send`` of the packed rows) are
        posted first, then each source's block is received with
        ``comm.Recv`` from that named source, in plan order, into a
        reused buffer and combined at once.  Plan order makes
        order-sensitive combines (overlapping target lids under
        ADD/ABSMAX) deterministic, and a named-source receive takes the
        oldest message of that pair on the plan's tag, so it can never
        consume the next execution's block.  A block whose size differs
        from the plan's raises :class:`TruncationError`.
        """
        traced = _TR.enabled
        pack = unpack = 0
        for dest, lids in self.send_plan:
            packed = self._buffer(self._send_bufs, dest, len(lids), src_local)
            np.take(src_local, lids, axis=0, out=packed)
            pack += packed.nbytes
            comm.Send(packed, dest, tag=tag)
        if len(self.permute_src):
            _combine(tgt_local, self.permute_tgt, src_local[self.permute_src],
                     mode)
        st = Status()
        for src, lids in self.recv_plan:
            # every rank packs the same distributed object, so the
            # sender's rows look like this rank's source rows
            values = self._buffer(self._recv_bufs, src, len(lids), src_local)
            comm.Recv(values, src, tag=tag, status=st)
            if st.count_bytes != values.nbytes:
                raise TruncationError(
                    f"halo block from rank {src} holds {st.count_bytes} "
                    f"bytes, the plan expects {values.nbytes}")
            unpack += values.nbytes
            _combine(tgt_local, lids, values, mode)
        if traced:
            _TR.instant("tpetra.plan", "execute", pack=pack, unpack=unpack)

    def reversed(self) -> "_Plan":
        """The transpose plan (Import -> reverse Export and vice versa),
        built once on first use and cached; the reverse of the reverse is
        the original plan (no rebuild, no lid-array copies)."""
        if self._reversed is None:
            rev = _Plan(list(self.recv_plan), list(self.send_plan),
                        self.permute_tgt, self.permute_src)
            rev._reversed = self
            self._reversed = rev
            if _TR.enabled:
                _TR.instant("tpetra.plan", "reverse")
        return self._reversed

    @property
    def num_messages(self) -> int:
        return len(self.send_plan)

    @property
    def num_remote_elements(self) -> int:
        return sum(len(lids) for _r, lids in self.recv_plan)


def _build_import_plan(source: Map, target: Map) -> _Plan:
    """Collective plan construction: requesters ask owners.

    For every target gid, locate it in the source map.  Locally-available
    gids become the permute lists; remote ones are requested from their
    owners with one alltoall, after which the owners know what to ship.
    """
    comm = source.comm
    tgt_gids = target.my_gids
    src_lids = source.lid(tgt_gids)
    local_mask = src_lids >= 0
    permute_src = src_lids[local_mask]
    permute_tgt = np.nonzero(local_mask)[0].astype(np.int64)

    remote_tgt_lids = np.nonzero(~local_mask)[0].astype(np.int64)
    remote_gids = tgt_gids[~local_mask]
    # owner_rank is collective on arbitrary maps: call unconditionally.
    owners = source.owner_rank(remote_gids)
    if len(remote_gids) and np.any(owners == comm.rank):
        raise AssertionError("gid reported remote but owned locally")

    # Ask each owner for the gids we need (alltoall of request lists).
    requests = []
    recv_plan = []
    for r in range(comm.size):
        mask = owners == r
        requests.append(remote_gids[mask])
        if np.any(mask):
            recv_plan.append((r, remote_tgt_lids[mask]))
    asked = comm.alltoall(requests)
    send_plan = []
    for r, gids in enumerate(asked):
        if len(gids):
            lids = source.lid(np.asarray(gids, dtype=np.int64))
            if np.any(lids < 0):
                raise AssertionError("asked for gids this rank does not own")
            send_plan.append((r, lids))
    if _TR.enabled:
        _TR.instant("tpetra.plan", "build", kind="import",
                    remote=len(remote_gids))
    return _Plan(send_plan, recv_plan, permute_src, permute_tgt)


def _build_export_plan(source: Map, target: Map) -> _Plan:
    """Collective plan construction: contributors push to owners."""
    comm = source.comm
    src_gids = source.my_gids
    tgt_lids = target.lid(src_gids)
    local_mask = tgt_lids >= 0
    permute_src = np.nonzero(local_mask)[0].astype(np.int64)
    permute_tgt = tgt_lids[local_mask]

    remote_src_lids = np.nonzero(~local_mask)[0].astype(np.int64)
    remote_gids = src_gids[~local_mask]
    owners = target.owner_rank(remote_gids)

    send_plan = []
    announce = []
    for r in range(comm.size):
        mask = owners == r
        announce.append(remote_gids[mask])
        if np.any(mask):
            send_plan.append((r, remote_src_lids[mask]))
    incoming = comm.alltoall(announce)
    recv_plan = []
    for r, gids in enumerate(incoming):
        if len(gids):
            lids = target.lid(np.asarray(gids, dtype=np.int64))
            if np.any(lids < 0):
                raise AssertionError("received contribution for a gid this "
                                     "rank does not own")
            recv_plan.append((r, lids))
    if _TR.enabled:
        _TR.instant("tpetra.plan", "build", kind="export",
                    remote=len(remote_gids))
    return _Plan(send_plan, recv_plan, permute_src, permute_tgt)


# Every plan gets its own (forward, reverse) tag pair, so a plan's
# named-source receives only ever match that plan's blocks, whatever other
# point-to-point traffic shares the communicator.  Ranks share class
# objects (threads), so the counter lives on the communicator (one
# instance per rank) and advances identically everywhere because plan
# construction is collective and in SPMD program order.
_PLAN_TAG_BASE = 7001


def _alloc_plan_tag(comm) -> int:
    nxt = getattr(comm, "_plan_tag_next", _PLAN_TAG_BASE)
    comm._plan_tag_next = nxt + 2
    return nxt


class Import:
    """Redistribution plan pulling source data into the target layout."""

    def __init__(self, source: Map, target: Map):
        if source.comm is not target.comm and \
                source.comm.size != target.comm.size:
            raise ValueError("source and target maps must share a comm")
        self.source = source
        self.target = target
        self.plan = _build_import_plan(source, target)
        self._tag = _alloc_plan_tag(source.comm)

    def apply(self, src_local: np.ndarray, tgt_local: np.ndarray,
              mode: CombineMode = CombineMode.INSERT) -> None:
        """Execute on raw local arrays (rows = local elements)."""
        self.plan.execute(self.source.comm, src_local, tgt_local, mode,
                          self._tag)

    def apply_reverse(self, tgt_local: np.ndarray, src_local: np.ndarray,
                      mode: CombineMode = CombineMode.ADD) -> None:
        """Run the plan backwards (a reverse-mode Export)."""
        self.plan.reversed().execute(self.source.comm, tgt_local, src_local,
                                     mode, self._tag + 1)

    @property
    def num_same(self) -> int:
        return len(self.plan.permute_src)

    @property
    def num_remote(self) -> int:
        return self.plan.num_remote_elements


class Export:
    """Redistribution plan pushing (possibly shared) contributions to owners."""

    def __init__(self, source: Map, target: Map):
        self.source = source
        self.target = target
        self.plan = _build_export_plan(source, target)
        self._tag = _alloc_plan_tag(source.comm)

    def apply(self, src_local: np.ndarray, tgt_local: np.ndarray,
              mode: CombineMode = CombineMode.ADD) -> None:
        self.plan.execute(self.source.comm, src_local, tgt_local, mode,
                          self._tag)

    def apply_reverse(self, tgt_local: np.ndarray, src_local: np.ndarray,
                      mode: CombineMode = CombineMode.INSERT) -> None:
        self.plan.reversed().execute(self.source.comm, tgt_local, src_local,
                                     mode, self._tag + 1)

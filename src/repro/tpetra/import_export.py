"""Data redistribution plans (Tpetra::Import / Tpetra::Export).

An :class:`Import` moves data from a source-distributed object to a
target-distributed object (the owners push to the requesters); an
:class:`Export` pushes possibly-overlapping contributions to the owners,
combining with ADD/INSERT/ABSMAX -- the assembly primitive.

Both are *plans*: the communication pattern (who sends which local ids to
whom) is computed once, collectively, at construction; executing the plan
then costs exactly one message per communicating pair.  ODIN's halo
exchanges and the CrsMatrix SpMV both execute Import plans.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Tuple

import numpy as np

from ..mpi.status import ANY_SOURCE, Status
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
    ``recv_plan``: list of (src rank, target lids to fill, in arrival order).
    ``permute``: (source lids, target lids) moved locally.

    A plan is built once and executed many times (a Krylov SpMV executes
    the same Import every iteration), so execution state is cached on the
    instance: per-destination pack buffers are reused across ``execute``
    calls, and the transpose plan built by :meth:`reversed` is memoized.
    Plans are treated as immutable once built -- the lid arrays are shared,
    never copied, between a plan and its reverse.
    """

    def __init__(self, send_plan, recv_plan, permute_src, permute_tgt):
        self.send_plan: List[Tuple[int, np.ndarray]] = send_plan
        self.recv_plan: List[Tuple[int, np.ndarray]] = recv_plan
        self.permute_src = permute_src
        self.permute_tgt = permute_tgt
        self._reversed: "_Plan" = None
        self._send_bufs: Dict[int, np.ndarray] = {}
        # receives drained with ANY_SOURCE can overshoot into the *next*
        # execution's message from an already-satisfied peer (per-pair
        # FIFO still holds, so a stashed message is exactly that peer's
        # next-execution payload); consume the stash first next time
        self._stash: Dict[int, List[np.ndarray]] = {}
        # arrival-order combining is only deterministic when no two
        # sources write the same target lid (always true for Imports by
        # construction); otherwise stage and combine in plan order
        if len(recv_plan) > 1:
            all_lids = np.concatenate([lids for _r, lids in recv_plan])
            self._recv_disjoint = len(np.unique(all_lids)) == len(all_lids)
        else:
            self._recv_disjoint = True

    def _pack(self, dest: int, src_local: np.ndarray,
              lids: np.ndarray) -> np.ndarray:
        """Gather the outgoing rows into a reused per-destination buffer."""
        shape = (len(lids),) + src_local.shape[1:]
        buf = self._send_bufs.get(dest)
        if buf is None or buf.shape != shape or buf.dtype != src_local.dtype:
            buf = np.empty(shape, dtype=src_local.dtype)
            self._send_bufs[dest] = buf
        np.take(src_local, lids, axis=0, out=buf)
        return buf

    def execute(self, comm, src_local: np.ndarray, tgt_local: np.ndarray,
                mode: CombineMode, tag: int) -> None:
        """Move values according to the plan.

        ``src_local`` / ``tgt_local`` may be 1-D (Vector) or 2-D
        (MultiVector, rows = local elements).  All sends are posted
        before any receive is drained, and receives are drained in
        arrival order (late senders never block combining of data that
        has already arrived).  When the combine is order-sensitive
        (overlapping target lids under ADD/ABSMAX), incoming values are
        staged and combined in plan order so results stay deterministic.
        """
        traced = _TR.enabled
        pack = unpack = 0
        for dest, lids in self.send_plan:
            packed = self._pack(dest, src_local, lids)
            pack += packed.nbytes
            comm.send(packed, dest, tag=tag)
        if len(self.permute_src):
            _combine(tgt_local, self.permute_tgt, src_local[self.permute_src],
                     mode)
        if not self.recv_plan:
            if traced:
                _TR.instant("tpetra.plan", "execute", pack=pack, unpack=0)
            return
        in_order = self._recv_disjoint or mode in (CombineMode.INSERT,
                                                   CombineMode.REPLACE)
        by_src = {src: lids for src, lids in self.recv_plan}
        staged: Dict[int, np.ndarray] = {}
        pending = set(by_src)
        while pending:
            src = next((s for s in pending if self._stash.get(s)), -1)
            if src >= 0:
                values = self._stash[src].pop(0)
            else:
                st = Status()
                values = comm.recv(ANY_SOURCE, tag=tag, status=st)
                src = st.source
                if src not in pending:
                    # next execution's message from a finished peer
                    self._stash.setdefault(src, []).append(values)
                    continue
            pending.discard(src)
            if traced:
                unpack += np.asarray(values).nbytes
            if in_order:
                _combine(tgt_local, by_src[src], values, mode)
            else:
                staged[src] = values
        if staged:
            for src, lids in self.recv_plan:
                _combine(tgt_local, lids, staged[src], mode)
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


# Every plan gets its own (forward, reverse) tag pair so the
# arrival-order ANY_SOURCE drain can never confuse two different plans'
# messages: with a unique tag, an overshoot can only be the *same* plan's
# next execution (per-pair FIFO), which the per-plan stash handles.  Ranks
# share class objects (threads), so the counter lives on the communicator
# (one instance per rank) and advances identically everywhere because plan
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

"""Multiprocess transport: one OS process per rank, real parallelism.

:class:`ProcessWorld` is a :class:`~repro.mpi.runtime.World` whose remote
ranks live in other processes.  It implements only the transport seam;
every runtime algorithm (delivery accounting, failure propagation,
revocation, agreement, leases) is inherited unchanged:

- ``_post`` to a remote rank encodes the stamped envelope onto a
  fork-inherited socketpair mesh (bulk frames through a per-peer
  shared-memory ring or a one-off segment, :mod:`.wire`, :mod:`.shm`)
  and has copied every payload byte when it returns; a receiver thread
  per peer deposits it into this process's own mailbox.  Self-sends
  stay in memory.
- ``_publish`` broadcasts a control frame (``FAILSTOP``, ``ABORT``,
  ``REVOKE``, ``AGREE``, ``DECIDED``); the receiver's :meth:`_dispatch`
  calls the world's apply-only ``_apply_*`` internals, which never
  re-publish, so propagation terminates.
- A dead process is a *real* failure: the kernel closes its sockets and
  the peer's receiver thread reads EOF -- the same typed
  :class:`RankFailure` surface the thread transport produces from
  injection, within one 0.25 s mailbox wake of the EOF.
- ``fetch_counters`` / ``reset_all_counters`` and remote RMA are
  round-trip control frames served by the target's receiver thread.

Ranks are started by :func:`repro.mpi.transport.launch`.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Dict, Optional, Sequence

import numpy as np

from ..errors import AbortError, DeadlockError, MPIError, RankFailure
from ..runtime import Message, World, _NOT_FAILED
from ..rma import apply_rma
from . import _picklable_exc, wire
from .shm import ShmPool, new_session_id

__all__ = ["ProcessMesh", "ProcessWorld"]

# World._publish names -> control frame types
_PUBLISHED = {"failstop": wire.FAILSTOP, "abort": wire.ABORT,
              "revoke": wire.REVOKE, "agree": wire.AGREE,
              "decided": wire.DECIDED}


class ProcessMesh:
    """Pre-fork socketpair mesh: one pair per rank pair.

    Created in the parent *before* forking so every rank inherits all
    endpoints; :meth:`activate` then keeps only the calling rank's ends
    and closes the rest -- which is what makes peer EOF detection work
    (an fd held open by a bystander process would suppress the EOF).
    """

    def __init__(self, nranks: int):
        self.nranks = nranks
        self.session_id = new_session_id()
        self._pairs: Dict[tuple, tuple] = {}
        for i in range(nranks):
            for j in range(i + 1, nranks):
                self._pairs[(i, j)] = socket.socketpair()

    def activate(self, rank: int) -> Dict[int, socket.socket]:
        """Claim *rank*'s endpoints, closing every other inherited fd."""
        socks: Dict[int, socket.socket] = {}
        for (i, j), (a, b) in self._pairs.items():
            if i == rank:
                socks[j] = a
                b.close()
            elif j == rank:
                socks[i] = b
                a.close()
            else:
                a.close()
                b.close()
        self._pairs = {}
        return socks

    def close_all(self) -> None:
        """Drop every endpoint (a parent that is not itself a rank)."""
        for a, b in self._pairs.values():
            a.close()
            b.close()
        self._pairs = {}


class ProcessWorld(World):
    """A :class:`World` whose remote ranks live in other processes."""

    shares_memory = False

    def __init__(self, nranks: int, my_rank: int, session_id: str,
                 socks: Dict[int, socket.socket],
                 timeout: Optional[float] = None):
        super().__init__(nranks, timeout=timeout)
        self.my_rank = my_rank
        self.session_id = session_id
        self.shm = ShmPool(session_id, my_rank)
        self._channels = {peer: wire.Channel(s)
                          for peer, s in socks.items()}
        self._closing = False
        # reply slots for round-trip control ops (counter fetch, RMA)
        self._reply_cond = threading.Condition()
        self._replies: Dict[tuple, Any] = {}
        self._reply_seq = 0
        self._recv_threads = [
            threading.Thread(target=self._recv_loop, args=(peer,),
                             name=f"transport-recv-{my_rank}<-{peer}",
                             daemon=True)
            for peer in sorted(self._channels)
        ]
        for t in self._recv_threads:
            t.start()

    # -- the transport seam -------------------------------------------------
    def is_remote_rank(self, rank: int) -> bool:
        return rank != self.my_rank

    def _post(self, dest: int, msg: Message, jump: int) -> None:
        if dest == self.my_rank:
            self.mailboxes[dest].deposit(msg, jump)
            return
        ch = self._channels.get(dest)
        if ch is None or self._closing or self.is_failed(dest):
            # parity with the thread transport, where a send to a dead
            # rank deposits into a mailbox nobody will ever read
            return
        try:
            ch.send_payload(self.shm, dest,
                            (msg.ctx_id, msg.src, msg.tag, msg.kind,
                             msg.nbytes, msg.seq, jump),
                            msg.kind, msg.payload)
        except OSError:
            self._peer_lost(dest)

    def _publish(self, msgtype: str, body) -> None:
        if msgtype in ("failstop", "abort"):
            body = (body[0], _picklable_exc(body[1]))
        self._broadcast_control(_PUBLISHED[msgtype], body)

    # -- control-plane sends ------------------------------------------------
    def _send_control(self, peer: int, msgtype: int, body,
                      chunks: Sequence = ()) -> bool:
        ch = self._channels.get(peer)
        if ch is None or self._closing:
            return False
        try:
            ch.send(msgtype, body, chunks)
            return True
        except OSError:
            self._peer_lost(peer)
            return False

    def _broadcast_control(self, msgtype: int, body) -> None:
        for peer in sorted(self._channels):
            if not self.is_failed(peer):
                self._send_control(peer, msgtype, body)

    def _peer_lost(self, peer: int) -> None:
        if self._closing or self.aborted or self.is_failed(peer):
            return
        self._apply_failed(peer, RuntimeError(
            f"rank {peer} transport closed (process exited?)"))

    # -- receiver threads ---------------------------------------------------
    def _recv_loop(self, peer: int) -> None:
        ch = self._channels[peer]
        while True:
            try:
                msgtype, body, chunks = ch.recv()
            except (EOFError, OSError):
                self._peer_lost(peer)
                return
            self._heartbeat[peer] = time.monotonic()
            try:
                self._dispatch(peer, msgtype, body, chunks)
            except (EOFError, OSError):
                self._peer_lost(peer)
                return
            except Exception as exc:  # noqa: BLE001 - poison, don't hang
                self.abort(self.my_rank, RuntimeError(
                    f"transport receiver for peer {peer} failed: {exc!r}"))
                return

    def _dispatch(self, peer: int, msgtype: int, body, chunks) -> None:
        if msgtype == wire.DATA:
            ctx_id, src, tag, kind, nbytes, seq, jump, spec = body
            try:
                payload = wire.decode_payload(self.shm, kind, spec, chunks,
                                              peer)
            except FileNotFoundError:
                # the frame's ring or segment was swept: its sender died
                # and the parent cleaned up before we mapped it
                self._peer_lost(src)
                return
            self.mailboxes[self.my_rank].deposit(
                Message(ctx_id, src, tag, kind, payload, nbytes, seq),
                jump)
        elif msgtype == wire.FAILSTOP:
            self._apply_failed(*body)
        elif msgtype == wire.ABORT:
            self._apply_abort(*body)
        elif msgtype == wire.REVOKE:
            self._apply_revoke(body)
        elif msgtype == wire.AGREE:
            self._apply_agree(*body)
        elif msgtype == wire.DECIDED:
            self._apply_decided(*body)
        elif msgtype == wire.CTRS_REQ:
            snap = self.counters[self.my_rank].snapshot()
            self._send_control(peer, wire.CTRS_REP, (body, snap))
        elif msgtype == wire.CTRS_RESET:
            self.counters[self.my_rank].reset()
        elif msgtype == wire.RMA_REQ:
            self._rma_serve(peer, *body)
        elif msgtype in (wire.CTRS_REP, wire.RMA_REP):
            self._store_reply(*body)

    # -- round-trip control helpers -----------------------------------------
    def _new_reply_id(self) -> tuple:
        with self._reply_cond:
            self._reply_seq += 1
            return (self.my_rank, self._reply_seq)

    def _store_reply(self, reply_id, value) -> None:
        with self._reply_cond:
            self._replies[reply_id] = value
            self._reply_cond.notify_all()

    def _await_reply(self, reply_id, peer: int,
                     timeout: Optional[float] = None):
        deadline = time.monotonic() + (self.timeout if timeout is None
                                       else timeout)
        with self._reply_cond:
            while reply_id not in self._replies:
                self.check_abort()
                cause = self.failure_cause(peer)
                if cause is not _NOT_FAILED:
                    raise RankFailure(peer, f"control reply {reply_id}",
                                      cause)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DeadlockError(
                        f"control round-trip to rank {peer} timed out")
                self._reply_cond.wait(timeout=min(remaining, 0.25))
            return self._replies.pop(reply_id)

    def fetch_counters(self, rank: int):
        """Snapshot *rank*'s counters: fetched over the mesh while the
        rank is reachable, else this process's copy (what was absorbed
        when the rank finished)."""
        if rank != self.my_rank and not self.is_failed(rank):
            rid = self._new_reply_id()
            if self._send_control(rank, wire.CTRS_REQ, rid):
                try:
                    return self._await_reply(rid, rank, timeout=10.0)
                except (RankFailure, DeadlockError, AbortError):
                    pass
        return self.counters[rank].snapshot()

    def reset_all_counters(self) -> None:
        self._broadcast_control(wire.CTRS_RESET, None)
        super().reset_all_counters()

    # -- remote RMA ---------------------------------------------------------
    def rma_remote(self, kind: str, win_id, target: int, offset: int,
                   data: np.ndarray, op=None) -> None:
        """Apply one one-sided op on *target*'s window via its receiver
        thread; a Get fills *data* in place.

        Synchronous on purpose: the reply guarantees the op is applied
        before this returns, so a closing Fence() barrier (whose
        messages may route around the origin->target edge) can never
        overtake it; MPI only *allows* delaying completion to the fence.
        """
        rid = self._new_reply_id()
        arg = (data.size, data.dtype.str) if kind == "Get" \
            else np.ascontiguousarray(data)
        if not self._send_control(target, wire.RMA_REQ,
                                  (kind, win_id, offset, arg, op, rid)):
            raise RankFailure(target, f"rma {kind}", None)
        out = self._await_reply(rid, target)
        if isinstance(out, BaseException):
            raise out
        if kind == "Get":
            data.reshape(-1)[...] = out

    def _rma_serve(self, peer: int, kind: str, win_id, offset: int, arg,
                   op, reply_id) -> None:
        out = None
        try:
            entry = self.rma_windows.get(win_id, {}).get(self.my_rank)
            if entry is None:
                raise MPIError(f"RMA request for unknown window {win_id!r}")
            if kind == "Get":
                out = np.empty(arg[0], dtype=np.dtype(arg[1]))
                apply_rma(kind, entry, offset, out)
                # data flows target -> origin: count the send on this side
                self.counters[self.my_rank].record_send(peer, out.nbytes)
            else:
                apply_rma(kind, entry, offset, arg, op)
        except MPIError as exc:
            out = exc
        self._send_control(peer, wire.RMA_REP, (reply_id, out))

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Tear down the transport: close sockets (peers read EOF), join
        receiver threads, drop the shared-memory rings."""
        if self._closing:
            return
        self._closing = True
        for ch in self._channels.values():
            ch.close()
        for t in self._recv_threads:
            t.join(timeout=2)
        self.shm.close()

"""Multiprocess transport: one OS process per rank, real parallelism.

:class:`ProcessWorld` is a :class:`~repro.mpi.runtime.World` whose remote
ranks live in other processes.  It implements only the transport seam;
every runtime algorithm (delivery accounting, failure propagation,
revocation, agreement, leases) is inherited unchanged:

- ``_post`` to a remote rank writes one record -- the stamped envelope,
  its payload's placement and its inline bytes (:mod:`.wire`) -- into
  the pair's shared-memory :class:`~.shm.FrameQueue`; bulk frames go
  through a per-peer ring or a one-off segment (:mod:`.shm`) and only
  their placement rides the record.  Every payload byte is copied when
  it returns.  Self-sends stay in memory.
- The consumer takes records two ways.  A receive blocked in
  ``_Mailbox.retrieve`` first spins (:meth:`~ProcessWorld._spin`) on its
  incoming queues, for up to :data:`_SPIN_S`, when every rank of the
  world can have a core; otherwise, or once a spin came up empty, it
  parks on its mailbox, and the producer rings a *doorbell* on the
  socket, upon which the per-peer receiver thread drains the queue into
  the mailbox.  The producer's head store and the consumer's flag
  store are each followed by a full fence before the other side's
  value is read (a Dekker handoff; see docs/INTERNALS.md section 11).
  The queue relies on x86-64's store order, so this transport starts
  nowhere else.
- The sockets (a fork-inherited socketpair mesh) carry only control
  frames, doorbells and EOF.  ``_publish`` broadcasts a control frame
  (``FAILSTOP``, ``ABORT``, ``REVOKE``, ``AGREE``, ``DECIDED``); the
  receiver's :meth:`_dispatch` calls the world's apply-only ``_apply_*``
  internals, which never re-publish, so propagation terminates.
- Order between the two paths is the order of the sends.  Every record
  is stamped with the number of control frames sent to that peer before
  it (:attr:`.wire.Channel.frames`), and a record is delivered only once
  that many of the peer's frames have been applied.  Before it applies a
  control frame or acts on EOF, the receiver delivers the records sent
  before it, and after it those the frame held back.
- A dead process is a *real* failure: the kernel closes its sockets and
  the peer's receiver thread reads EOF -- the same typed
  :class:`RankFailure` surface the thread transport produces from
  injection, within one 0.25 s mailbox wake of the EOF.
- ``fetch_counters`` / ``reset_all_counters`` and remote RMA are
  round-trip control frames served by the target's receiver thread.

Ranks are started by :func:`repro.mpi.transport.launch`.
"""

from __future__ import annotations

import os
import platform
import socket
import threading
import time
from collections import Counter
from typing import Any, Dict, Optional

import numpy as np

from ..errors import AbortError, DeadlockError, MPIError, RankFailure
from ..runtime import Message, World, _NOT_FAILED
from ..rma import apply_rma
from . import _picklable_exc, wire
from .shm import FENCED, FrameQueue, ShmPool, new_session_id

__all__ = ["ProcessMesh", "ProcessWorld"]

# World._publish names -> control frame types
_PUBLISHED = {"failstop": wire.FAILSTOP, "abort": wire.ABORT,
              "revoke": wire.REVOKE, "agree": wire.AGREE,
              "decided": wire.DECIDED}


def _require_store_order() -> None:
    """Refuse to start where the small-frame queue is unsafe: its credit
    return needs x86-64's store order (see :mod:`.shm`)."""
    if not FENCED:
        raise MPIError(
            f"the process transport needs an x86-64 host (this one is "
            f"{platform.machine() or 'unknown'}); use backend='thread'")


class ProcessMesh:
    """Pre-fork socketpair mesh: one pair per rank pair.

    Created in the parent *before* forking so every rank inherits all
    endpoints; :meth:`activate` then keeps only the calling rank's ends
    and closes the rest -- which is what makes peer EOF detection work
    (an fd held open by a bystander process would suppress the EOF).
    """

    def __init__(self, nranks: int):
        _require_store_order()
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


def _may_spin(nranks: int) -> bool:
    """Whether a waiting rank may spin on its queues: only when every
    rank of the world can have a core."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API: count every core
        cores = os.cpu_count() or 1
    return nranks <= cores


#: how long one wait spins on the queues before it parks
_SPIN_S = 1e-3


class ProcessWorld(World):
    """A :class:`World` whose remote ranks live in other processes."""

    shares_memory = False

    def __init__(self, nranks: int, my_rank: int, session_id: str,
                 socks: Dict[int, socket.socket],
                 timeout: Optional[float] = None):
        _require_store_order()
        super().__init__(nranks, timeout=timeout)
        self.my_rank = my_rank
        self.session_id = session_id
        self.shm = ShmPool(session_id, my_rank)
        self._channels = {peer: wire.Channel(s)
                          for peer, s in socks.items()}
        self._closing = False
        # small-frame queues: ours to each peer, and each peer's to us
        # once its QUEUE frame has arrived
        self._outq: Dict[int, FrameQueue] = {}
        self._inq: Dict[int, FrameQueue] = {}
        self._eof: set = set()  # peers whose socket reached EOF
        #: per peer: how many of its socket frames (doorbells aside) this
        #: rank has applied; its records stamped higher wait for them
        self._applied: Dict[int, int] = dict.fromkeys(self._channels, 0)
        #: whether a blocked receive may spin on the queues at all, and
        #: whether it does now (not since a spin came up empty)
        self.may_spin = self.spins = _may_spin(nranks)
        for peer, ch in self._channels.items():
            q = self._outq[peer] = FrameQueue(self.shm.queue_capacity)
            try:
                ch.send(wire.QUEUE, q.capacity, fds=[q.fd])
            except OSError:
                self._eof.add(peer)
            q.close_fd()
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
        q = self._outq[dest]
        try:
            with ch.lock:
                parts, nbytes = wire.encode_record(
                    self.shm, (msg.ctx_id, msg.src, msg.tag, msg.kind,
                               msg.nbytes, msg.seq, jump),
                    msg.payload, dest)
                # the stamp: delivered only after every frame sent so far
                stamp = ch.frames
                if not q.put(parts, nbytes, stamp) and not \
                        self._put_when_room(dest, q, parts, nbytes, stamp):
                    return
                if q.owes_doorbell():
                    ch.ring()
        except OSError:
            self._peer_lost(dest)

    def _put_when_room(self, dest: int, q: FrameQueue, parts,
                       nbytes: int, stamp: int) -> bool:
        """Wait, GIL released, for *dest* to drain our full queue, then
        put the record; False (drop it, as the thread transport would)
        once *dest* failed or its socket closed.  Its receiver thread
        drains into the unbounded mailbox, so this ends even while *dest*
        itself sends."""
        deadline = time.monotonic() + self.timeout
        pause = 5e-5
        while True:
            if self._closing or dest in self._eof or self.is_failed(dest):
                return False
            if time.monotonic() > deadline:
                raise DeadlockError(
                    f"rank {dest} did not drain its queue within "
                    f"{self.timeout:.1f}s")
            time.sleep(pause)
            pause = min(2 * pause, 1e-3)
            if q.put(parts, nbytes, stamp):
                return True

    def _spin(self, budget: float, arrived) -> None:
        """Poll the incoming queues for up to :data:`_SPIN_S` (or
        *budget*) seconds, draining what arrives.  A spin that saw no
        frame parks the rank: :attr:`spins` stays clear until a frame
        arrives."""
        queues = list(self._inq.items())
        for _, q in queues:
            q.set_spinning(True)
        got = 0
        stop = time.perf_counter() + min(budget, _SPIN_S)
        try:
            while not got and not arrived() and time.perf_counter() < stop:
                for peer, q in queues:
                    if q.ready():
                        got += self._drain(peer)
        finally:
            # a raised flag would keep producers from ever ringing
            for _, q in queues:
                q.set_spinning(False)
        # the flag stores before the head loads: _drain's lock fences
        got += sum(self._drain(peer) for peer, _ in queues)
        if not got and not arrived():
            self.spins = False

    def _publish(self, msgtype: str, body) -> None:
        if msgtype in ("failstop", "abort"):
            body = (body[0], _picklable_exc(body[1]))
        self._broadcast_control(_PUBLISHED[msgtype], body)

    # -- control-plane sends ------------------------------------------------
    def _send_control(self, peer: int, msgtype: int, body) -> bool:
        ch = self._channels.get(peer)
        if ch is None or self._closing:
            return False
        try:
            ch.send(msgtype, body)
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
                msgtype, body, fds = ch.recv()
                self._heartbeat[peer] = time.monotonic()
            except (EOFError, OSError):
                msgtype = None  # the peer is gone
            try:
                if msgtype == wire.DOORBELL:
                    q = self._inq.get(peer)
                    if q is not None:
                        q.clear_bell()
                        self._drain(peer)
                    continue
                # FIFO with the socket: what the peer queued before this
                # frame (or its death) is delivered first ...
                self._drain(peer)
                if msgtype is None:
                    self._eof.add(peer)
                    self._peer_lost(peer)
                    return
                if msgtype == wire.QUEUE:
                    q = self._inq[peer] = FrameQueue(body, fds[0])
                    q.close_fd()
                else:
                    self._dispatch(peer, msgtype, body)
                # ... and what it queued after, only once the frame applied
                self._applied[peer] += 1
                self._drain(peer)
            except (EOFError, OSError):
                self._eof.add(peer)
                self._peer_lost(peer)
                return
            except Exception as exc:  # noqa: BLE001 - poison, don't hang
                self.abort(self.my_rank, RuntimeError(
                    f"transport receiver for peer {peer} failed: {exc!r}"))
                return

    def _drain(self, peer: int) -> int:
        """Deliver into this rank's mailbox, in order, every record
        *peer* queued before the first of its socket frames this rank
        has not applied yet; returns how many."""
        q = self._inq.get(peer)
        if q is None:
            return 0
        with q.lock:  # one consumer at a time; the acquire fences
            records = q.take(self._applied[peer])
            mailbox = self.mailboxes[self.my_rank]
            for record in records:
                try:
                    meta, payload = wire.decode_record(self.shm, record,
                                                       peer)
                except FileNotFoundError:
                    # the frame's ring or segment was swept: its sender
                    # died and the parent cleaned up before we mapped it
                    self._peer_lost(peer)
                    continue
                ctx_id, src, tag, kind, nbytes, seq, jump = meta
                mailbox.deposit(
                    Message(ctx_id, src, tag, kind, payload, nbytes, seq),
                    jump)
        if records:
            self._heartbeat[peer] = time.monotonic()
            self.spins = self.may_spin
        return len(records)

    def _dispatch(self, peer: int, msgtype: int, body) -> None:
        if msgtype == wire.FAILSTOP:
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
        self._outq, self._inq = {}, {}  # mappings go with the last use

    @property
    def routes(self) -> Counter:
        """Frames sent so far by route: ``"queue"`` records (every data
        message to a peer), and ``"doorbell"`` and ``"control"`` frames
        on the sockets."""
        out = Counter(queue=sum(q.records for q in self._outq.values()))
        for ch in self._channels.values():
            for msgtype, n in ch.sent.items():
                out["doorbell" if msgtype == wire.DOORBELL
                    else "control"] += n
        return out

"""SPMD thread runtime: the machine under the MPI-like interface.

The paper's substrate is real MPI on a cluster.  Offline we execute the same
single-program-multiple-data model with one OS thread per rank (or one
forked process per rank: :mod:`repro.mpi.transport`).  Each rank
owns a mailbox; sends are eager and buffered (payloads are copied/pickled at
send time), so the memory-isolation semantics of distributed ranks are
preserved even though the ranks share an address space.  Blocking operations
time out with :class:`~repro.mpi.errors.DeadlockError` instead of hanging,
and an unhandled exception in any rank aborts the whole world, mirroring
``MPI_Abort``.

Two execution styles are offered:

- :func:`run_spmd` -- run one function on every rank of a fresh world and
  return the per-rank results (this is ``mpiexec -n N python script.py``).
- :class:`World` with a bound driver -- used by ODIN's process/worker model
  (Fig. 1 of the paper), where the calling thread acts as one rank and the
  worker ranks run a service loop.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from ..chaos.core import ENGINE as _CH
from ..obs import causal as _CZ
from ..obs.flight import FLIGHT as _FL
from ..trace import TRACER as _TR
from .counters import CommCounters
from .errors import (AbortError, CommRevokedError, DeadlockError,
                     InjectedFault, MPIError, RankFailure)
from .status import ANY_SOURCE, ANY_TAG, Status

__all__ = ["World", "RankContext", "Message", "run_spmd", "current_context",
           "default_timeout", "set_default_timeout"]

_DEFAULT_TIMEOUT = float(os.environ.get("REPRO_MPI_TIMEOUT", "120"))


def _env_deadline() -> Optional[float]:
    raw = os.environ.get("REPRO_MPI_DEADLINE")
    if not raw:
        return None
    value = float(raw)
    return value if value > 0 else None

_tls = threading.local()

# distinguishes "rank not failed" from "rank failed with cause None"
_NOT_FAILED = object()


def default_timeout() -> float:
    """Current deadlock-detection timeout in seconds."""
    return _DEFAULT_TIMEOUT


def set_default_timeout(seconds: float) -> None:
    """Set the deadlock-detection timeout for subsequently created worlds."""
    global _DEFAULT_TIMEOUT
    _DEFAULT_TIMEOUT = float(seconds)


def current_context() -> "RankContext":
    """The rank context bound to the calling thread.

    Raises :class:`MPIError` when called outside an SPMD region.
    """
    ctx = getattr(_tls, "ctx", None)
    if ctx is None:
        raise MPIError("no rank context bound to this thread "
                       "(are you outside an SPMD region?)")
    return ctx


class Message:
    """An in-flight message envelope.

    ``kind`` is ``'buffer'`` (payload: contiguous 1-D ndarray copy),
    ``'pickle'`` (payload: pickled bytes), or ``'pickle5'`` (payload:
    ``(blob, frames)`` -- a protocol-5 pickle stream plus its out-of-band
    buffers).  ``nbytes`` is the on-the-wire size used for
    instrumentation; for ``'pickle5'`` it counts the blob *and* the
    frames, so wire bytes always equal isolation-copy bytes.

    Payload buffers are marked read-only before delivery: the same
    physical copy is handed to the (same-process) receiver, so a writable
    view would let the receiver silently mutate what the sender believes
    was an immutable snapshot.
    """

    __slots__ = ("ctx_id", "src", "tag", "kind", "payload", "nbytes",
                 "seq")

    def __init__(self, ctx_id, src, tag, kind, payload, nbytes, seq=0):
        self.ctx_id = ctx_id
        self.src = src
        self.tag = tag
        self.kind = kind
        self.payload = payload
        self.nbytes = nbytes
        # per-(src, dest) delivery sequence number: the key that lets the
        # trace analyzer pair a recv event with the send that fed it
        self.seq = seq

    def matches(self, ctx_id, source, tag) -> bool:
        return (self.ctx_id == ctx_id
                and (source == ANY_SOURCE or self.src == source)
                and (tag == ANY_TAG or self.tag == tag))


class _Mailbox:
    """FIFO of pending messages for one rank, with matched retrieval."""

    def __init__(self, world: "World", rank: int):
        self._world = world
        self._rank = rank
        self._cond = threading.Condition()
        self._queue: List[Message] = []

    def deposit(self, msg: Message, jump: int = 0) -> None:
        """Enqueue *msg*; a positive *jump* (chaos reordering) lets it
        overtake up to that many queued messages, but never one from the
        same ``(src, ctx_id)`` stream -- the FIFO non-overtaking rule MPI
        guarantees per peer/context is preserved even under injection."""
        with self._cond:
            pos = len(self._queue)
            while jump > 0 and pos > 0:
                ahead = self._queue[pos - 1]
                if ahead.src == msg.src and ahead.ctx_id == msg.ctx_id:
                    break
                pos -= 1
                jump -= 1
            self._queue.insert(pos, msg)
            self._cond.notify_all()

    def wake(self) -> None:
        """Wake blocked receivers (used on world abort)."""
        with self._cond:
            self._cond.notify_all()

    def _find(self, ctx_id, source, tag, remove: bool) -> Optional[Message]:
        for i, msg in enumerate(self._queue):
            if msg.matches(ctx_id, source, tag):
                if remove:
                    del self._queue[i]
                return msg
        return None

    def retrieve(self, ctx_id, source, tag, timeout: float,
                 remove: bool = True, members=None) -> Message:
        """Block until a matching message arrives; return (and remove) it.

        The wait is watched three ways: world abort (fatal), the comm's
        revocation flag and the failed-rank set (both recoverable, raised
        as typed errors within one 0.25 s wake period -- the detection
        latency bound), and the deadline/timeout (``DeadlockError`` with a
        dump of every rank's pending op).
        """
        world = self._world
        if world.deadline is not None:
            timeout = min(timeout, world.deadline)
        deadline = time.monotonic() + timeout
        desc = f"recv(source={source}, tag={tag}, ctx={ctx_id})"
        world.note_pending(self._rank, desc)
        try:
            with self._cond:
                while True:
                    world.check_abort()
                    if world.is_revoked(ctx_id):
                        raise CommRevokedError(
                            f"communicator revoked while blocked in {desc}")
                    msg = self._find(ctx_id, source, tag, remove)
                    if msg is not None:
                        return msg
                    world.check_leases()
                    if world.has_failures:
                        if source != ANY_SOURCE:
                            cause = world.failure_cause(source)
                            if cause is not _NOT_FAILED:
                                raise RankFailure(source, desc, cause)
                        elif members is not None:
                            # ULFM's MPI_ERR_PROC_FAILED_PENDING: a
                            # wildcard recv cannot complete safely once
                            # any member of the comm is dead -- the
                            # awaited sender might be the dead one
                            for m in members:
                                cause = world.failure_cause(m)
                                if cause is not _NOT_FAILED:
                                    raise RankFailure(
                                        m, desc + " [wildcard]", cause)
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        flight = _FL.notify_fault("DeadlockError", desc,
                                                  ranks=world.status())
                        raise DeadlockError(
                            f"{desc} timed out after {timeout:.1f}s; pending "
                            f"queue has {len(self._queue)} unmatched "
                            f"message(s)\n" + world.pending_dump()
                            + (f"\nflight recorder dump: {flight}"
                               if flight else ""))
                    if world.spins:
                        self._spin(remaining)
                        continue
                    self._cond.wait(timeout=min(remaining, 0.25))
        finally:
            world.clear_pending(self._rank)

    def _spin(self, budget: float) -> None:
        """Let the world poll its wire (:meth:`World._spin`) with this
        mailbox's lock released."""
        seen = len(self._queue)
        self._cond.release()
        try:
            self._world._spin(budget, lambda: len(self._queue) != seen)
        finally:
            self._cond.acquire()

    def poll(self, ctx_id, source, tag, remove: bool) -> Optional[Message]:
        with self._cond:
            self._world.check_abort()
            return self._find(ctx_id, source, tag, remove)


class World:
    """A set of ranks that can exchange messages.

    One :class:`World` backs one SPMD run (or one ODIN worker pool).  Rank
    numbering inside the world is the "world rank"; communicators map their
    own ranks onto these.

    Every runtime algorithm lives here once; a transport overrides only
    the seam methods (see :mod:`repro.mpi.transport`).  This class is
    the thread transport, whose seam is trivial.
    """

    #: Whether every rank runs in the caller's interpreter (and so sees
    #: its module state, such as the chaos engine).
    shares_memory = True
    #: Whether a blocked receive calls :meth:`_spin` before it waits;
    #: threads deposit straight into the mailbox, so they only wait.
    spins = False

    def __init__(self, nranks: int, timeout: Optional[float] = None,
                 deadline: Optional[float] = None):
        if nranks < 1:
            raise ValueError("world needs at least one rank")
        self.nranks = nranks
        self.timeout = _DEFAULT_TIMEOUT if timeout is None else float(timeout)
        # REPRO_MPI_DEADLINE caps every blocking wait regardless of the
        # caller's timeout: the watchdog for crash-between-abort-windows
        # hangs.  None = no cap beyond the per-call timeout.
        self.deadline = _env_deadline() if deadline is None else float(deadline)
        self.mailboxes = [_Mailbox(self, r) for r in range(nranks)]
        self.counters = [CommCounters() for _ in range(nranks)]
        # (src, dest) -> messages delivered so far; each key is written
        # only by the src rank's thread, so no lock is needed
        self._pair_seq = {}
        self._abort_lock = threading.Lock()
        self._abort: Optional[AbortError] = None
        # -- fail-stop state (ULFM substrate) --
        # has_failures is the one-predicate fast path read on every wait
        # iteration; the dict/lock are only touched once it flips.
        self.has_failures = False
        self._failed: dict = {}            # rank -> cause (may be None)
        self._revoked: set = set()         # revoked comm base ctx_ids
        self._fail_lock = threading.Lock()
        # rank -> (pending op description, per-rank blocking-op seq);
        # written only by the owning rank's thread
        self._pending: dict = {}
        self._pending_seq = [0] * nranks
        # rank -> last transport activity (the piggybacked heartbeat);
        # stamped on every deliver/retrieve by the owning rank's thread
        self._heartbeat = [time.monotonic()] * nranks
        # agreement slots: key -> {rank: value}; survivors of a failure
        # rendezvous here because mailbox traffic with a dead member hangs
        self._agree_cond = threading.Condition()
        self._agree_slots: dict = {}
        # rank -> lease (anything with is_alive(): a thread or a process).
        # Only ODIN registers: in plain run_spmd a silently-dead rank
        # keeps surfacing as DeadlockError.
        self._leases: dict = {}
        # RMA windows exposed in this address space:
        # win_id -> {world rank: (buffer, lock)}
        self.rma_windows: dict = {}

    # -- transport seam (overridden by ProcessWorld) ------------------------
    def _post(self, dest: int, msg: Message, jump: int) -> None:
        """Put one stamped message on the wire to *dest*."""
        self.mailboxes[dest].deposit(msg, jump)

    def _publish(self, msgtype: str, body) -> None:
        """Tell every peer about a state change applied here: one of
        ``"failstop"``, ``"abort"``, ``"revoke"``, ``"agree"``,
        ``"decided"``.  Peers apply it with the matching ``_apply_*``
        method and never re-publish, so propagation terminates.  Threads
        share this object, so there is nobody to tell."""

    def _spin(self, budget: float, arrived: Callable[[], bool]) -> None:
        """Poll the wire for at most *budget* seconds, or until
        ``arrived()`` (a deposit into the waiting mailbox), on behalf of
        a blocked receive that holds no lock; clear :attr:`spins` to
        make it wait instead."""

    def is_remote_rank(self, rank: int) -> bool:
        """Whether *rank*'s state lives in another process."""
        return False

    def fetch_counters(self, rank: int):
        """Snapshot of *rank*'s traffic counters."""
        return self.counters[rank].snapshot()

    def reset_all_counters(self) -> None:
        for c in self.counters:
            c.reset()

    def close(self) -> None:
        """Release transport resources (nothing to release here)."""

    # -- failure propagation ------------------------------------------------
    def abort(self, origin_rank: int, cause: BaseException) -> None:
        if not self.aborted:
            self._publish("abort", (origin_rank, cause))
        self._apply_abort(origin_rank, cause)

    def _apply_abort(self, origin_rank: int, cause: BaseException) -> None:
        first = False
        with self._abort_lock:
            if self._abort is None:
                self._abort = AbortError(origin_rank, cause)
                first = True
        self._wake_all()
        if first:
            _FL.notify_fault("AbortError", repr(cause),
                             ranks=self.status())

    def check_abort(self) -> None:
        if self._abort is not None:
            raise self._abort

    @property
    def aborted(self) -> bool:
        return self._abort is not None

    def _wake_all(self) -> None:
        for mb in self.mailboxes:
            mb.wake()
        with self._agree_cond:
            self._agree_cond.notify_all()

    # -- fail-stop failures (recoverable, unlike abort) ---------------------
    def mark_failed(self, rank: int, cause: Optional[BaseException] = None
                    ) -> None:
        """Record *rank* as dead (fail-stop) and wake all blocked waiters.

        Unlike :meth:`abort` this does not poison the world: surviving
        ranks observe typed :class:`RankFailure` errors on operations
        involving the dead rank and may revoke/shrink and continue.
        """
        if not self.is_failed(rank):
            # a rank dying politely tells its peers the true cause before
            # a transport-level loss would tell them a generic one
            self._publish("failstop", (rank, cause))
        self._apply_failed(rank, cause)

    def _apply_failed(self, rank: int,
                      cause: Optional[BaseException]) -> None:
        first = False
        with self._fail_lock:
            if rank not in self._failed:
                self._failed[rank] = cause
                self.has_failures = True
                first = True
        self._wake_all()
        if first:
            _FL.notify_fault("RankFailure", f"rank {rank}: {cause!r}",
                             ranks=self.status())

    def failed_ranks(self):
        with self._fail_lock:
            return sorted(self._failed)

    def failure_cause(self, rank: int):
        """Cause for a failed rank, or the ``_NOT_FAILED`` sentinel."""
        if not self.has_failures:
            return _NOT_FAILED
        with self._fail_lock:
            return self._failed.get(rank, _NOT_FAILED)

    def is_failed(self, rank: int) -> bool:
        return self.has_failures and self.failure_cause(rank) is not _NOT_FAILED

    # -- rank leases --------------------------------------------------------
    def register_lease(self, rank: int, handle) -> None:
        """Register *handle* (anything with ``is_alive()``: the thread or
        the process running *rank*) as the rank's lease: if it dies
        without reporting (any death mode, not just an injected fault),
        blocked peers detect the rank as failed on their next wake."""
        self._leases[rank] = handle

    def check_leases(self) -> None:
        """Expire the lease of any registered rank whose handle is dead
        but was never marked failed (e.g. it was killed by an uncaught
        error or a signal before it could report).

        Records the failure without :meth:`_wake_all`: callers poll from
        inside their own mailbox/agreement condition, and notifying every
        other condition from there could deadlock on lock ordering.
        Other blocked ranks run this same check on their next 0.25 s
        wake, which preserves the detection latency bound.
        """
        if not self._leases:
            return
        for rank, handle in list(self._leases.items()):
            if not handle.is_alive() and not self.is_failed(rank):
                code = getattr(handle, "exitcode", None)
                with self._fail_lock:
                    if rank not in self._failed:
                        self._failed[rank] = RuntimeError(
                            f"rank {rank} died without reporting"
                            + ("" if code is None
                               else f" (exit code {code})"))
                        self.has_failures = True

    # -- communicator revocation --------------------------------------------
    def revoke_ctx(self, base_ctx_id) -> None:
        """Poison one communicator's context: every blocked or future op
        on it raises :class:`CommRevokedError`.  Derived communicators
        have distinct base ids and are untouched (ULFM semantics)."""
        if not self.is_revoked(base_ctx_id):
            self._publish("revoke", base_ctx_id)
        self._apply_revoke(base_ctx_id)

    def _apply_revoke(self, base_ctx_id) -> None:
        with self._fail_lock:
            self._revoked.add(base_ctx_id)
        self._wake_all()

    def is_revoked(self, ctx_id) -> bool:
        if not self._revoked:
            return False
        if ctx_id in self._revoked:
            return True
        # transport streams wrap the comm's base id: p2p is (base, "p"),
        # collectives are (base, "c", seq) -- one context per collective
        # instance, so rounds of different collectives can never match
        # each other's messages.  Only these inherit the flag --
        # derived-comm ids like (base, "shrink", seq) nest the parent
        # base too, but revocation must NOT cascade into children.
        return (isinstance(ctx_id, tuple) and len(ctx_id) in (2, 3)
                and ctx_id[1] in ("p", "c")
                and ctx_id[0] in self._revoked)

    # -- pending-op registry (deadlock watchdog evidence) -------------------
    def note_pending(self, rank: int, desc: str) -> None:
        self._pending_seq[rank] += 1
        self._pending[rank] = (desc, self._pending_seq[rank])
        self._heartbeat[rank] = time.monotonic()

    def clear_pending(self, rank: int) -> None:
        self._pending.pop(rank, None)
        self._heartbeat[rank] = time.monotonic()

    def pending_dump(self) -> str:
        """One line per rank: its pending blocking op and op sequence."""
        now = time.monotonic()
        lines = ["pending operations by rank:"]
        for rank in range(self.nranks):
            entry = self._pending.get(rank)
            state = ("FAILED" if self.is_failed(rank) else
                     f"{entry[0]} [op #{entry[1]}]" if entry is not None else
                     "idle")
            age = now - self._heartbeat[rank]
            lines.append(f"  rank {rank}: {state} "
                         f"(last heartbeat {age:.2f}s ago)")
        return "\n".join(lines)

    def status(self) -> list:
        """:meth:`pending_dump` as data: one dict per rank with its
        pending blocking op, per-rank op sequence, failure flag and
        heartbeat age.  Lock-free (each field is written by one thread
        and read atomically under the GIL), so the ``/status`` endpoint
        can call it from an observer thread while the workload is
        blocked or even deadlocked."""
        now = time.monotonic()
        out = []
        for rank in range(self.nranks):
            entry = self._pending.get(rank)
            out.append({
                "rank": rank,
                "failed": self.is_failed(rank),
                "pending": None if entry is None else entry[0],
                "op_seq": None if entry is None else entry[1],
                "heartbeat_age_s": round(now - self._heartbeat[rank], 3),
            })
        return out

    # -- fault-tolerant agreement -------------------------------------------
    def agreement(self, key, rank: int, value, participants, combine):
        """Contribute *value* under *key* and return ``combine`` over the
        contributions of every participant that has not failed.

        This is the rendezvous the ULFM ``shrink``/``agree`` collectives
        are built on: it cannot use mailboxes (a dead member would stall
        any message pattern), so contributions meet in a world-level slot
        guarded by one condition variable.  Survivors return the same
        result because a failed rank never contributes after being marked
        failed, and the slot is immutable once complete.

        Across processes every contribution is also published, each
        process runs the same deterministic combine over the same sorted
        contribution set, and the first to decide publishes the decision
        so racy observers adopt it.  (With a rank SIGKILLed halfway
        through publishing its contribution, two survivors could in
        principle see different contribution sets; the published decision
        shrinks that window but cannot close it -- docs/INTERNALS.md §11.)
        """
        participants = list(participants)
        self._publish("agree", (key, rank, value))
        with self._agree_cond:
            slot = self._agree_slots.setdefault(key, {})
            if not isinstance(slot, dict):      # already decided
                return slot[1]
            slot[rank] = value
            self._agree_cond.notify_all()
            deadline = time.monotonic() + (
                self.timeout if self.deadline is None
                else min(self.timeout, self.deadline))
            while True:
                self.check_abort()
                self.check_leases()
                slot = self._agree_slots[key]
                if not isinstance(slot, dict):  # a peer froze the result
                    return slot[1]
                waiting = [r for r in participants
                           if r not in slot and not self.is_failed(r)]
                if not waiting:
                    # freeze: the first member to observe completeness
                    # computes the result once (under the lock), so every
                    # participant returns the identical value even if
                    # further failures land mid-agreement
                    pset = set(participants)
                    result = combine([slot[r] for r in sorted(slot)
                                      if r in pset])
                    self._agree_slots[key] = ("decided", result)
                    self._agree_cond.notify_all()
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    flight = _FL.notify_fault(
                        "DeadlockError", f"agreement {key!r}",
                        ranks=self.status())
                    raise DeadlockError(
                        f"agreement {key!r} timed out waiting for ranks "
                        f"{waiting}\n" + self.pending_dump()
                        + (f"\nflight recorder dump: {flight}"
                           if flight else ""))
                self._agree_cond.wait(timeout=min(remaining, 0.25))
        self._publish("decided", (key, result))
        return result

    def _apply_agree(self, key, rank: int, value) -> None:
        with self._agree_cond:
            slot = self._agree_slots.setdefault(key, {})
            if isinstance(slot, dict):
                slot[rank] = value
                self._agree_cond.notify_all()

    def _apply_decided(self, key, result) -> None:
        with self._agree_cond:
            slot = self._agree_slots.get(key)
            if slot is None or isinstance(slot, dict):
                self._agree_slots[key] = ("decided", result)
                self._agree_cond.notify_all()

    # -- transport ----------------------------------------------------------
    def deliver(self, src: int, dest: int, ctx_id, tag, kind, payload,
                nbytes, jump: int = 0) -> int:
        """Stamp, count and post one message from *src* to *dest*.

        Returns the message's per-(src, dest) sequence number, which the
        sender's trace event shares with the receiver's so post-mortem
        analysis can match the two ends of every transfer.  *jump* is a
        chaos-injected reorder depth (see :meth:`_Mailbox.deposit`); the
        sequence number is stamped in true send order regardless, so
        trace matching survives reordering.
        """
        seq = self._pair_seq.get((src, dest), 0) + 1
        self._pair_seq[(src, dest)] = seq
        self._heartbeat[src] = time.monotonic()
        self.counters[src].record_send(dest, nbytes)
        self._post(dest, Message(ctx_id, src, tag, kind, payload, nbytes,
                                 seq), jump)
        return seq

    def total_traffic(self):
        """Aggregate (messages, bytes) over all ranks' send counters."""
        msgs = sum(c.snapshot().sends for c in self.counters)
        nbytes = sum(c.snapshot().bytes_sent for c in self.counters)
        return msgs, nbytes


class RankContext:
    """Per-thread handle identifying 'which rank am I' within a world."""

    def __init__(self, world: World, rank: int):
        self.world = world
        self.rank = rank

    # -- low-level typed transport (used by Comm) ---------------------------
    def _wire_copies(self, dest: int) -> bool:
        """Whether the transport copies a send to *dest* before ``_post``
        returns: a remote rank's wire (ring, segment or socket) makes the
        isolation copy, so the sender makes none.  Chaos may hold or
        rewrite a payload, so it always gets the sender's copy."""
        return self.world.is_remote_rank(dest) and not _CH.enabled

    def send_buffer(self, dest: int, ctx_id, tag, flat: np.ndarray) -> None:
        t0 = _TR.now() if _TR.enabled else 0.0
        jump = 0
        if self._wire_copies(dest):
            payload = np.ascontiguousarray(flat)
            nbytes = payload.nbytes
        else:
            payload = np.array(flat, copy=True, order="C")
            nbytes = payload.nbytes
            if _CH.enabled:
                payload, nbytes, jump = _CH.on_send(
                    self.rank, dest, "buffer", payload, nbytes)
            if isinstance(payload, np.ndarray):
                payload.flags.writeable = False
        seq = self.world.deliver(self.rank, dest, ctx_id, tag, "buffer",
                                 payload, nbytes, jump)
        if _TR.enabled:
            _TR.complete("mpi.p2p", "send", t0, rank=self.rank, dest=dest,
                         nbytes=nbytes, kind="buffer", seq=seq)

    def send_object(self, dest: int, ctx_id, tag, obj: Any) -> None:
        """Pickle *obj* and deposit it at *dest*.

        ndarray-bearing objects take the protocol-5 out-of-band path:
        ``pickle.dumps`` captures zero-copy :class:`pickle.PickleBuffer`
        views of the array data, and ONE copy is made per buffer: the
        isolation copy that stands in for the wire transfer, made below
        or, to a remote rank, by the wire itself.  The copy is read-only
        and the receiver unpickles arrays as views of it -- no second
        (deserialization) copy.  Objects without ndarrays keep the
        classic single-blob pickle path.
        """
        t0 = _TR.now() if _TR.enabled else 0.0
        buffers: List[pickle.PickleBuffer] = []
        blob = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
        if buffers:
            copy = not self._wire_copies(dest)
            frames = []
            nbytes = len(blob)
            for pb in buffers:
                frame = np.frombuffer(pb.raw(), dtype=np.uint8)
                if copy:
                    frame = frame.copy()
                pb.release()
                frame.flags.writeable = False
                frames.append(frame)
                nbytes += frame.nbytes
            kind = "pickle5"
            payload: Any = (blob, frames)
        else:
            kind = "pickle"
            payload = blob
            nbytes = len(blob)
        jump = 0
        if _CH.enabled:
            payload, nbytes, jump = _CH.on_send(self.rank, dest, kind,
                                                payload, nbytes)
        seq = self.world.deliver(self.rank, dest, ctx_id, tag, kind,
                                 payload, nbytes, jump)
        if _TR.enabled:
            _TR.complete("mpi.p2p", "send", t0, rank=self.rank, dest=dest,
                         nbytes=nbytes, kind=kind, seq=seq)

    def recv_message(self, ctx_id, source, tag,
                     timeout: Optional[float] = None,
                     members=None) -> Message:
        timeout = self.world.timeout if timeout is None else timeout
        if _CH.enabled:
            _CH.on_op("recv", self.rank)
        if _TR.enabled:
            # the span covers the blocked wait: recv time in the trace is
            # time spent *waiting* for the matching message
            t0 = _TR.now()
            msg = self.world.mailboxes[self.rank].retrieve(
                ctx_id, source, tag, timeout, members=members)
            self.world.counters[self.rank].record_recv(msg.src, msg.nbytes)
            _TR.complete("mpi.p2p", "recv", t0, rank=self.rank,
                         source=msg.src, nbytes=msg.nbytes, seq=msg.seq)
            return msg
        msg = self.world.mailboxes[self.rank].retrieve(
            ctx_id, source, tag, timeout, members=members)
        self.world.counters[self.rank].record_recv(msg.src, msg.nbytes)
        return msg

    def poll_message(self, ctx_id, source, tag,
                     remove: bool = False) -> Optional[Message]:
        msg = self.world.mailboxes[self.rank].poll(ctx_id, source, tag, remove)
        if msg is not None and remove:
            self.world.counters[self.rank].record_recv(msg.src, msg.nbytes)
            if _TR.enabled:
                _TR.instant("mpi.p2p", "recv.poll", rank=self.rank,
                            source=msg.src, nbytes=msg.nbytes, seq=msg.seq)
        return msg

    def bind(self) -> None:
        """Bind this context to the calling thread."""
        _tls.ctx = self
        _TR.set_thread_rank(self.rank)
        _CZ.note_rank_thread(f"rank {self.rank}")

    def unbind(self) -> None:
        if getattr(_tls, "ctx", None) is self:
            _tls.ctx = None
            _TR.set_thread_rank(None)
            _CZ.forget_rank_thread()


def run_spmd(fn: Callable[..., Any], nranks: int, args: Sequence = (),
             kwargs: Optional[dict] = None, timeout: Optional[float] = None,
             pass_comm: bool = True,
             fault_mode: str = "abort",
             backend: Optional[str] = None) -> List[Any]:
    """Run *fn* on every rank of a fresh *nranks*-rank world.

    This is the offline equivalent of ``mpiexec -n nranks``.  When
    *pass_comm* is true (default), *fn* is called as
    ``fn(comm, *args, **kwargs)`` with that rank's world communicator;
    otherwise ``fn(*args, **kwargs)`` and the rank obtains its communicator
    via :func:`repro.mpi.get_comm_world`.

    *backend* selects the transport (``"thread"`` | ``"process"``,
    default from ``REPRO_MPI_BACKEND``, then ``"thread"``): threads
    share one address space and one GIL; the process backend forks one
    OS process per rank for real multicore parallelism (see
    :mod:`repro.mpi.transport`).  On the process backend *fn* and its
    arguments cross the fork by inheritance (closures are fine) while
    results must pickle, and a rank that dies without reporting (e.g.
    SIGKILL) surfaces as a ``RuntimeError`` naming the rank instead of
    the original exception object.

    *fault_mode* selects what a rank death means for the others:

    - ``"abort"`` (default): any unhandled exception aborts the world;
      the first failing rank's exception is re-raised in the caller.
    - ``"failstop"``: an :class:`InjectedFault` marks just that rank
      failed; survivors see typed :class:`RankFailure` errors and may
      ``revoke()``/``shrink()`` and continue.  The dead rank's entry in
      the result list is its ``InjectedFault`` (or, for a process that
      died without reporting, the ``RuntimeError`` naming it); survivor
      exceptions other than the fault still re-raise.

    Returns the list of per-rank return values (index = rank).
    """
    from .comm import Intracomm  # local import: comm builds on runtime
    from .transport import launch

    if fault_mode not in ("abort", "failstop"):
        raise ValueError(f"unknown fault_mode {fault_mode!r}")
    kwargs = kwargs or {}

    def body(world: World, rank: int):
        ctx = RankContext(world, rank)
        ctx.bind()
        try:
            comm = Intracomm(ctx, list(range(nranks)))
            if pass_comm:
                return "ok", fn(comm, *args, **kwargs)
            return "ok", fn(*args, **kwargs)
        except InjectedFault as exc:
            if fault_mode == "failstop":
                world.mark_failed(rank, exc)
                return "fault", exc
            world.abort(rank, exc)
            return "err", exc
        except BaseException as exc:  # noqa: BLE001 - must propagate any error
            world.abort(rank, exc)
            return "err", exc
        finally:
            ctx.unbind()

    _world, ranks = launch(body, nranks, backend=backend, timeout=timeout)
    reports = ranks.finish()

    results: List[Any] = [None] * nranks
    errors: List[Optional[BaseException]] = [None] * nranks
    # ranks whose death *is* the experiment under failstop: a scripted
    # fault, or a process that died without reporting
    died = set()
    for rank, (tag, value) in enumerate(reports):
        if tag == "ok":
            results[rank] = value
            continue
        errors[rank] = value
        if fault_mode == "failstop" and tag in ("fault", "lost"):
            results[rank] = value
            died.add(rank)
    for rank, exc in enumerate(errors):
        if exc is None or isinstance(exc, AbortError) or rank in died:
            continue
        raise exc
    if fault_mode == "abort":
        for exc in errors:
            if exc is not None:
                raise exc
    return results

"""The ODIN process / worker-node runtime (Fig. 1 of the paper).

The end user interacts with the *ODIN process* (the calling thread, rank 0
of an internal world).  Worker nodes (ranks 1..N) sit in a service loop
receiving small control messages -- an opcode plus index metadata, "at most
tens of bytes" of payload for creation ops -- and perform all array
allocation, computation and data movement themselves.  Workers own a
private sub-communicator so they "can communicate directly with each other,
bypassing the ODIN process", which is how redistribution and halo exchange
avoid making the driver a bottleneck.

Synchronizing ops (GATHER, reductions, anything whose result the driver
needs) round-trip a tiny status gather.  Ops with no meaningful per-worker
result (CREATE, stores, deletes, SCATTER acks) are *batched*: they wait in
a driver-side epoch buffer, and the whole epoch travels as one broadcast
when the next synchronizing op (or a data-carrying scatter, a full buffer
or shutdown) ships it.  Workers run the records in order; any exception
of a batched record is recorded and delivered -- with the originating op
named -- at the next synchronizing op or explicit
:meth:`OdinContext.flush`.  A sequence of N store ops and one sync
therefore costs one broadcast and one gather instead of N + 1 of each,
and batched ops start on the workers only when their epoch ships.  Set
``REPRO_ODIN_BATCH=0`` (or ``batch=False``) for the classic
op-per-round-trip behavior.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..mpi.comm import Intracomm
from ..mpi.errors import (AbortError, CommRevokedError, DeadlockError,
                          InjectedFault, RankFailure)
from ..mpi.runtime import RankContext
from ..mpi.transport import launch, resolve_backend
from ..obs import causal as _CZ
from ..obs import status as _OBS
from ..recover import OpLog, remap_op_dists
from ..trace import TRACER as _TR
from .distribution import BlockDistribution, Distribution
from . import opcodes
from .worker import WorkerState, execute_op, _ship_function

__all__ = ["OdinContext", "init", "shutdown", "get_context",
           "worker_comm", "worker_index", "local_registry"]

# The driver-side catalogue of callables by name: @odin.local functions
# and the built-in kernels, entered at import time.  Workers never read
# it: call_local resolves a name here and the CALL_LOCAL op carries the
# function itself (_ship_function), the same on both backends.
local_registry: Dict[str, Callable] = {}

_worker_tls = threading.local()

# Opcodes whose per-worker result is always None: safe to fire-and-forget
# within a batched epoch.  SAVE and LOAD are deliberately absent (external
# file side effects should fail at the call site); result-bearing ops
# synchronize.  A SCATTER's own collective confirms delivery, so only its
# status ack rides the epoch.
ASYNC_OPCODES = frozenset({
    opcodes.CREATE, opcodes.DELETE, opcodes.DELETE_MANY, opcodes.UFUNC,
    opcodes.FUSED, opcodes.REDIST, opcodes.TRANSPOSE, opcodes.SLICE,
    opcodes.SETITEM, opcodes.SET_DIST, opcodes.SCATTER,
})

# the epoch buffer ships with a FLUSH once it holds this many ops, so one
# message, error delivery latency and the workers' deferred lists stay
# bounded
_EPOCH_CAP = 512


def _snapshot(seq):
    """*seq* -- an op, or a tuple or list inside one -- with every
    ndarray in it copied: the operand values of issue time, not of send
    time.  (One loop per container, no call per leaf: this runs for
    every batched op.)"""
    out = []
    for item in seq:
        kind = type(item)
        if kind is tuple or kind is list:
            item = _snapshot(item)
        elif isinstance(item, np.ndarray):
            item = item.copy()
        out.append(item)
    return out if type(seq) is list else tuple(out)


def _batching_default() -> bool:
    return os.environ.get("REPRO_ODIN_BATCH", "1") != "0"


def _recover_default() -> bool:
    return os.environ.get("REPRO_ODIN_RECOVER", "0") == "1"


def _ckpt_every_default() -> int:
    """Auto-checkpoint period in logged ops (0 = only explicit ckpts)."""
    try:
        return int(os.environ.get("REPRO_ODIN_CKPT", "0"))
    except ValueError:
        return 0


# Mutating opcodes recorded in the recovery op-log.  Read-only ops
# (GATHER, FETCH, PLAN_STATS) and external side effects (SAVE) replay as
# no-ops for state reconstruction, so they are skipped.  REDUCE is logged
# because its local-axis variant stores a result array.
_LOGGED_OPCODES = frozenset({
    opcodes.CREATE, opcodes.DELETE, opcodes.DELETE_MANY, opcodes.UFUNC,
    opcodes.FUSED, opcodes.REDIST, opcodes.TRANSPOSE, opcodes.SLICE,
    opcodes.SETITEM, opcodes.SET_DIST, opcodes.REDUCE, opcodes.CALL_LOCAL,
    opcodes.TRANSFORM, opcodes.GROUPBY, opcodes.LOAD, opcodes.SCATTER,
})


def worker_comm() -> Intracomm:
    """The workers-only communicator; valid inside worker execution
    (e.g. within an ``@odin.local`` function)."""
    comm = getattr(_worker_tls, "comm", None)
    if comm is None:
        raise RuntimeError("worker_comm() is only available on ODIN workers "
                           "(inside @odin.local functions)")
    return comm


def worker_index() -> int:
    """This worker's index in 0..nworkers-1 (inside worker execution)."""
    idx = getattr(_worker_tls, "index", None)
    if idx is None:
        raise RuntimeError("worker_index() is only available on ODIN workers")
    return idx


def worker_state():
    """This worker's :class:`~repro.odin.worker.WorkerState` (inside
    worker execution); gives local functions access to other arrays'
    local blocks by id."""
    state = getattr(_worker_tls, "state", None)
    if state is None:
        raise RuntimeError("worker_state() is only available on ODIN "
                           "workers")
    return state


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _worker_main(world, rank: int, recover: bool,
                 is_closing: Callable[[], bool]):
    """Entry point of one worker rank, however it was launched.

    Returns the launcher's ``(tag, value)`` report: ``"ok"`` only after
    a clean SHUTDOWN.  *is_closing* reads the driver's closing flag,
    which only workers sharing the driver's interpreter can see change.
    """
    ctx = RankContext(world, rank)
    ctx.bind()
    try:
        served = _worker_loop(ctx, world.nranks, recover, is_closing)
    except Exception:  # noqa: BLE001 - world aborted; driver already knows
        served = False
    finally:
        ctx.unbind()
    return ("ok" if served else "gone"), None


def _worker_loop(ctx: RankContext, nranks: int, recover: bool,
                 is_closing: Callable[[], bool]) -> bool:
    """One worker's life: serve ops until SHUTDOWN, recovering across
    communicator generations when *recover* is set.  Returns whether it
    ended in a clean SHUTDOWN."""
    world = ctx.world
    windex = ctx.rank - 1
    comm: Optional[Intracomm] = None
    state: Optional[WorkerState] = None
    while True:  # one iteration per communicator generation
        try:
            if comm is None:
                # setup is inside the try: a chaos-scripted crash can
                # fire in the startup split's collectives just as well
                # as mid-loop
                comm = Intracomm(ctx, list(range(nranks)))
                wcomm = comm.split(0, windex)
                state = WorkerState(index=windex, comm=wcomm,
                                    full_comm=comm)
                _worker_tls.comm = wcomm
                _worker_tls.index = windex
                _worker_tls.state = state
            _worker_serve(comm, state)
            return True
        except InjectedFault as exc:
            if recover:
                # fail-stop: this rank dies, survivors see typed
                # RankFailure and negotiate a shrink
                world.mark_failed(ctx.rank, exc)
                return False
            # chaos-scripted rank crash without recovery: die loudly so
            # the driver and the surviving workers fail fast with
            # AbortError instead of waiting out the deadlock timeout
            world.abort(ctx.rank, exc)
            return False
        except (RankFailure, CommRevokedError):
            if not recover or is_closing():
                return False  # teardown, or nobody will coordinate
            # survivor: poison both comms so every other survivor
            # unblocks (the driver only revokes the full comm; a peer
            # blocked in a worker-comm collective needs this revoke),
            # then rendezvous on the shrunk group
            if state is not None:
                state.comm.revoke()
            if comm is not None:
                comm.revoke()
                try:
                    new_full = comm.shrink()
                except DeadlockError:
                    # the driver is shutting down where this worker cannot
                    # see it: nobody will complete the shrink agreement --
                    # exit, the parent reaps us
                    return False
                new_wcomm = new_full.split(0, new_full.rank)
                new_index = new_full.rank - 1
                if state is None:
                    state = WorkerState(index=new_index,
                                        comm=new_wcomm,
                                        full_comm=new_full)
                else:
                    state.index = new_index
                    state.comm = new_wcomm
                    state.full_comm = new_full
                comm = new_full
                _worker_tls.comm = new_wcomm
                _worker_tls.index = new_index
                _worker_tls.state = state
                continue
            return False


def _worker_serve(comm: Intracomm, state: WorkerState) -> None:
    """The worker service loop; returns on SHUTDOWN, raises on faults.

    Each broadcast is one EPOCH envelope of records run in order.
    Errors of fire-and-forget records are deferred as (op_id, op name,
    exception) triples; only a final sync record posts a status gather,
    which carries them.  Record i's op_id is ``first_op_id + i``, so it
    matches the driver's _op_seq clock by construction -- across
    batching and across recovery replays, which re-send under fresh ids.

    Each record's causal identity stays published until the next record
    starts: the blocking wait for the next envelope is attributed to the
    last record of this one (a deliberate smear -- that wait is idle time
    its epoch left behind) and the result gather of a sync record is
    correctly tagged with its id.
    """
    deferred: List[Tuple[int, str, Exception]] = []
    while True:
        _code, first, eid, ops, sync = comm.bcast(None, root=0)
        final = first + len(ops) - 1 if sync else None
        for oid, op in enumerate(ops, first):
            _CZ.set_current(oid, eid)
            if op[0] == opcodes.SHUTDOWN:
                comm.gather(("ok", None, deferred), root=0)
                return
            if op[0] == opcodes.FLUSH:
                comm.gather(("ok", None, deferred), root=0)
                deferred = []
                continue
            try:
                status = ("ok", execute_op(state, op))
            except InjectedFault:
                # scripted chaos crash: the rank dies, it does not
                # report a recoverable op error
                raise
            except (RankFailure, CommRevokedError):
                # a peer died mid-op: enter recovery, do not report this
                # as an op error
                raise
            except Exception as exc:  # noqa: BLE001 - report to driver
                if oid != final:
                    deferred.append((oid, str(op[0]), exc))
                    continue
                status = ("err", exc)
            if oid == final:
                comm.gather(status + (deferred,), root=0)
                deferred = []


class OdinContext:
    """One driver plus *nworkers* persistent workers.

    ``backend="thread"`` (default) runs workers as daemon threads in the
    calling process -- zero-copy mailboxes, no real parallelism for
    pure-Python op streams (the GIL).  ``backend="process"``
    forks one OS process per worker over the multiprocess transport
    (:mod:`repro.mpi.transport`): true parallelism, shared-memory bulk
    frames, and *real* fail-stop -- a SIGKILLed worker surfaces as the
    same typed :class:`RankFailure` the thread backend injects.
    """

    def __init__(self, nworkers: int, timeout: Optional[float] = None,
                 batch: Optional[bool] = None,
                 recover: Optional[bool] = None,
                 ckpt_every: Optional[int] = None,
                 backend: Optional[str] = None):
        if nworkers < 1:
            raise ValueError("need at least one worker")
        self.nworkers = nworkers
        self._backend = resolve_backend(backend)
        # both flags are read by the workers, so they exist before launch
        self._recover = _recover_default() if recover is None \
            else bool(recover)
        self._closing = False
        self.world, self._ranks = launch(
            lambda world, rank: _worker_main(world, rank, self._recover,
                                             lambda: self._closing),
            nworkers + 1, backend=self._backend, timeout=timeout,
            driver=True)
        # leases: a worker that dies without reporting (an uncaught
        # error, SIGKILL, a fatal signal) is detected as a failed rank by
        # blocked peers on their next 0.25 s wake
        for rank, handle in enumerate(self._ranks.handles, start=1):
            self.world.register_lease(rank, handle)
        self._driver_ctx = RankContext(self.world, 0)
        self.comm = Intracomm(self._driver_ctx,
                              list(range(nworkers + 1)))
        self._next_array_id = 0
        self._alive = True
        self._pending_deletes: List[int] = []
        self._batch = _batching_default() if batch is None else bool(batch)
        self._op_seq = 0       # control ops issued so far; doubles as
        #                        the causal op_id of the newest one
        self._epoch_id = 0     # synchronizing gathers completed so far
        # ops issued but not yet on the wire, in order; they hold the ids
        # _op_seq - len + 1 .. _op_seq
        self._epoch: List[tuple] = []
        self._last_plan_stats: Optional[Dict[str, Any]] = None
        self._lock = threading.RLock()
        # -- fault recovery (repro.recover) --
        self._ckpt_every = _ckpt_every_default() if ckpt_every is None \
            else int(ckpt_every)
        self._oplog: Optional[OpLog] = OpLog() if self._recover else None
        self._ckpt_version = 0   # 0 = empty baseline (replay the full log)
        # checkpoint-generation bookkeeping: blocks in a checkpoint are
        # laid out for the worker count at checkpoint time.  _ckpt_map[j]
        # is current worker j's index in that generation, _ckpt_dead the
        # generation indices whose owner has since died; both compose
        # across repeated shrinks until a new checkpoint re-anchors them.
        self._ckpt_map: List[int] = list(range(nworkers))
        self._ckpt_dead: set = set()
        self._ckpt_n = nworkers
        self._recovering = False
        # live DistArray handles, re-pointed after a recovery replay
        self._handles: "weakref.WeakValueDictionary[int, Any]" = \
            weakref.WeakValueDictionary()
        # live observability: the creating thread is the "driver" lane
        # for the sampling profiler, and the context is visible on the
        # /status endpoint (started here iff REPRO_OBS_PORT is set)
        _CZ.note_rank_thread("driver")
        _OBS.register_context(self)
        # Workers split off their own comm; the driver passes a negative
        # color so it is excluded (split over the full comm, collective).
        # A chaos crash can land inside this startup collective; recovery
        # shrinks around it exactly as it would mid-program.
        try:
            self.comm.split(-1, 0)
        except (RankFailure, CommRevokedError) as exc:
            if not self._recover:
                raise
            self._recover_and_replay(exc)

    # ------------------------------------------------------------------
    # driver side
    # ------------------------------------------------------------------
    def _stamp(self, op) -> None:
        """Give *op* the next causal op_id and append it to the epoch
        buffer (lock held).  The id is published thread-locally at once,
        so everything the driver does for the op -- its ``odin.control``
        span, and the broadcast when the op is the one that ships the
        epoch -- is attributed to it."""
        self._op_seq += 1
        _CZ.set_current(self._op_seq, self._epoch_id)
        self._epoch.append(op)

    def _ship(self, sync: bool) -> None:
        """Broadcast the epoch buffer as one EPOCH envelope (lock held).
        *sync* says the last record posts a status gather.  The buffer
        empties before the wire goes hot, so a failure mid-broadcast
        leaves nothing to send twice: recovery replays the op-log."""
        ops, self._epoch = tuple(self._epoch), []
        self.comm.bcast((opcodes.EPOCH, self._op_seq - len(ops) + 1,
                         self._epoch_id, ops, sync), root=0)

    def _check_alive(self) -> None:
        if not self._alive:
            raise RuntimeError("ODIN context has been shut down")

    def _process_statuses(self, statuses, opname: str) -> List[Any]:
        """Unpack per-worker (tag, payload, deferred) gather statuses.

        Deferred errors from earlier fire-and-forget ops take precedence
        over a failure of the current op (they happened first); among all
        collected errors the one with the smallest op_id is raised,
        annotated with the op (and causal op_id) it came from.
        """
        results = []
        errs: List[Tuple[int, str, Exception]] = []
        for status in statuses[1:]:
            tag, payload, deferred = status
            errs.extend(deferred)
            if tag == "err":
                errs.append((self._op_seq, opname, payload))
                results.append(None)
            else:
                results.append(payload)
        if errs:
            seq, err_op, exc = min(errs, key=lambda e: e[0])
            if seq < self._op_seq and hasattr(exc, "add_note"):
                exc.add_note(
                    f"deferred from batched op {err_op!r} (op_id {seq}); "
                    f"delivered at the next synchronizing op ({opname!r})")
            raise exc
        return results

    def _issue(self, *op, data=None) -> List[Any]:
        """Dispatch one user-level control op: send it under recovery,
        record its ``odin.control`` span and log it for replay.  *data*
        is the global array a SCATTER ships.

        An op that may wait in the epoch buffer or in the op-log is sent
        with copies of the ndarrays in its arguments, so a caller that
        mutates an operand after the call cannot change what the op
        computes, now or on a recovery replay."""
        logged = (self._oplog is not None and not self._recovering
                  and op[0] in _LOGGED_OPCODES)
        if logged or op[0] in ASYNC_OPCODES:
            op = _snapshot(op)
        rec = _TR.recording
        t0 = _TR.now() if rec else 0.0
        out: Optional[List[Any]] = []   # stays [] if the op raised
        try:
            out = self._with_recovery(self._send, op, data)
        finally:
            if rec:
                # the causal ids are known only after _stamp ran; after a
                # recovery the retried op's fresh id is current, which is
                # the id the workers executed the op under
                oid, eid = _CZ.current()
                if data is not None:
                    # global -> local transition: real data leaves the
                    # driver
                    _TR.complete("odin.control", "scatter", t0,
                                 rank="driver", nbytes=int(data.nbytes),
                                 op_id=oid, epoch_id=eid)
                else:
                    name = str(op[0]) if out is not None \
                        else f"{op[0]}.async"
                    _TR.complete("odin.control", name, t0, rank="driver",
                                 nworkers=self.nworkers, op_id=oid,
                                 epoch_id=eid)
        if logged:
            self._oplog.record(op, data)
            self._maybe_auto_ckpt()
        return [None] * self.nworkers if out is None else out

    def _send(self, op, data=None) -> Optional[List[Any]]:
        """Put one op on the wire: the driver's only route to its workers
        besides SHUTDOWN.

        Arrays whose handles were garbage collected go first, as one
        DELETE_MANY: ``DistArray.__del__`` must not issue ops itself (GC
        can fire in the middle of another op's bcast/gather pair), so it
        only queues ids.  With batching on, an op in ASYNC_OPCODES rides
        the current epoch -- it joins the buffer, its errors are deferred
        to the next status gather, None is returned; every other op
        ships the buffer with itself last, closes the epoch with a status
        gather and returns the per-worker results.  A riding op with
        *data* (a SCATTER) ships the buffer at once, since its blocks are
        scattered right after the broadcast; a buffer that reaches
        ``_EPOCH_CAP`` ships with a FLUSH.
        """
        with self._lock:
            self._check_alive()
            if self._pending_deletes:
                ids, self._pending_deletes = self._pending_deletes, []
                drain = (opcodes.DELETE_MANY, ids)
                if self._oplog is not None and not self._recovering:
                    # the drain rides the wire before the op that flushed
                    # it, so it must precede that op in the log as well
                    self._oplog.record(drain)
                self._send(drain)
            rides = self._batch and op[0] in ASYNC_OPCODES
            self._stamp(op)
            if rides and data is None:
                if len(self._epoch) >= _EPOCH_CAP:
                    self._send((opcodes.FLUSH,))
                return None
            self._ship(not rides)
            if data is not None:
                # (SCATTER, array_id, dist, dtype): cut by the op's own
                # distribution; the driver's slot is unused.  Workers
                # take their block inside the op handler.
                dist = op[2]
                self.comm.scatter([None] + [
                    np.ascontiguousarray(data[dist.global_selector(w)])
                    for w in range(self.nworkers)], root=0)
            if rides:
                return None
            statuses = self.comm.gather(None, root=0)
            self._epoch_id += 1
        return self._process_statuses(statuses, str(op[0]))

    def flush(self) -> None:
        """Synchronize with the workers and deliver any deferred errors
        from fire-and-forget ops in the current epoch."""
        if self._alive:
            self._with_recovery(self._send, (opcodes.FLUSH,))

    def new_array_id(self) -> int:
        with self._lock:
            self._next_array_id += 1
            return self._next_array_id

    # ------------------------------------------------------------------
    # fault recovery (repro.recover)
    # ------------------------------------------------------------------
    def _maybe_auto_ckpt(self) -> None:
        if (self._ckpt_every > 0 and self._oplog is not None
                and not self._recovering
                and len(self._oplog) >= self._ckpt_every):
            self.checkpoint()

    def checkpoint(self) -> int:
        """Snapshot every live array, mirrored on each worker's ring
        partner (SCR-style partner copy), and truncate the replay log.

        Returns the number of bytes checkpointed across all workers.  A
        crash *during* the checkpoint is safe: workers keep the previous
        version until the new one completes, and the log is only cleared
        on success, so recovery falls back to version ``N-1`` plus the
        full log.
        """
        self._check_alive()
        if self._oplog is None:
            raise RuntimeError(
                "checkpoint() requires recover=True (or "
                "REPRO_ODIN_RECOVER=1) so the op-log half of "
                "checkpoint/replay is maintained")
        version = self._ckpt_version + 1
        t0 = _TR.now()
        sizes = self._with_recovery(self._send, (opcodes.CKPT, version))
        nbytes = sum(int(s) for s in sizes)
        if _TR.enabled:
            _TR.complete("recover", "checkpoint", t0, rank="driver",
                         version=version, nbytes=nbytes)
        self._ckpt_version = version
        self._oplog.clear()
        self._ckpt_map = list(range(self.nworkers))
        self._ckpt_dead = set()
        self._ckpt_n = self.nworkers
        return nbytes

    def _with_recovery(self, fn: Callable, *args):
        """Run a driver-side control op; on a worker failure, shrink the
        world, restore state, replay the log, and retry the op.

        Terminates because every recovery round permanently removes at
        least one worker, and an unrecoverable state raises RuntimeError
        (not a fault type) out of the retry loop.
        """
        while True:
            try:
                return fn(*args)
            except (RankFailure, CommRevokedError) as exc:
                if (isinstance(exc, RankFailure)
                        and getattr(exc, "op_id", None) is None):
                    # attribute the failure to the control op in flight;
                    # _stamp published the id before the wire went hot
                    exc.op_id = _CZ.current_op_id()
                    if hasattr(exc, "add_note"):
                        exc.add_note("raised while issuing control op_id "
                                     f"{exc.op_id}")
                if (not self._recover or self._recovering
                        or self._closing or not self._alive):
                    raise
                while True:
                    try:
                        self._recover_and_replay(exc)
                        break
                    except (RankFailure, CommRevokedError) as exc2:
                        # another rank died mid-recovery: go again (the
                        # log was not cleared, the checkpoint stands)
                        exc = exc2
                args = remap_op_dists(args, self.nworkers)

    def _recover_and_replay(self, exc: Exception) -> None:
        """ULFM-style mitigation + state recovery, driver side.

        revoke -> shrink -> re-split the worker comm -> RESTORE (workers
        rebuild checkpointed arrays from own + partner blocks and
        redistribute onto the survivor layout) -> replay the op-log ->
        re-point live DistArray handles at their post-replay
        distributions.
        """
        self._recovering = True
        # ops buffered before the failure are in the op-log: replay sends
        # each of them once, so none may also ship from the buffer
        self._epoch = []
        t0 = _TR.now()
        replayed = 0
        ok = False
        try:
            old_ranks = list(self.comm._world_ranks)
            self.comm.revoke()
            new_full = self.comm.shrink()
            old_workers = old_ranks[1:]
            survivors = set(new_full._world_ranks)
            new_workers = list(new_full._world_ranks[1:])
            if not new_workers:
                raise RuntimeError(
                    "unrecoverable: every ODIN worker has failed"
                ) from exc
            # survivor j's old index, and the old indices now dead
            old_indices = [old_workers.index(wr) for wr in new_workers]
            dead_indices = [i for i, wr in enumerate(old_workers)
                            if wr not in survivors]
            self.comm = new_full
            # compose this shrink into the checkpoint-generation map
            # (exactly once per generation: a crash later in this
            # method retries with the composed map already in place)
            self._ckpt_dead |= {self._ckpt_map[i]
                                for i in dead_indices}
            self._ckpt_map = [self._ckpt_map[i] for i in old_indices]
            # workers split their private sub-comm off the shrunk
            # comm as its first collective (tags stay aligned)
            self.comm.split(-1, 0)
            self.nworkers = len(new_workers)
            self._send((opcodes.RESTORE, self._ckpt_version, self._ckpt_map,
                        sorted(self._ckpt_dead), self._ckpt_n))
            # length-changing ops (TRANSFORM, GROUPBY shuffle) yield
            # different per-worker counts on the shrunk layout; their
            # paired SET_DIST must be rebuilt from the replayed
            # counts, not remapped from the logged distribution
            fresh_counts: Dict[int, List[int]] = {}
            for op, data in self._oplog.entries():
                try:
                    op = remap_op_dists(op, self.nworkers)
                    if op[0] == opcodes.SET_DIST and op[1] in fresh_counts:
                        counts = fresh_counts.pop(op[1])
                        op = (opcodes.SET_DIST, op[1], BlockDistribution(
                            (sum(counts),), 0, self.nworkers, counts=counts))
                    results = self._send(op, data)
                    if op[0] in (opcodes.TRANSFORM, opcodes.GROUPBY):
                        fresh_counts[op[2]] = [int(c) for c, _dt in results]
                except (RankFailure, CommRevokedError, AbortError):
                    raise
                except Exception:
                    # app-level op error: it was already delivered to
                    # the caller once, before the crash
                    pass
                replayed += 1
            # synchronize (tolerantly: deferred app errors were also
            # delivered pre-crash) and re-point live handles
            try:
                self._send((opcodes.FLUSH,))
            except (RankFailure, CommRevokedError, AbortError):
                raise
            except Exception:
                pass
            self._sync_handles()
            # re-anchor (SCR-style): the surviving partner copies are
            # laid out for the old generation and cannot cover a
            # second adjacent death, so snapshot the recovered state
            # on the survivor layout and truncate the log
            version = self._ckpt_version + 1
            self._send((opcodes.CKPT, version))
            self._ckpt_version = version
            self._oplog.clear()
            self._ckpt_map = list(range(self.nworkers))
            self._ckpt_dead = set()
            self._ckpt_n = self.nworkers
            ok = True
        finally:
            self._recovering = False
            if _TR.recording:
                _TR.complete("recover", "shrink+replay", t0, rank="driver",
                             cause=repr(exc),
                             op_id=getattr(exc, "op_id", None),
                             replayed=replayed, nworkers=self.nworkers,
                             ok=ok)

    def _sync_handles(self) -> None:
        """Re-point live DistArray handles at their authoritative
        post-recovery distributions (worker 0's view)."""
        ids = list(self._handles.keys())
        if not ids:
            return
        views = self._send((opcodes.DIST_SYNC, ids))
        dists = views[0] or {}
        for aid, dist in dists.items():
            arr = self._handles.get(aid)
            # a None dist is a transform output awaiting its SET_DIST;
            # leave the handle's metadata alone
            if arr is not None and dist is not None:
                arr.dist = dist

    def _register_handle(self, arr) -> None:
        """Track a live DistArray so recovery can fix its metadata.

        A handle can be constructed from a distribution computed *before*
        a recovery that shrank the pool mid-op (the caller's local
        variable is not remapped by the retry); when the worker counts
        disagree, fetch the authoritative post-replay layout.
        """
        self._handles[arr.array_id] = arr
        if (self._recover and not self._recovering
                and arr.dist is not None
                and arr.dist.nworkers != self.nworkers):
            views = self._with_recovery(
                self._send, (opcodes.DIST_SYNC, [arr.array_id]))
            dist = (views[0] or {}).get(arr.array_id)
            if dist is not None:
                arr.dist = dist

    # -- array lifecycle -------------------------------------------------
    def create(self, array_id: int, dist: Distribution, dtype,
               fill_spec) -> None:
        """Allocate + initialize locally on every worker: the only
        communication is this short descriptor message."""
        self._issue(opcodes.CREATE, array_id, dist, np.dtype(dtype).str,
                    fill_spec)

    def scatter(self, array_id: int, dist: Distribution,
                array: np.ndarray) -> None:
        """Ship real data from the driver (data plane, not control)."""
        array = np.asarray(array)
        self._issue(opcodes.SCATTER, array_id, dist, array.dtype.str,
                    data=array)

    def delete(self, array_id: int) -> None:
        """Queue an array for deletion (safe to call from __del__)."""
        if self._alive:
            self._pending_deletes.append(array_id)

    def gather(self, array_id: int) -> np.ndarray:
        """Assemble the full array on the driver."""
        if _TR.enabled:
            # local -> global transition: blocks reassemble on the driver
            with _TR.span("odin.control", "gather.assemble", rank="driver"):
                return self._gather_impl(array_id)
        return self._gather_impl(array_id)

    def _gather_impl(self, array_id: int) -> np.ndarray:
        pieces = self._issue(opcodes.GATHER, array_id)
        dist, blocks = pieces[0][0], [p[1] for p in pieces]
        out = np.empty(dist.global_shape, dtype=blocks[0].dtype)
        for w, block in enumerate(blocks):
            out[dist.global_selector(w)] = block
        return out

    # -- compute ----------------------------------------------------------
    def run(self, *op) -> List[Any]:
        """Generic op dispatch (used by the array layer)."""
        return self._issue(*op)

    def call_local(self, fname: str, arg_specs, kwarg_specs,
                   out_id: Optional[int] = None,
                   out_dist=None) -> List[Any]:
        """Invoke the function catalogued as *fname* in
        :data:`local_registry` on every worker; the op carries it by value.

        When *out_dist* is given, a worker whose return block matches that
        distribution's local shape stores it under *out_id* (otherwise the
        first array argument's distribution is the storage candidate).
        """
        return self._issue(opcodes.CALL_LOCAL,
                           _ship_function(local_registry[fname]), arg_specs,
                           kwarg_specs, out_id, out_dist)

    # -- instrumentation ---------------------------------------------------
    def control_traffic(self):
        """(messages, bytes) sent by the ODIN process so far: the control
        plane of Fig. 1."""
        snap = self.world.counters[0].snapshot()
        return snap.sends, snap.bytes_sent

    def worker_traffic(self):
        """(messages, bytes) of worker-to-worker data-plane traffic."""
        msgs = 0
        nbytes = 0
        for wr in self.comm._world_ranks[1:]:
            snap = self.world.fetch_counters(wr)
            for peer, b in snap.by_peer.items():
                if peer != 0:  # exclude worker->driver result traffic
                    nbytes += b
            msgs += snap.sends
        return msgs, nbytes

    def reset_counters(self) -> None:
        self.world.reset_all_counters()

    # -- worker control ----------------------------------------------------
    def worker_pids(self) -> List[int]:
        """OS pids of the worker processes (process backend; empty list
        for thread workers).  Index j is worker j (world rank j+1)."""
        return [h.pid for h in self._ranks.handles if h.pid is not None]

    def install_chaos(self, plan) -> None:
        """Arm a :class:`~repro.chaos.core.FaultPlan` on every rank.

        Workers sharing this interpreter share the process-wide engine,
        so the local install covers them.  Workers in other processes
        each get a CHAOS_INSTALL control op first (synchronizing, so the
        plan is armed before any later op executes); their rank-local
        step counts start a few ops later than thread mode's -- the
        install round-trip itself -- which shifts *where* a crash rule
        fires, never whether results stay oracle-conformant.
        """
        from ..chaos.core import ENGINE
        if not self.world.shares_memory:
            self._issue(opcodes.CHAOS_INSTALL, plan.to_dict())
        ENGINE.install(plan)

    def uninstall_chaos(self) -> None:
        """Disarm fault injection everywhere (driver first, so an
        abort-poisoned world cannot leave the local engine hot)."""
        from ..chaos.core import ENGINE
        ENGINE.uninstall()
        if not self.world.shares_memory and self._alive:
            try:
                self._issue(opcodes.CHAOS_UNINSTALL)
            except Exception:  # noqa: BLE001 - aborted world: the engine
                pass           # dies with the worker processes anyway

    def plan_cache_stats(self) -> Dict[str, Any]:
        """Communication plans the workers built so far, in cache terms:
        every redistribution and slice builds its own plan, so ``hits``
        is 0 and ``misses`` counts the plans."""
        out = {"hits": 0, "misses": sum(self._issue(opcodes.PLAN_STATS))}
        # cached for the /status endpoint, which must never issue ops
        self._last_plan_stats = out
        return out

    def status(self) -> Dict[str, Any]:
        """Runtime state snapshot for the ``/status`` endpoint.

        Lock-free and communication-free by design: reads of driver-side
        counters plus the same per-rank pending/heartbeat table a
        ``DeadlockError`` would print, so it answers even when the
        workload is wedged inside a collective.  Values may be slightly
        stale under concurrent mutation -- that is the contract.
        """
        return {
            "kind": "odin.context",
            "alive": self._alive,
            "backend": self._backend,
            "nworkers": self.nworkers,
            "batching": self._batch,
            "op_id": self._op_seq,
            "epoch_id": self._epoch_id,
            "epoch_len": len(self._epoch),
            "pending_deletes": len(self._pending_deletes),
            "recover": self._recover,
            "ckpt_version": self._ckpt_version,
            "oplog_len": 0 if self._oplog is None else len(self._oplog),
            "plan_cache": self._last_plan_stats,
            "ranks": self.world.status(),
        }

    # -- lifecycle ---------------------------------------------------------
    def shutdown(self) -> None:
        statuses = None
        with self._lock:
            if not self._alive:
                return
            self._closing = True
            try:
                # trailing buffered ops ship ahead of the SHUTDOWN record
                self._stamp((opcodes.SHUTDOWN,))
                self._ship(True)
                statuses = self.comm.gather(None, root=0)
            except AbortError:
                # world already abort-poisoned (e.g. a chaos crash): the
                # caller saw the AbortError from the failing op itself;
                # teardown must not raise it a second time
                pass
            except (RankFailure, CommRevokedError):
                # a worker died and nobody is recovering it: teardown must
                # not raise.  Revoke so any survivor blocked in a
                # collective unblocks and exits via its _closing path.
                try:
                    self.comm.revoke()
                except Exception:  # noqa: BLE001 - teardown best effort
                    pass
            self._alive = False
        # join (or reap) the workers; the launcher folds the counters and
        # trace events of workers in other interpreters into ours, so
        # post-shutdown worker_traffic() and trace exports see them
        self._ranks.finish(10)
        self.world.close()
        # deferred errors from a trailing epoch must not vanish silently
        if statuses is not None:
            self._process_statuses(statuses, str(opcodes.SHUTDOWN))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()

    def __repr__(self):
        state = "alive" if self._alive else "shut down"
        return f"OdinContext({self.nworkers} workers, {state})"


_default_context: Optional[OdinContext] = None


def init(nworkers: int = 4, timeout: Optional[float] = None,
         batch: Optional[bool] = None, recover: Optional[bool] = None,
         ckpt_every: Optional[int] = None,
         backend: Optional[str] = None) -> OdinContext:
    """Start (or restart) the default ODIN context.

    *backend* picks the worker transport: ``"thread"`` (default) or
    ``"process"``; ``None`` defers to ``REPRO_MPI_BACKEND``.
    """
    global _default_context
    if _default_context is not None and _default_context._alive:
        _default_context.shutdown()
    _default_context = OdinContext(nworkers, timeout=timeout, batch=batch,
                                   recover=recover, ckpt_every=ckpt_every,
                                   backend=backend)
    return _default_context


def shutdown() -> None:
    """Stop the default context's workers."""
    global _default_context
    if _default_context is not None:
        _default_context.shutdown()
        _default_context = None


def get_context() -> OdinContext:
    """The default context, auto-started with 4 workers if absent."""
    global _default_context
    if _default_context is None or not _default_context._alive:
        _default_context = OdinContext(4)
    return _default_context

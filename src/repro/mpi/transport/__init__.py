"""Transports for the SPMD runtime, and the one launcher that starts ranks.

:class:`~repro.mpi.runtime.World` holds every runtime algorithm once --
delivery accounting, failure propagation, revocation, agreement, leases.
A transport supplies only the seam under it:

- ``_post(dest, msg, jump)`` puts one stamped message on the wire;
- ``_publish(msgtype, body)`` tells the peers about a failure,
  revocation or agreement step (they apply it with the matching
  ``_apply_*`` method and never re-publish);
- ``fetch_counters`` / ``reset_all_counters`` reach ranks' traffic
  counters, ``is_remote_rank`` says where a rank's state lives (RMA),
  ``close`` releases the transport;
- ``shares_memory`` is the one capability callers may read: whether
  every rank runs in the caller's interpreter.

Two transports implement it:

- ``"thread"`` -- :class:`~repro.mpi.runtime.World` itself: one OS
  thread per rank, in-memory mailboxes, one address space.  Every seam
  method is trivial.  Deterministic under chaos injection and cheap to
  spin up, so it stays the default for tests.
- ``"process"`` -- :class:`.process_backend.ProcessWorld`: one forked OS
  process per rank, a shared-memory queue per rank pair for every data
  message (bulk ndarray frames through per-peer rings), a pre-fork
  socketpair mesh for control frames and doorbells, and *real* failure
  detection (a dead process closes its sockets).  This is the transport
  that escapes the GIL: rank compute genuinely overlaps on multicore.
  It starts on x86-64 hosts only (the queue relies on their store
  order).

:func:`launch` is the only place that knows how ranks start.  It runs
``body(world, rank)`` either as threads over one shared ``World`` or as
forked children, each with its own ``ProcessWorld``, and returns
handles that double as rank leases.  ``run_spmd`` and ``OdinContext``
both start their ranks through it.

Selection: the ``backend=`` argument of
:func:`~repro.mpi.runtime.run_spmd` / :class:`~repro.odin.context.OdinContext`,
falling back to the ``REPRO_MPI_BACKEND`` environment variable, falling
back to ``"thread"``.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
import time
from typing import Any, Callable, List, Optional

from ...trace import TRACER as _TR
from ..runtime import World

__all__ = ["BACKENDS", "resolve_backend", "launch", "RankGroup"]

BACKENDS = ("thread", "process")


def resolve_backend(backend=None) -> str:
    """Normalize a backend choice (explicit arg > env var > thread)."""
    if backend is None or backend == "":
        backend = os.environ.get("REPRO_MPI_BACKEND", "").strip() \
            or "thread"
    backend = str(backend).strip().lower()
    if backend not in BACKENDS:
        raise ValueError(f"unknown transport backend {backend!r}; "
                         f"expected one of {BACKENDS}")
    return backend


def _picklable_exc(exc: Optional[BaseException]) -> Optional[BaseException]:
    """An exception safe to send to another process (fallback: repr)."""
    if exc is None:
        return None
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any pickling failure
        return RuntimeError(f"[unpicklable {type(exc).__name__}] {exc!r}")


# ----------------------------------------------------------------------
# rank handles: each one is also the rank's lease (is_alive)
# ----------------------------------------------------------------------
class _RankThread(threading.Thread):
    """A rank body on a thread of the caller's process.

    Like a forked rank, a rank that completed stays alive -- its lease
    unexpired -- until released: a peer still finishing its own last
    collective must not see it as dead.
    """

    pid = None
    exitcode = None

    def __init__(self, body: Callable, world, rank: int):
        super().__init__(name=f"repro-rank-{rank}", daemon=True)
        self.rank = rank
        self._body = body
        self._world = world
        self._report = None
        self._reported = threading.Event()
        self._released = threading.Event()

    def run(self) -> None:
        try:
            self._report = self._body(self._world, self.rank)
        finally:
            self._reported.set()
        if self._report[0] == "ok":
            self._released.wait()

    def wait(self, deadline: float):
        """The body's ``(tag, value)`` report, or None if it died
        without one or is still running at *deadline*."""
        self._reported.wait(min(max(deadline - time.monotonic(), 0.0),
                                threading.TIMEOUT_MAX))
        return self._report

    def release(self) -> None:
        self._released.set()

    def reap(self) -> None:
        if self._reported.is_set():
            self.join()


class _RankProcess:
    """A rank body in a forked child; reports over a pipe."""

    def __init__(self, proc, conn, rank: int):
        self.proc = proc
        self.conn = conn
        self.rank = rank

    @property
    def pid(self):
        return self.proc.pid

    @property
    def exitcode(self):
        return self.proc.exitcode

    def is_alive(self) -> bool:
        return self.proc.is_alive()

    def _recv(self):
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            return None

    def wait(self, deadline: float):
        """The child's ``(tag, value, counters, trace events)`` report,
        or None if it died without reporting or is still running at
        *deadline*."""
        while True:
            remaining = deadline - time.monotonic()
            if self.conn.poll(min(max(remaining, 0.0), 0.25)):
                return self._recv()
            if not self.proc.is_alive():
                # exited: one grace poll for a report racing the exit
                return self._recv() if self.conn.poll(0.25) else None
            if remaining <= 0:
                return None

    def release(self) -> None:
        try:
            self.conn.send("release")
        except (OSError, BrokenPipeError):
            pass

    def reap(self) -> None:
        self.proc.join(timeout=10)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=10)
        self.conn.close()


class RankGroup:
    """The ranks one :func:`launch` started, and how to end them."""

    def __init__(self, handles: List[Any], world=None,
                 session_id: Optional[str] = None):
        #: one handle per launched rank, in rank order; each has
        #: ``is_alive()`` and so serves as that rank's lease
        self.handles = handles
        self._world = world
        self._session_id = session_id

    def finish(self, budget: Optional[float] = None) -> List[tuple]:
        """Wait up to *budget* seconds (None: as long as it takes) for
        every rank's ``(tag, value)`` report.

        Ranks that completed stay alive, forked ones with their sockets
        open, until every rank has reported -- an early EOF or expired
        lease would read as a failure to stragglers -- so they are
        released only here, then reaped (forked ones killed if
        unresponsive).  Forked ranks' counters fold into the caller's
        world and their trace events into the tracer, so both read the
        same as with thread ranks.  A rank that never reported gets
        ``("lost", RuntimeError)`` naming it.
        """
        deadline = time.monotonic() + (math.inf if budget is None
                                       else budget)
        raw = [h.wait(deadline) for h in self.handles]
        hung = [report is None and h.is_alive()
                for h, report in zip(self.handles, raw)]
        for h in self.handles:
            h.release()
        for h in self.handles:
            h.reap()
        if self._session_id is not None:
            from .shm import sweep_session
            sweep_session(self._session_id)
        reports = []
        for h, report, stuck in zip(self.handles, raw, hung):
            if report is None:
                reports.append(("lost", RuntimeError(
                    f"rank {h.rank} died without reporting"
                    + ("" if h.exitcode is None
                       else f" (exit code {h.exitcode})")
                    + (" [unresponsive]" if stuck else ""))))
                continue
            tag, value, *stats = report
            if stats:
                snap, events = stats
                if self._world is not None:
                    self._world.counters[h.rank].absorb(snap)
                if events and _TR.enabled:
                    _TR.absorb(events)
            reports.append((tag, value))
        return reports


def _forked_rank(mesh, rank: int, nranks: int, body: Callable, timeout,
                 conn) -> None:
    """A forked child's whole life: claim its endpoints, run the body,
    report, and hold the endpoints open until released."""
    from .process_backend import ProcessWorld

    world = ProcessWorld(nranks, rank, mesh.session_id, mesh.activate(rank),
                         timeout=timeout)
    if _TR.enabled:
        _TR.clear()  # drop fork-inherited events; ship only our own
    tag, value = body(world, rank)
    stats = (world.counters[rank].snapshot(),
             _TR.events() if _TR.enabled else None)
    try:
        conn.send((tag, value) + stats)
    except Exception:  # noqa: BLE001 - e.g. unpicklable result
        try:
            conn.send(("err", RuntimeError(
                f"rank {rank} result could not be pickled back to the "
                f"driver (process backend requires picklable returns)")
                if tag == "ok" else _picklable_exc(value)) + stats)
        except Exception:  # noqa: BLE001 - give up, parent synthesizes
            pass
    # Dead ranks (fault/abort) skip the wait: their peers were already
    # told the true cause by a published failstop/abort.
    if tag == "ok":
        try:
            conn.poll(world.timeout + 30)
        except Exception:  # noqa: BLE001 - parent died; just exit
            pass
    conn.close()
    world.close()


def launch(body: Callable, nranks: int, backend: Optional[str] = None,
           timeout: Optional[float] = None, driver: bool = False):
    """Start ``body(world, rank)`` on every rank the caller does not own.

    *body* returns a ``(tag, value)`` report; tag ``"ok"`` means the rank
    completed.  With *driver* the caller is rank 0 and bodies run ranks
    1..nranks-1; otherwise they run every rank and the caller only
    waits.  Returns ``(world, group)``: *world* is the caller's view (the
    shared :class:`~repro.mpi.runtime.World` for threads; for forked
    ranks the rank-0 ``ProcessWorld`` with *driver*, else None) and
    *group* the :class:`RankGroup` whose handles double as leases.
    """
    if nranks < 1:
        raise ValueError("world needs at least one rank")
    first = 1 if driver else 0
    if resolve_backend(backend) == "thread":
        world = World(nranks, timeout=timeout)
        handles = [_RankThread(body, world, r)
                   for r in range(first, nranks)]
        for h in handles:
            h.start()
        return world, RankGroup(handles)

    import multiprocessing
    from .process_backend import ProcessMesh, ProcessWorld
    from .shm import register_atexit_sweep

    # Order matters: the mesh is created (all socketpairs open), every
    # child forks with the full fd set, and only then does the parent
    # claim rank 0 -- claiming first would hand the children
    # already-closed fds.  The atexit sweep is registered after the
    # forks so exiting children never sweep the live session.
    mesh = ProcessMesh(nranks)
    mp = multiprocessing.get_context("fork")
    handles = []
    try:
        for r in range(first, nranks):
            parent_conn, child_conn = mp.Pipe(duplex=True)
            proc = mp.Process(target=_forked_rank,
                              args=(mesh, r, nranks, body, timeout,
                                    child_conn),
                              name=f"repro-rank-{r}", daemon=True)
            proc.start()
            child_conn.close()
            handles.append(_RankProcess(proc, parent_conn, r))
    except BaseException:
        mesh.close_all()
        raise
    register_atexit_sweep(mesh.session_id)
    if driver:
        world = ProcessWorld(nranks, 0, mesh.session_id, mesh.activate(0),
                             timeout=timeout)
    else:
        mesh.close_all()  # the caller is not a rank
        world = None
    return world, RankGroup(handles, world, mesh.session_id)

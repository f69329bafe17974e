"""Always-on crash flight recorder.

A per-thread bounded ring of recent span/instant events, recorded at a
handful of coarse-grained sites (driver control ops, worker op
execution, MPI collectives, fault notifications) even when full tracing
is disabled.  When something dies -- ``AbortError``, ``RankFailure``,
``DeadlockError``, ``InjectedFault`` -- the rings are dumped as the
same Chrome ``trace_event`` JSON :func:`repro.trace.export
.write_chrome_trace` produces, so the post-mortem analyzer
(:func:`repro.trace.analyze.load_chrome_trace`) reads a crash dump and
a deliberate trace identically.

Design constraints, mirroring :class:`repro.trace.tracer.Tracer`:

- **Disabled cost is one predicate per site** (``if FLIGHT.enabled:``).
- **No locks and no buffer growth on the hot path.**  Each thread owns
  a preallocated ring (registered once, under a lock, on first use);
  an append is an index store plus a bump.  Event tuples share the
  tracer's ``(ph, cat, name, rank, ts, dur, args)`` shape and its
  clock epoch, so flight events and trace spans line up on one
  timeline.
- **Bounded memory always**: capacity defaults to 4096 events per
  thread (``REPRO_OBS_FLIGHT=N`` overrides; ``0``/``off`` disables the
  recorder entirely).

Dumps are rate-limited (at most one per second per dump path) so a
fault storm -- a chaos sweep injecting hundreds of crashes -- costs
bounded I/O, and they never print: the chaos CLI's
byte-identical-replay contract owns stdout.  ``REPRO_OBS_DUMP`` fixes
the dump path (``0``/``off`` suppresses auto-dumps); the default is
``$TMPDIR/repro-flight-<pid>.json``.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional

from ..trace.tracer import TRACER as _TR
from ..trace.tracer import Event, RankLabel
from . import causal as _CZ

__all__ = ["FlightRecorder", "FLIGHT"]

_DEFAULT_CAPACITY = 4096


def _env_capacity() -> int:
    raw = os.environ.get("REPRO_OBS_FLIGHT", "").strip().lower()
    if raw in ("0", "off", "no", "false", "none"):
        return 0
    try:
        return int(raw) if raw else _DEFAULT_CAPACITY
    except ValueError:
        return _DEFAULT_CAPACITY


class _Ring:
    """One thread's preallocated event ring."""

    __slots__ = ("slots", "pos", "full")

    def __init__(self, capacity: int):
        self.slots: List[Optional[Event]] = [None] * capacity
        self.pos = 0
        self.full = False


class FlightRecorder:
    """Per-thread bounded rings of recent events, dumpable on faults."""

    def __init__(self, capacity: Optional[int] = None,
                 min_dump_interval: float = 1.0):
        cap = _env_capacity() if capacity is None else int(capacity)
        self.capacity = max(cap, 0)
        self.enabled = self.capacity > 0
        self._lock = threading.Lock()
        self._rings: List[_Ring] = []
        self._tls = threading.local()
        self._min_dump_interval = float(min_dump_interval)
        # dump path -> monotonic time of its last dump: the rate limit is
        # per target, so a fault aimed at a fresh path is never answered
        # with another target's (stale) file
        self._last_dump_t: Dict[str, float] = {}
        #: Path of the most recent dump (None until the first one).
        self.last_dump_path: Optional[str] = None
        #: ``{"kind", "detail", "op_id", "epoch_id", "ranks"}`` of the
        #: most recent fault notification; the chaos CLI embeds it in
        #: ``--repro-out`` artifacts so shrunk repros are self-describing.
        self.last_fault: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # recording (hot path)
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Timestamp on the shared tracer clock (seconds since epoch)."""
        return time.perf_counter() - _TR._epoch

    def _ring(self) -> _Ring:
        ring = getattr(self._tls, "ring", None)
        if ring is None:
            ring = _Ring(self.capacity)
            self._tls.ring = ring
            with self._lock:
                self._rings.append(ring)
        return ring

    def complete(self, cat: str, name: str, rank: RankLabel, t0: float,
                 **args) -> None:
        """Append one span event that began at ``t0 = FLIGHT.now()``."""
        if not self.enabled:
            return
        ts = time.perf_counter() - _TR._epoch
        ring = self._ring()
        i = ring.pos
        ring.slots[i] = ("X", cat, name, rank, t0, ts - t0, args or None)
        i += 1
        if i >= self.capacity:
            i = 0
            ring.full = True
        ring.pos = i

    def instant(self, cat: str, name: str,
                rank: Optional[RankLabel] = None, **args) -> None:
        """Append one zero-duration marker event."""
        if not self.enabled:
            return
        ts = time.perf_counter() - _TR._epoch
        if rank is None:
            rank = _TR.thread_rank()
        ring = self._ring()
        i = ring.pos
        ring.slots[i] = ("i", cat, name, rank, ts, 0.0, args or None)
        i += 1
        if i >= self.capacity:
            i = 0
            ring.full = True
        ring.pos = i

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def events(self) -> List[Event]:
        """Surviving events, oldest first (the Tracer.events contract,
        so the Chrome exporter and the analyzer work unchanged).

        Readers race live writers benignly: with the GIL, each slot is
        replaced atomically, so the worst case is one event read twice
        or a fresh slot read as None (filtered out) -- acceptable for a
        crash dump, and the writer is never slowed down.
        """
        with self._lock:
            rings = list(self._rings)
        merged: List[Event] = []
        for ring in rings:
            slots, pos = ring.slots, ring.pos
            chunk = slots[pos:] + slots[:pos] if ring.full else slots[:pos]
            merged.extend(ev for ev in chunk if ev is not None)
        merged.sort(key=lambda ev: ev[4])
        return merged

    def clear(self) -> None:
        """Drop all recorded events (tests; keeps ring registration)."""
        with self._lock:
            for ring in self._rings:
                ring.slots = [None] * self.capacity
                ring.pos = 0
                ring.full = False
            self.last_fault = None

    def default_dump_path(self) -> Optional[str]:
        """``REPRO_OBS_DUMP`` if set (None if it disables dumping),
        else a pid-salted file in the temp directory."""
        raw = os.environ.get("REPRO_OBS_DUMP", "").strip()
        if raw.lower() in ("0", "off", "no", "false", "none"):
            return None
        if raw:
            return raw
        return os.path.join(tempfile.gettempdir(),
                            f"repro-flight-{os.getpid()}.json")

    def dump(self, path: Optional[str] = None) -> Optional[str]:
        """Write the rings as Chrome trace JSON; returns the path."""
        from ..trace.export import write_chrome_trace
        if path is None:
            path = self.default_dump_path()
            if path is None:
                return None
        write_chrome_trace(path, tracer=self)
        self.last_dump_path = path
        return path

    # ------------------------------------------------------------------
    # fault notification
    # ------------------------------------------------------------------
    def notify_fault(self, kind: str, detail: Optional[str] = None,
                     ranks: Optional[list] = None) -> Optional[str]:
        """Record a fault instant and auto-dump the rings (rate-limited).

        *ranks* is an optional per-rank ``World.status()``-style
        snapshot captured by the caller at the moment of the fault; it
        rides in :attr:`last_fault` so post-mortem artifacts carry the
        pending-op evidence even after the world is gone.  Returns the
        dump path (possibly written by an earlier dump to the same path
        within the rate-limit window), or ``None`` when the recorder or
        dumping is disabled.
        """
        if not self.enabled:
            return None
        oid, eid = _CZ.current()
        self.instant("obs.fault", kind, detail=detail, op_id=oid,
                     epoch_id=eid)
        self.last_fault = {
            "kind": kind,
            "detail": None if detail is None else str(detail),
            "op_id": oid,
            "epoch_id": eid,
            "ranks": ranks,
        }
        path = self.default_dump_path()
        if path is None:
            return None
        now = time.monotonic()
        with self._lock:
            last = self._last_dump_t.get(path, -float("inf"))
            throttled = now - last < self._min_dump_interval
            if not throttled:
                self._last_dump_t[path] = now
        if throttled:
            return path
        try:
            return self.dump(path)
        except OSError:
            return None

    def __repr__(self):
        n = sum((r.full and self.capacity or r.pos) for r in self._rings)
        state = "enabled" if self.enabled else "disabled"
        return (f"FlightRecorder({state}, capacity={self.capacity}, "
                f"~{n} events, {len(self._rings)} rings)")


#: The process-wide singleton every instrumentation site references.
FLIGHT = FlightRecorder()

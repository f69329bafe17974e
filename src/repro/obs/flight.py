"""Crash flight recorder: fault policy over the tracer's flight ring.

The events themselves live in :class:`repro.trace.tracer.Tracer`: every
per-thread buffer holds a preallocated ring of the most recent events
(``REPRO_OBS_FLIGHT=N`` slots, default 4096; ``0``/``off`` disables it),
filled at the coarse sites (driver control ops, worker op execution,
MPI collectives, recovery, fusion fallbacks, fault notifications) even
when full tracing is off.  This module only decides what happens when
something dies -- ``AbortError``, ``RankFailure``, ``DeadlockError``,
``InjectedFault``: :meth:`FlightRecorder.notify_fault` records an
``obs.fault`` instant and dumps the rings as the same Chrome
``trace_event`` JSON :func:`repro.trace.export.write_chrome_trace`
produces, so the post-mortem analyzer
(:func:`repro.trace.analyze.load_chrome_trace`) reads a crash dump and
a deliberate trace identically.

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
from ..trace.tracer import Event, Tracer
from . import causal as _CZ

__all__ = ["FlightRecorder", "FLIGHT"]


class FlightRecorder:
    """Fault notification and dumps over a tracer's flight rings."""

    def __init__(self, tracer: Optional[Tracer] = None,
                 min_dump_interval: float = 1.0):
        self.tracer = _TR if tracer is None else tracer
        self._lock = threading.Lock()
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

    @property
    def enabled(self) -> bool:
        """Is the tracer's flight ring on?"""
        return self.tracer.flight

    def events(self) -> List[Event]:
        """The ring view (the ``Tracer.events`` contract, so the Chrome
        exporter and the analyzer work unchanged)."""
        return self.tracer.ring_events()

    def clear(self) -> None:
        """Drop all recorded events and the last fault (tests)."""
        self.tracer.clear()
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
        within the rate-limit window), or ``None`` when the ring or
        dumping is disabled.
        """
        if not self.enabled:
            return None
        oid, eid = _CZ.current()
        self.tracer.instant("obs.fault", kind, detail=detail, op_id=oid,
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
        state = "enabled" if self.enabled else "disabled"
        return (f"FlightRecorder({state}, "
                f"capacity={self.tracer.capacity})")


#: The process-wide singleton every fault site references.
FLIGHT = FlightRecorder()

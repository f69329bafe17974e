"""Structured per-rank event recording: the one recorder.

One process-wide :class:`Tracer` records *span* (duration) and
*instant* events from every layer of the stack -- the MPI substrate,
ODIN workers, the driver control plane, and the solver stack.  Every
event is one ``(ph, cat, name, rank, ts, dur, args)`` tuple, built once
on one clock, and kept in up to two *retentions*:

- **the flight ring** -- a preallocated per-thread ring of the last
  ``capacity`` events (``REPRO_OBS_FLIGHT=N``, default 4096; ``0``/``off``
  turns it off).  On by default, so crash dumps, ``/flight`` and
  :func:`~repro.obs.flight.FlightRecorder.notify_fault` always have
  recent evidence; read it with :meth:`Tracer.ring_events`.
- **the full trace** -- an unbounded per-thread list, kept only while
  tracing is on (``REPRO_TRACE=1`` or :func:`enable`); read it with
  :meth:`Tracer.events`, which is what the exporters, the metrics fold
  (:mod:`repro.metrics`) and the multiprocess transport use.

Design constraints:

- **One predicate per event site.**  Coarse sites (driver control ops,
  worker op execution, collectives, recovery, fusion fallbacks) guard
  with ``if _TR.recording:`` (ring or trace on) and make one call;
  fine-grained sites (``mpi.p2p``, ``mpi.rma``, ``fused.*``,
  ``redistribute.exchange``, solver iterations) guard with
  ``if _TR.enabled:``, so by default they record nothing, and with
  tracing on their events enter the ring too.  While both retentions
  are on, each thread's ring holds its newest trace events.
- **No locks and no growth on the ring's hot path.**  Each thread owns
  its buffer (registered once, under a lock, on first use); a ring
  append is an index store plus a bump.
- **Per-rank attribution.**  :meth:`RankContext.bind()
  <repro.mpi.runtime.RankContext.bind>` publishes the world rank of the
  calling thread via :meth:`Tracer.set_thread_rank`, so events emitted
  anywhere down the call stack land in the right rank's timeline.
  Unbound threads (e.g. the ODIN driver's user thread) fall back to a
  thread-name label, and every emit API accepts an explicit ``rank=``.

Toggle the retentions through :meth:`Tracer.enable`/:meth:`Tracer.disable`
and :meth:`Tracer.set_flight`, which keep ``recording`` in step.
:meth:`Tracer.span_timers` folds the trace's span durations into
per-rank :class:`~repro.teuchos.timer.Time` objects, which is what the
text :func:`~repro.trace.export.summary` exporter renders and merges
with ``TimeMonitor.summarize()``.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Optional, Tuple, Union

from ..teuchos.timer import Time

__all__ = ["Tracer", "TRACER", "get_tracer", "enabled", "enable",
           "disable", "set_enabled", "clear", "span", "instant",
           "set_thread_rank"]

RankLabel = Union[int, str]

# Event tuples: (phase, category, name, rank, ts, dur, args)
#   phase "X" = complete (span) event, "i" = instant event
#   ts/dur are seconds relative to the tracer epoch; args a dict or None
Event = Tuple[str, str, str, RankLabel, float, float, Optional[dict]]

_DEFAULT_CAPACITY = 4096


def _env_enabled() -> bool:
    return os.environ.get("REPRO_TRACE", "").strip().lower() in (
        "1", "true", "yes", "on")


def _env_capacity() -> int:
    raw = os.environ.get("REPRO_OBS_FLIGHT", "").strip().lower()
    if raw in ("0", "off", "no", "false", "none"):
        return 0
    try:
        return int(raw) if raw else _DEFAULT_CAPACITY
    except ValueError:
        return _DEFAULT_CAPACITY


class _Buffer:
    """One thread's flight ring and trace list."""

    __slots__ = ("ring", "pos", "full", "events")

    def __init__(self, capacity: int):
        self.ring: List[Optional[Event]] = [None] * capacity
        self.pos = 0
        self.full = False
        self.events: List[Event] = []


class _Span:
    """Context manager recording one complete ("X") event."""

    __slots__ = ("_tracer", "_cat", "_name", "_args", "_rank", "_t0")

    def __init__(self, tracer: "Tracer", cat: str, name: str,
                 rank: Optional[RankLabel], args: Optional[dict]):
        self._tracer = tracer
        self._cat = cat
        self._name = name
        self._args = args
        self._rank = rank

    def __enter__(self) -> "_Span":
        tr = self._tracer
        if self._rank is None:
            self._rank = tr.thread_rank()
        self._t0 = time.perf_counter() - tr._epoch
        return self

    def __exit__(self, *exc) -> None:
        tr = self._tracer
        ts = time.perf_counter() - tr._epoch
        tr._store(tr._thread_buffer(), ("X", self._cat, self._name,
                                        self._rank, self._t0,
                                        ts - self._t0, self._args))

    def add_args(self, **kwargs) -> "_Span":
        """Attach/extend event args from inside the span body."""
        if self._args is None:
            self._args = {}
        self._args.update(kwargs)
        return self


class _NullSpan:
    """Shared no-op stand-in returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def add_args(self, **kwargs):
        return self


NULL_SPAN = _NullSpan()


class Tracer:
    """Process-wide event recorder with per-thread (per-rank) buffers:
    a bounded flight ring (``capacity`` slots, on while ``flight``) and
    the full trace (on while ``enabled``)."""

    def __init__(self, enabled: Optional[bool] = None,
                 capacity: Optional[int] = None):
        self.enabled: bool = _env_enabled() if enabled is None \
            else bool(enabled)
        cap = _env_capacity() if capacity is None else int(capacity)
        self.capacity = max(cap, 0)
        self.flight: bool = self.capacity > 0
        #: ring or trace on: the predicate of every coarse site
        self.recording: bool = self.enabled or self.flight
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._buffers: List[_Buffer] = []
        self._tls = threading.local()

    # ------------------------------------------------------------------
    # rank binding
    # ------------------------------------------------------------------
    def set_thread_rank(self, rank: Optional[RankLabel]) -> None:
        """Publish the world rank of the calling thread (or ``None`` to
        clear it).  Called by ``RankContext.bind()/unbind()``."""
        self._tls.rank = rank

    def thread_rank(self) -> RankLabel:
        rank = getattr(self._tls, "rank", None)
        if rank is not None:
            return rank
        name = threading.current_thread().name
        return "main" if name == "MainThread" else name

    # ------------------------------------------------------------------
    # buffers
    # ------------------------------------------------------------------
    def _thread_buffer(self) -> _Buffer:
        buf = getattr(self._tls, "buf", None)
        if buf is None:
            buf = _Buffer(self.capacity)
            self._tls.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _store(self, buf: _Buffer, ev: Event) -> None:
        """Put one event into every retention that is on."""
        if self.flight:
            i = buf.pos
            buf.ring[i] = ev
            i += 1
            if i == self.capacity:
                i = 0
                buf.full = True
            buf.pos = i
        if self.enabled:
            buf.events.append(ev)

    # ------------------------------------------------------------------
    # emit API
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Timestamp (seconds since the tracer epoch) for begin/complete
        pairs on hot paths."""
        return time.perf_counter() - self._epoch

    def span(self, cat: str, name: str, rank: Optional[RankLabel] = None,
             **args):
        """A context manager recording a complete event around its body.

        Returns a shared no-op when tracing is disabled (whatever the
        ring's state), so ``with tracer.span(...)`` stays safe either
        way; hot paths should still guard the call with
        ``if tracer.enabled:``.
        """
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, cat, name, rank, args or None)

    def complete(self, cat: str, name: str, t0: float,
                 rank: Optional[RankLabel] = None, **args) -> float:
        """Record a complete event that started at ``t0 = tracer.now()``;
        returns its duration.

        The begin/complete pair is the cheapest span form: the disabled
        path is exactly one predicate at each end.
        """
        dur = time.perf_counter() - self._epoch - t0
        if rank is None:
            rank = self.thread_rank()
        self._store(self._thread_buffer(),
                    ("X", cat, name, rank, t0, dur, args or None))
        return dur

    def instant(self, cat: str, name: str,
                rank: Optional[RankLabel] = None, **args) -> None:
        """Record a zero-duration marker event."""
        ts = time.perf_counter() - self._epoch
        if rank is None:
            rank = self.thread_rank()
        self._store(self._thread_buffer(),
                    ("i", cat, name, rank, ts, 0.0, args or None))

    # ------------------------------------------------------------------
    # control / introspection
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = self.recording = True

    def disable(self) -> None:
        self.enabled = False
        self.recording = self.flight

    def set_flight(self, flag: bool) -> None:
        """Turn the flight ring on or off (it stays off when the tracer
        was built with capacity 0)."""
        self.flight = bool(flag) and self.capacity > 0
        self.recording = self.enabled or self.flight

    def clear(self) -> None:
        """Drop every recorded event, ring and trace (keeps the epoch
        and buffer registration)."""
        with self._lock:
            for buf in self._buffers:
                buf.ring = [None] * self.capacity
                buf.pos = 0
                buf.full = False
                buf.events.clear()

    def absorb(self, events: List[Event]) -> None:
        """Merge events recorded by another process into this tracer
        (the driver-side merge point of the multiprocess transport:
        worker ranks ship their event lists back at gather/shutdown)."""
        if events:
            self._thread_buffer().events.extend(tuple(ev) for ev in events)

    def events(self) -> List[Event]:
        """Snapshot of the full trace so far, in timestamp order."""
        with self._lock:
            merged: List[Event] = []
            for buf in self._buffers:
                merged.extend(buf.events)
        merged.sort(key=lambda ev: ev[4])
        return merged

    def ring_events(self) -> List[Event]:
        """The flight rings' surviving events, oldest first.

        Readers race live writers benignly: with the GIL, each slot is
        replaced atomically, so the worst case is one event read twice
        or a fresh slot read as None (filtered out) -- acceptable for a
        crash dump, and the writer is never slowed down.
        """
        with self._lock:
            buffers = list(self._buffers)
        merged: List[Event] = []
        for buf in buffers:
            ring, pos = buf.ring, buf.pos
            chunk = ring[pos:] + ring[:pos] if buf.full else ring[:pos]
            merged.extend(ev for ev in chunk if ev is not None)
        merged.sort(key=lambda ev: ev[4])
        return merged

    def span_timers(self) -> Dict[Tuple[RankLabel, str], Time]:
        """Per-(rank, category:name) span totals folded from the trace.
        A span nested in a running span of the same key on the same
        thread counts once, as a re-entrant :class:`Time` would."""
        out: Dict[Tuple[RankLabel, str], Time] = {}
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            ends: Dict[Tuple[RankLabel, str], float] = {}
            for ph, cat, name, rank, ts, dur, _args in sorted(
                    buf.events, key=lambda ev: ev[4]):
                key = (rank, cat + ":" + name)
                if ph != "X" or ts < ends.get(key, ts):
                    continue
                ends[key] = ts + dur
                timer = out.get(key) or out.setdefault(key, Time(key[1]))
                timer.total += dur
                timer.calls += 1
        return out

    def __repr__(self):
        n = sum(len(b.events) for b in self._buffers)
        state = "enabled" if self.enabled else "disabled"
        return (f"Tracer({state}, {n} events, ring capacity "
                f"{self.capacity if self.flight else 0}, "
                f"{len(self._buffers)} buffers)")


# The process-wide singleton every instrumentation site references.
TRACER = Tracer()


def get_tracer() -> Tracer:
    return TRACER


def enabled() -> bool:
    """Is tracing currently on? (``REPRO_TRACE=1`` or :func:`enable`.)"""
    return TRACER.enabled


def enable() -> None:
    TRACER.enable()


def disable() -> None:
    TRACER.disable()


def set_enabled(flag: bool) -> None:
    if flag:
        TRACER.enable()
    else:
        TRACER.disable()


def clear() -> None:
    TRACER.clear()


def span(cat: str, name: str, rank: Optional[RankLabel] = None, **args):
    return TRACER.span(cat, name, rank=rank, **args)


def instant(cat: str, name: str, rank: Optional[RankLabel] = None,
            **args) -> None:
    if TRACER.enabled:
        TRACER.instant(cat, name, rank=rank, **args)


def set_thread_rank(rank: Optional[RankLabel]) -> None:
    TRACER.set_thread_rank(rank)

"""Per-rank tracing (``repro.trace``): the one recorder.

Structured span/instant events from the MPI layer, the ODIN runtime,
the solver stack and Seamless, attributed to world ranks (see
:mod:`repro.trace.tracer`).  Enable with ``REPRO_TRACE=1`` or
:func:`enable`; export with :func:`write_chrome_trace` (Perfetto),
:func:`summary` (text, merged with ``TimeMonitor``) or
:func:`traffic_report` (per-peer bytes); analyse post mortem with
:mod:`repro.trace.analyze`.  :mod:`repro.metrics` is a fold of the same
trace.  Benchmarks accept ``--trace out.json``, ``--metrics out.json``
and ``--analyze``.  Disabled, a site costs one predicate; the coarse
sites still feed the bounded flight ring :mod:`repro.obs.flight` dumps.
"""

from .tracer import (NULL_SPAN, TRACER, Tracer, clear, disable, enable,
                     enabled, get_tracer, instant, set_enabled,
                     set_thread_rank, span)
from .export import (chrome_trace_events, summary, traffic_report,
                     write_chrome_trace)
from . import analyze

__all__ = [
    "Tracer", "TRACER", "NULL_SPAN", "get_tracer",
    "enabled", "enable", "disable", "set_enabled", "clear",
    "span", "instant", "set_thread_rank",
    "chrome_trace_events", "write_chrome_trace", "summary",
    "traffic_report", "analyze",
]

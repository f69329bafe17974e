"""Unified per-rank tracing & metrics (``repro.trace``).

The measurement substrate under every performance claim in this repo:
structured span/instant events from the MPI layer (point-to-point,
collectives tagged by algorithm, RMA windows), the ODIN runtime (control
plane and worker steps), and the solver stack (per-iteration spans
carrying residual norms), all attributed to world ranks.

Enable with ``REPRO_TRACE=1`` in the environment or
:func:`repro.trace.enable`; export with :func:`write_chrome_trace`
(open in ``chrome://tracing`` / Perfetto), :func:`summary` (text,
merged with ``TimeMonitor``), or :func:`traffic_report` (per-peer
byte counters).  Post-mortem analysis lives in
:mod:`repro.trace.analyze`: load imbalance, wait states, the critical
path, and the communication matrix.  Any benchmark under
``benchmarks/`` accepts ``--trace out.json`` and ``--analyze``; its
counting sibling is :mod:`repro.metrics` (``--metrics out.json``).

When disabled (the default), every instrumented site costs a single
attribute-load-plus-branch; the coarse sites (control ops, worker ops,
collectives) still feed the tracer's bounded flight ring, the crash
evidence :mod:`repro.obs.flight` dumps.
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

"""Process-wide metrics (``repro.metrics``): a view of the trace.

The counting view of the one recorder (:mod:`repro.trace` records
*when*; this package reports *how much*): counters, gauges, and
log-bucketed histograms per collective algorithm, ODIN opcode, solver,
Tpetra plan, Seamless kernel and recovery step, with text, JSON, and
Prometheus exposition.  Nothing records metrics: every read folds the
full trace into a fresh :class:`MetricsRegistry` through one table
(:data:`repro.metrics.fold.FOLDS`, which names every family), so the
counts agree with the trace by construction.  Metrics are on exactly
while the full trace is kept: ``REPRO_TRACE=1``,
:func:`repro.trace.enable` or :func:`enable`; any benchmark accepts
``--metrics out.json``.
"""

from .hist import Histogram
from .registry import Counter, Gauge, MetricsRegistry
from .fold import TraceMetrics
from . import report as _report

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "TraceMetrics",
    "REGISTRY", "get_registry", "enabled", "enable", "disable", "clear",
    "report", "to_json", "exposition",
]

# The process-wide view every reader references.
REGISTRY = TraceMetrics()


def get_registry() -> TraceMetrics:
    return REGISTRY


def enabled() -> bool:
    """Are metrics on?  (Is the full trace kept?)"""
    return REGISTRY.enabled


# the metrics switch is the tracer's, and clearing drops the trace
enable, disable, clear = REGISTRY.enable, REGISTRY.disable, REGISTRY.clear


def report(registry=None) -> str:
    return _report.report(REGISTRY if registry is None else registry)


def to_json(registry=None, include_timers: bool = True, indent=None) -> str:
    return _report.to_json(REGISTRY if registry is None else registry,
                           include_timers=include_timers, indent=indent)


def exposition(registry=None) -> str:
    return _report.exposition(REGISTRY if registry is None else registry)

"""Metric exposition: aligned text, JSON, Prometheus text format.

Three views over one registry snapshot:

- :func:`report` -- a human-readable table grouped by metric name, one
  row per label set (counters/gauges show the value, histograms show
  count/mean and interpolated p50/p95/p99 plus the exact max).
- :func:`to_json` -- a JSON document that round-trips through
  ``json.loads``; with ``include_timers`` the global
  ``TimeMonitor.to_dict()`` table is embedded under ``"time_monitor"``
  so legacy named timers and metrics land in one artifact.
- :func:`exposition` -- Prometheus text exposition format 0.0.4
  (``# TYPE`` headers, ``name{label="v"} value`` samples; histograms as
  cumulative ``_bucket`` series plus ``_sum``/``_count``).
"""

from __future__ import annotations

import io
import json
import math
import re
from typing import Optional

from .hist import Histogram
from .registry import Counter, Gauge, MetricsRegistry

__all__ = ["report", "to_json", "exposition"]

_INVALID_PROM = re.compile(r"[^a-zA-Z0-9_:]")


def _fmt_value(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _fmt_labels(labels: dict) -> str:
    if not labels:
        return ""
    return "{" + ", ".join(f"{k}={v}" for k, v in
                           sorted(labels.items(),
                                  key=lambda kv: kv[0])) + "}"


def report(registry: MetricsRegistry) -> str:
    """The registry as an aligned plain-text table."""
    metrics = registry.metrics()
    if not metrics:
        return "(no metrics recorded)\n"
    out = io.StringIO()
    rows = []
    for m in metrics:
        label = m.name + _fmt_labels(dict(m.labels))
        if isinstance(m, Histogram):
            detail = (f"count={m.count}  mean={m.mean:.6g}  "
                      f"p50={m.quantile(0.5):.6g}  "
                      f"p95={m.quantile(0.95):.6g}  "
                      f"p99={m.quantile(0.99):.6g}  "
                      f"max={0.0 if m.max is None else m.max:.6g}")
            rows.append((label, "histogram", detail))
        elif isinstance(m, Gauge):
            rows.append((label, "gauge", _fmt_value(m.value)))
        else:
            rows.append((label, "counter", _fmt_value(m.value)))
    width = max(len(r[0]) for r in rows) + 2
    out.write(f"{'metric':<{width}}{'type':<11}value\n")
    out.write("-" * (width + 16) + "\n")
    for label, kind, detail in rows:
        out.write(f"{label:<{width}}{kind:<11}{detail}\n")
    return out.getvalue()


def to_json(registry: MetricsRegistry, include_timers: bool = True,
            indent: Optional[int] = None) -> str:
    """The registry snapshot as a JSON string.

    ``include_timers`` merges the global
    :meth:`~repro.teuchos.timer.TimeMonitor.to_dict` table, so one file
    carries both the metric families and the named phase timers.
    """
    doc = {
        "producer": "repro.metrics",
        "metrics": [m.to_dict() for m in registry.metrics()],
    }
    if include_timers:
        from ..teuchos.timer import TimeMonitor
        doc["time_monitor"] = TimeMonitor.to_dict()
    return json.dumps(doc, indent=indent, default=str)


def _prom_name(name: str) -> str:
    name = _INVALID_PROM.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _prom_labels(labels: dict, extra: Optional[dict] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    parts = []
    for k, v in sorted(merged.items(), key=lambda kv: kv[0]):
        sv = str(v).replace("\\", "\\\\").replace('"', '\\"')
        parts.append(f'{_prom_name(k)}="{sv}"')
    return "{" + ",".join(parts) + "}"


def _prom_float(value) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def exposition(registry: MetricsRegistry) -> str:
    """Prometheus text exposition of the registry (scrape-ready)."""
    out = io.StringIO()
    typed = set()
    for m in registry.metrics():
        name = _prom_name(m.name)
        labels = dict(m.labels)
        if isinstance(m, Histogram):
            if name not in typed:
                out.write(f"# TYPE {name} histogram\n")
                typed.add(name)
            cumulative = 0
            for entry in m.to_dict()["buckets"]:
                cumulative += entry["count"]
                le = _prom_float(entry["le"])
                out.write(f"{name}_bucket"
                          f"{_prom_labels(labels, {'le': le})} "
                          f"{cumulative}\n")
            out.write(f"{name}_bucket"
                      f"{_prom_labels(labels, {'le': '+Inf'})} "
                      f"{m.count}\n")
            out.write(f"{name}_sum{_prom_labels(labels)} "
                      f"{_prom_float(m.sum)}\n")
            out.write(f"{name}_count{_prom_labels(labels)} {m.count}\n")
        else:
            kind = "gauge" if isinstance(m, Gauge) else "counter"
            if name not in typed:
                out.write(f"# TYPE {name} {kind}\n")
                typed.add(name)
            out.write(f"{name}{_prom_labels(labels)} "
                      f"{_prom_float(m.value)}\n")
    return out.getvalue()

"""The metrics snapshot container: counters, gauges, histograms.

A :class:`MetricsRegistry` is what one read of :mod:`repro.metrics`
returns: the fold (:mod:`repro.metrics.fold`) builds a fresh one from
the trace, and tests build private ones.  Metric handles are resolved
by ``(name, sorted labels)`` key -- a dict probe -- Prometheus's model::

    reg.counter("seamless.jit.cache_hits", kernel="saxpy").inc()
    reg.observe("odin.worker.op_seconds", dt, op="ufunc", worker=2)

Per-rank labelling is a convention, not a mechanism: a fold rule that
knows the event's rank passes ``rank=<world rank>``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple, Union

from .hist import Histogram

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

LabelItems = Tuple[Tuple[str, object], ...]
MetricKey = Tuple[str, LabelItems]


def _label_items(labels: dict) -> LabelItems:
    return tuple(sorted(labels.items()))


class _Value:
    """A named, labelled scalar updated under its own small lock."""

    __slots__ = ("name", "labels", "value", "_lock")
    kind = ""

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = tuple(labels)
        self.value: Union[int, float] = 0
        self._lock = threading.Lock()

    def inc(self, amount: Union[int, float] = 1) -> None:
        with self._lock:
            self.value += amount

    def to_dict(self) -> dict:
        return {"type": self.kind, "name": self.name,
                "labels": dict(self.labels), "value": self.value}

    def __repr__(self):
        return (f"{type(self).__name__}({self.name!r}, "
                f"{dict(self.labels)}, {self.value})")


class Counter(_Value):
    """A monotonically increasing count (events, bytes, iterations)."""

    __slots__ = ()
    kind = "counter"

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        super().inc(amount)


class Gauge(_Value):
    """A value that can move both ways (queue depth, residual norm)."""

    __slots__ = ()
    kind = "gauge"

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class MetricsRegistry:
    """Label-aware registry of named metrics.  Metric identity is
    ``(name, labels)``: the same name with different labels is a family
    of independent series, exactly Prometheus's model.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[MetricKey, object] = {}

    def _resolve(self, name: str, labels: dict, cls, **ctor):
        key = (name, _label_items(labels))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = cls(name, labels=key[1], **ctor)
                    self._metrics[key] = metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} {dict(labels)!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}")
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._resolve(name, labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._resolve(name, labels, Gauge)

    def histogram(self, name: str, base: float = 2.0,
                  **labels) -> Histogram:
        return self._resolve(name, labels, Histogram, base=base)

    # ------------------------------------------------------------------
    # one-shot emission helpers (resolve + update)
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: Union[int, float] = 1,
            **labels) -> None:
        self.counter(name, **labels).inc(amount)

    def set_gauge(self, name: str, value: float, **labels) -> None:
        self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels) -> None:
        self.histogram(name, **labels).observe(value)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every registered metric."""
        with self._lock:
            self._metrics.clear()

    def metrics(self) -> List[object]:
        """Snapshot list of live metric objects, sorted by (name, labels)."""
        with self._lock:
            out = list(self._metrics.items())
        out.sort(key=lambda kv: (kv[0][0], [(k, str(v))
                                            for k, v in kv[0][1]]))
        return [metric for _key, metric in out]

    def get(self, name: str, **labels):
        """The metric registered under (name, labels), or None."""
        return self._metrics.get((name, _label_items(labels)))

    def __len__(self):
        return len(self._metrics)

    def __repr__(self):
        return f"MetricsRegistry({len(self._metrics)} metrics)"

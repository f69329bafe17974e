"""Registry semantics: identity, typing, threading, the module switch."""

import threading

import pytest

import repro.metrics as metrics
from repro.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.trace import TRACER


def test_label_identity():
    reg = MetricsRegistry()
    a = reg.counter("hits", rank=0)
    b = reg.counter("hits", rank=1)
    c = reg.counter("hits", rank=0)
    assert a is c and a is not b
    a.inc()
    a.inc(5)
    assert a.value == 6 and b.value == 0


def test_label_order_irrelevant():
    reg = MetricsRegistry()
    a = reg.counter("x", rank=0, op="put")
    b = reg.counter("x", op="put", rank=0)
    assert a is b


def test_type_mismatch_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter("c").inc(-1)


def test_gauge_moves_both_ways():
    g = Gauge("g")
    g.set(10.0)
    g.inc(2.5)
    g.dec(0.5)
    assert g.value == pytest.approx(12.0)


def test_shortcut_emission():
    reg = MetricsRegistry()
    reg.inc("n", 3, rank=1)
    reg.set_gauge("q", 7.0)
    reg.observe("lat", 0.25)
    assert reg.get("n", rank=1).value == 3
    assert reg.get("q").value == 7.0
    assert isinstance(reg.get("lat"), Histogram)
    assert reg.get("missing") is None
    assert len(reg) == 3


def test_metrics_sorted_snapshot():
    reg = MetricsRegistry()
    reg.inc("b")
    reg.inc("a", rank=1)
    reg.inc("a", rank=0)
    names = [(m.name, dict(m.labels)) for m in reg.metrics()]
    assert names == [("a", {"rank": 0}), ("a", {"rank": 1}), ("b", {})]


def test_clear_keeps_enabled_flag(registry):
    TRACER.instant("odin.fusion", "fallback", reason="test")
    assert len(registry) == 1
    registry.clear()
    assert len(registry) == 0 and registry.enabled


def test_module_helpers_guard_on_enabled(registry):
    """The module switch is the tracer's: metrics count exactly the
    events the full trace keeps."""
    TRACER.instant("odin.fusion", "fallback", reason="test")
    assert registry.get("odin.fusion.fallbacks").value == 1
    metrics.disable()
    assert not TRACER.enabled
    TRACER.instant("odin.fusion", "fallback", reason="test")
    assert registry.get("odin.fusion.fallbacks").value == 1  # not kept
    metrics.enable()
    assert metrics.enabled() and TRACER.enabled


def test_concurrent_increments_do_not_lose_updates():
    reg = MetricsRegistry()

    def body():
        for _ in range(1000):
            reg.inc("races", rank=0)

    threads = [threading.Thread(target=body) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert reg.get("races", rank=0).value == 8000

"""Exposition formats: text report, JSON round-trip, Prometheus text."""

import json

import repro.metrics as metrics
from repro.metrics import MetricsRegistry, exposition, report, to_json
from repro.teuchos.timer import TimeMonitor
from repro.trace import TRACER


def _sample_registry():
    reg = MetricsRegistry()
    reg.inc("seamless.jit.cache_hits", 3, kernel="saxpy")
    reg.inc("seamless.jit.cache_misses", 1, kernel="saxpy")
    reg.set_gauge("solver.residual", 1.5e-9, method="cg")
    for v in (0.001, 0.002, 0.3):
        reg.observe("odin.worker.op_seconds", v, op="ufunc")
    return reg


def test_report_mentions_every_metric():
    text = report(_sample_registry())
    assert "seamless.jit.cache_hits{kernel=saxpy}" in text
    assert "counter" in text and "gauge" in text and "histogram" in text
    assert "count=3" in text  # histogram detail row


def test_report_empty():
    assert "no metrics" in report(MetricsRegistry())


def test_to_json_round_trips():
    doc = json.loads(to_json(_sample_registry()))
    assert doc["producer"] == "repro.metrics"
    by_name = {(m["name"], tuple(sorted(m["labels"].items()))): m
               for m in doc["metrics"]}
    hits = by_name[("seamless.jit.cache_hits", (("kernel", "saxpy"),))]
    assert hits["type"] == "counter" and hits["value"] == 3
    hist = by_name[("odin.worker.op_seconds", (("op", "ufunc"),))]
    assert hist["type"] == "histogram" and hist["count"] == 3
    assert sum(b["count"] for b in hist["buckets"]) == 3


def test_to_json_embeds_time_monitor():
    TimeMonitor.clear()
    try:
        with TimeMonitor("Assembly"):
            pass
        doc = json.loads(to_json(_sample_registry(), include_timers=True))
        assert "Assembly" in doc["time_monitor"]
        assert doc["time_monitor"]["Assembly"]["calls"] == 1
        bare = json.loads(to_json(_sample_registry(),
                                  include_timers=False))
        assert "time_monitor" not in bare
    finally:
        TimeMonitor.clear()


def test_timemonitor_to_dict_matches_summarize_numbers():
    TimeMonitor.clear()
    try:
        with TimeMonitor("Phase"):
            pass
        with TimeMonitor("Phase"):
            pass
        d = TimeMonitor.to_dict()
        assert d["Phase"]["calls"] == 2
        assert d["Phase"]["mean"] * 2 == d["Phase"]["total"]
    finally:
        TimeMonitor.clear()


def test_exposition_prometheus_shape():
    text = exposition(_sample_registry())
    assert "# TYPE seamless_jit_cache_hits counter" in text
    assert 'seamless_jit_cache_hits{kernel="saxpy"} 3' in text
    assert "# TYPE solver_residual gauge" in text
    assert "# TYPE odin_worker_op_seconds histogram" in text
    # cumulative buckets end at the +Inf bucket == count
    assert 'odin_worker_op_seconds_bucket{le="+Inf",op="ufunc"} 3' in text
    assert 'odin_worker_op_seconds_count{op="ufunc"} 3' in text
    # bucket series are cumulative (nondecreasing)
    counts = [int(line.rsplit(" ", 1)[1]) for line in text.splitlines()
              if line.startswith("odin_worker_op_seconds_bucket")]
    assert counts == sorted(counts)


def test_module_singleton_to_json(registry):
    TRACER.instant("odin.fusion", "fallback", reason="test")
    doc = json.loads(metrics.to_json())
    assert any(m["name"] == "odin.fusion.fallbacks" and m["value"] == 1
               for m in doc["metrics"])

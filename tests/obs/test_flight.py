"""Flight recorder: ring wraparound, dumps, fault notification."""

import json
import os

import pytest

from repro.obs.flight import FlightRecorder
from repro.trace.analyze import load_chrome_trace


def test_ring_wraparound_keeps_newest_in_order():
    rec = FlightRecorder(capacity=8)
    for i in range(20):
        t0 = rec.now()
        rec.complete("cat", f"ev{i}", 0, t0, i=i)
    events = rec.events()
    assert len(events) == 8
    # exactly the last 8 events survive, in ascending timestamp order
    assert [ev[6]["i"] for ev in events] == list(range(12, 20))
    assert all(a[4] <= b[4] for a, b in zip(events, events[1:]))


def test_partial_ring_has_no_none_slots():
    rec = FlightRecorder(capacity=64)
    for i in range(5):
        rec.instant("cat", f"ev{i}", rank=0)
    assert len(rec.events()) == 5


def test_disabled_recorder_records_nothing():
    rec = FlightRecorder(capacity=0)
    assert not rec.enabled
    rec.complete("cat", "ev", 0, 0.0)
    rec.instant("cat", "ev", rank=0)
    assert rec.events() == []
    assert rec.notify_fault("AbortError", "boom") is None


def test_clear_resets_rings_and_fault():
    rec = FlightRecorder(capacity=8)
    rec.instant("cat", "ev", rank=0)
    rec.last_fault = {"kind": "AbortError"}
    rec.clear()
    assert rec.events() == []
    assert rec.last_fault is None


def test_dump_is_analyzer_loadable(tmp_path):
    rec = FlightRecorder(capacity=32)
    t0 = rec.now()
    rec.complete("odin.control", "ufunc", "driver", t0, op_id=7)
    rec.instant("obs.fault", "AbortError", rank=1)
    path = str(tmp_path / "flight.json")
    assert rec.dump(path) == path
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["otherData"]["producer"] == "repro.trace"
    events = load_chrome_trace(path)
    assert len(events) == 2
    spans = [ev for ev in events if ev[0] == "X"]
    assert spans[0][1:4] == ("odin.control", "ufunc", "driver")
    assert spans[0][6]["op_id"] == 7
    instants = [ev for ev in events if ev[0] == "i"]
    assert instants[0][3] == 1  # "rank 1" label rebuilt as int rank


def test_notify_fault_records_and_rate_limits(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_OBS_DUMP", str(tmp_path / "crash.json"))
    rec = FlightRecorder(capacity=32)
    path = rec.notify_fault("DeadlockError", "recv timed out",
                            ranks=[{"rank": 0, "pending": "recv"}])
    assert path == str(tmp_path / "crash.json")
    assert rec.last_fault["kind"] == "DeadlockError"
    assert rec.last_fault["ranks"][0]["pending"] == "recv"
    # a second fault within the rate-limit window reuses the first dump
    assert rec.notify_fault("AbortError") == path
    assert rec.last_fault["kind"] == "AbortError"
    # the fault itself landed in the ring as an instant
    kinds = [ev[2] for ev in rec.events() if ev[1] == "obs.fault"]
    assert kinds == ["DeadlockError", "AbortError"]


def test_rate_limit_is_per_dump_target(tmp_path, monkeypatch):
    """Two faults within the window aimed at different targets are both
    written; a repeat at the same target is still throttled."""
    rec = FlightRecorder(capacity=32)
    first = str(tmp_path / "first.json")
    second = str(tmp_path / "second.json")
    monkeypatch.setenv("REPRO_OBS_DUMP", first)
    assert rec.notify_fault("AbortError") == first
    monkeypatch.setenv("REPRO_OBS_DUMP", second)
    assert rec.notify_fault("DeadlockError") == second
    assert os.path.exists(first) and os.path.exists(second)
    # same target inside the window: not rewritten, but named
    os.remove(second)
    assert rec.notify_fault("RankFailure") == second
    assert not os.path.exists(second)


def test_dump_env_off_suppresses_auto_dump(monkeypatch):
    monkeypatch.setenv("REPRO_OBS_DUMP", "off")
    rec = FlightRecorder(capacity=8)
    assert rec.default_dump_path() is None
    assert rec.notify_fault("AbortError") is None
    assert rec.last_fault["kind"] == "AbortError"  # still recorded


def test_capacity_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_OBS_FLIGHT", "16")
    assert FlightRecorder().capacity == 16
    monkeypatch.setenv("REPRO_OBS_FLIGHT", "0")
    assert not FlightRecorder().enabled


def test_deadlock_error_names_flight_dump(tmp_path, monkeypatch):
    """The DeadlockError message carries the dump path and the dump is
    loadable -- the crash-evidence contract end to end."""
    monkeypatch.setenv("REPRO_OBS_DUMP", str(tmp_path / "dl.json"))
    from repro import mpi
    from repro.mpi.errors import DeadlockError

    def body(comm):
        if comm.rank == 0:
            comm.recv(source=1, tag=9)  # never sent

    with pytest.raises(DeadlockError) as ei:
        mpi.run_spmd(body, 2, timeout=0.5)
    cause = ei.value
    assert "flight recorder dump" in str(cause)
    events = load_chrome_trace(str(tmp_path / "dl.json"))
    assert any(ev[1] == "obs.fault" for ev in events)

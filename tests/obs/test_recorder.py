"""One recorder, two retentions: the flight ring and the full trace are
views of the same events, and fallbacks are recorded events."""

import numpy as np
import pytest

from repro import odin, seamless
from repro.odin import fusion
from repro.odin.context import OdinContext
from repro.trace import TRACER

COARSE = {"odin.control", "odin.worker", "mpi.coll"}


@pytest.fixture(autouse=True)
def _ring_on():
    if not TRACER.flight:
        pytest.skip("flight ring disabled (REPRO_OBS_FLIGHT=0)")


def _program():
    """A scatter, batched ufuncs, a reduction and a gather."""
    with OdinContext(2) as ctx:
        x = odin.array(np.arange(64.0), ctx=ctx)
        y = odin.sqrt(x * x + 1.0) - 0.5
        z = y * 2.0
        total = float(z.sum())
        out = np.asarray(z)
    expect = (np.sqrt(np.arange(64.0) ** 2 + 1.0) - 0.5) * 2.0
    assert np.allclose(out, expect) and np.isclose(total, expect.sum())


def test_ring_spans_are_trace_events(tracer, flight):
    _program()
    trace = tracer.events()
    ring = [ev for ev in flight.events()
            if ev[0] == "X" and ev[1] in COARSE]
    assert {ev[1] for ev in ring} == COARSE
    assert {ev[2] for ev in ring if ev[1] == "odin.control"} >= {
        "scatter", "gather"}
    missing = [ev for ev in ring if ev not in trace]
    assert not missing, missing[:3]
    # traced fine-grained events enter the ring as well
    assert any(ev[1] == "mpi.p2p" for ev in flight.events())


def test_untraced_ring_is_coarse_only(flight):
    assert not TRACER.enabled
    _program()
    cats = {ev[1] for ev in flight.events()}
    assert COARSE <= cats
    assert "mpi.p2p" not in cats
    assert TRACER.events() == []


def test_fusion_fallback_is_recorded_and_counted(flight, registry,
                                                 monkeypatch):
    def broken(program, n_inputs):
        raise OSError("linker exploded")

    monkeypatch.setattr(seamless, "compile_elementwise", broken)
    monkeypatch.setattr(fusion, "_cache", {})
    assert fusion.compiled_kernel((("input", 0),), 1) is None
    (ev,) = [ev for ev in flight.events() if ev[1] == "odin.fusion"]
    assert ev[0] == "i" and ev[2] == "fallback"
    assert ev[6] == {"reason": repr(OSError("linker exploded"))}
    assert registry.get("odin.fusion.fallbacks").value == 1

"""Every Seamless entry point on a host without a C compiler.

Each is run compiled (where this host has a compiler) and then with
``compiler_available()`` reporting False: the interpreted result must
equal the compiled one and NumPy's, and each fallback must leave its
trace instant.  Unlike the rest of this directory, nothing here skips
without a compiler.
"""

import numpy as np
import pytest

from repro import odin
from repro.odin import fusion
from repro.odin.context import OdinContext
from repro.seamless import backend_c, compiler_available, elementwise, jit
from repro.trace import TRACER


def _sum_squares(a):
    s = 0.0
    for i in range(len(a)):
        s += a[i] * a[i]
    return s


def _relu(x):
    return x if x > 0.0 else 0.0


def _affine(x, k):
    return x * k + 1.0


def _opaque(x):
    return {"v": x}["v"] * 2.0     # outside the compiled subset


def _inputs():
    rng = np.random.default_rng(3)
    return (rng.standard_normal(64), rng.standard_normal(64),
            rng.standard_normal((4, 64)))


def _fused(a, b):
    with OdinContext(2, backend="thread") as ctx:
        x, y = odin.array(a, ctx=ctx), odin.array(b, ctx=ctx)
        with odin.lazy():
            expr = odin.sqrt(x * x + y * y) * 2.0 - 1.0
        return odin.evaluate(expr, use_seamless=True).gather()


def _run_all():
    a, b, m = _inputs()
    return {"jit": jit(_sum_squares)(a),
            "scalar": elementwise(_relu)(a),
            "broadcast": elementwise(_affine)(m, a),
            "by-value": elementwise(_affine)(a, 0.5),
            "unsupported": elementwise(_opaque)(a),
            "fused": _fused(a, b)}


def _numpy():
    a, b, m = _inputs()
    s = 0.0
    for v in a:
        s += v * v
    return {"jit": s, "scalar": np.maximum(a, 0.0), "broadcast": m * a + 1.0,
            "by-value": a * 0.5 + 1.0, "unsupported": a * 2.0,
            "fused": np.sqrt(a * a + b * b) * 2.0 - 1.0}


@pytest.fixture
def tracer():
    TRACER.clear()
    TRACER.enable()
    yield TRACER
    TRACER.disable()
    TRACER.clear()


def test_every_entry_point_runs_without_a_compiler(tracer, monkeypatch):
    monkeypatch.setattr(fusion, "_cache", {})
    compiled = _run_all() if compiler_available() else None
    monkeypatch.setattr(backend_c, "_cc_checked", True)
    monkeypatch.setattr(backend_c, "_cc_path", None)
    monkeypatch.setattr(fusion, "_cache", {})
    assert not compiler_available()
    tracer.clear()
    interpreted = _run_all()
    for name, want in _numpy().items():
        assert np.array_equal(interpreted[name], want), name
        if compiled is not None:
            assert np.array_equal(compiled[name], interpreted[name]), name
    instants = [(ev[1], ev[2], ev[6]) for ev in tracer.events()
                if ev[0] == "i"]
    assert ("seamless.jit", "fallback",
            {"kernel": "_sum_squares",
             "reason": "no C compiler available"}) in instants
    dispatch = [args for cat, name, args in instants
                if (cat, name) == ("seamless.vectorize", "dispatch")]
    assert dispatch == [{"kernel": k, "path": "fallback"}
                        for k in ("_relu", "_affine", "_affine", "_opaque")]
    assert ("seamless.elementwise", "no_compiler", None) in instants
    assert ("odin.fusion", "fallback", {"reason": "no compiler"}) in instants
    assert not [i for i in instants if i[1] == "build_failed"]

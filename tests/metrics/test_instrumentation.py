"""The instrumented layers feed the registry when metrics are enabled."""

import numpy as np
import pytest

from repro.metrics import Histogram
from tests.conftest import spmd


def test_collectives_count_calls_and_bytes(registry):
    def body(comm):
        comm.bcast(b"z" * 128, root=0)
        comm.allreduce(1)
        comm.barrier()

    spmd(3)(body)
    calls = {(dict(m.labels)["op"]) for m in registry.metrics()
             if m.name == "mpi.coll.calls"}
    assert {"bcast", "allreduce", "barrier"} <= calls
    sent = [m for m in registry.metrics()
            if m.name == "mpi.coll.bytes_sent"
            and dict(m.labels)["op"] == "bcast"]
    assert sent and sum(m.value for m in sent) > 0


def test_rma_bytes_by_op(registry):
    def body(comm):
        buf = np.zeros(8)
        win = __import__("repro.mpi.rma", fromlist=["Win"]).Win.Create(
            buf, comm)
        win.Fence()
        if comm.rank == 0:
            win.Put(np.ones(4), 1)
        win.Fence()
        win.Free()

    spmd(2)(body)
    put = registry.get("mpi.rma.bytes", op="Put")
    assert put is not None and put.value == 32


def test_solver_iterations_without_tracing(registry):
    from repro import galeri, solvers, tpetra

    def body(comm):
        A = galeri.create_matrix("Laplace1D", comm, n=64)
        b = tpetra.Vector(A.range_map())
        b.putScalar(1.0)
        res = solvers.cg(A, b, tol=1e-10)
        return res.converged, res.iterations

    results = spmd(2)(body)
    assert all(conv for conv, _its in results)
    its = registry.get("solver.iterations", method="cg")
    # every rank increments once per iteration
    assert its is not None and its.value == sum(k for _c, k in results)
    resid = registry.get("solver.residual", method="cg")
    assert resid is not None and resid.value <= 1e-10


def test_tpetra_plan_metrics(registry):
    from repro import tpetra
    from repro.tpetra.import_export import Import

    def body(comm):
        n = 32
        src = tpetra.Map.create_contiguous(n, comm)
        # overlapping target: everyone also wants neighbor elements
        lo = src.min_my_gid
        hi = src.max_my_gid
        gids = np.unique(np.clip(np.arange(lo - 1, hi + 2), 0, n - 1))
        tgt = tpetra.Map(n, gids, comm, kind="arbitrary")
        imp = Import(src, tgt)
        x = np.arange(src.num_my_elements, dtype=np.float64)
        y = np.zeros(tgt.num_my_elements)
        imp.apply(x, y)

    spmd(2)(body)
    names = {m.name for m in registry.metrics()}
    assert "tpetra.plan.builds" in names
    assert "tpetra.plan.remote_lids_resolved" in names
    assert "tpetra.plan.pack_bytes" in names
    assert "tpetra.plan.executions" in names


def test_odin_worker_latency_histograms(registry):
    from repro import odin
    from repro.odin.context import OdinContext

    with OdinContext(2) as ctx:
        x = odin.arange(64, ctx=ctx)
        y = x * 2.0 + 1.0
        assert float(y.sum()) > 0
    hists = [m for m in registry.metrics()
             if m.name == "odin.worker.op_seconds"]
    assert hists and all(isinstance(m, Histogram) for m in hists)
    assert sum(m.count for m in hists) > 0


def test_jit_cache_hit_miss(registry, has_cc):
    from repro.seamless import jit

    @jit
    def poly(x: float) -> float:
        return x * x + 1.0

    for _ in range(4):
        poly(2.0)
    calls = registry.get("seamless.jit.calls", kernel="poly")
    assert calls is not None and calls.value == 4
    if has_cc:
        miss = registry.get("seamless.jit.cache_misses", kernel="poly")
        hit = registry.get("seamless.jit.cache_hits", kernel="poly")
        assert miss.value == 1 and hit.value == 3
        compile_h = registry.get("seamless.jit.compile_seconds",
                                 kernel="poly")
        assert compile_h.count == 1
    else:
        fb = registry.get("seamless.jit.fallbacks", kernel="poly")
        assert fb is not None and fb.value == 4


def test_disabled_registry_records_nothing():
    from repro.metrics import REGISTRY

    assert not REGISTRY.enabled  # conftest leaves it off
    before = len(REGISTRY)

    def body(comm):
        comm.allreduce(1)

    spmd(2)(body)
    assert len(REGISTRY) == before


def _broken_vectorize(monkeypatch):
    """An @elementwise kernel whose native build always fails."""
    from repro.seamless import vectorize as vec

    def broken(*_args, **_kwargs):
        raise RuntimeError("compiler exploded")

    monkeypatch.setattr(vec, "compiler_available", lambda: True)
    monkeypatch.setattr(vec, "compile_c_source", broken)

    @vec.elementwise
    def hyp2(x: float, y: float) -> float:
        return x * x + y * y

    return hyp2


def _build_failures(events):
    return [ev for ev in events
            if ev[1] == "seamless.vectorize" and ev[2] == "build_failed"]


def test_vectorize_build_failure_is_one_counted_event(registry,
                                                      monkeypatch):
    from repro.trace import TRACER

    hyp2 = _broken_vectorize(monkeypatch)
    x = np.arange(5.0)
    assert np.array_equal(hyp2(x, x), 2 * x * x)   # NumPy fallback
    assert np.array_equal(hyp2(x, 1.0), x * x + 1.0)
    events = _build_failures(TRACER.events())
    assert len(events) == 1                        # the failure sticks
    assert events[0][6] == {"kernel": "hyp2", "error": "RuntimeError"}
    failed = registry.get("seamless.vectorize.build_failures",
                          kernel="hyp2", error="RuntimeError")
    assert failed is not None and failed.value == 1
    fallback = registry.get("seamless.vectorize.dispatch", kernel="hyp2",
                            path="fallback")
    assert fallback is not None and fallback.value == 2


def test_vectorize_build_failure_reaches_the_flight_ring(monkeypatch):
    from repro.trace import TRACER

    if not TRACER.flight:
        pytest.skip("flight ring turned off in this environment")
    assert not TRACER.enabled
    hyp2 = _broken_vectorize(monkeypatch)
    hyp2(np.arange(3.0), np.arange(3.0))
    events = _build_failures(TRACER.ring_events())
    assert events and events[-1][6]["error"] == "RuntimeError"


def test_result_dtype_fallback_is_one_counted_event(registry):
    """A ufunc that refuses the driver's dtype probe falls back to NumPy
    promotion once per key, and says so in a counted event."""
    from repro.odin import ufuncs
    from repro.trace import TRACER

    ufuncs._result_dtype.cache_clear()
    for _ in range(3):    # NumPy refuses boolean negation
        assert ufuncs._result_dtype(np.negative, np.dtype(bool)) == bool
    assert ufuncs._result_dtype.cache_info().hits == 2
    events = [ev for ev in TRACER.events() if ev[1] == "odin.ufuncs"]
    assert [ev[2] for ev in events] == ["dtype_fallback"]
    assert events[0][6]["ufunc"] == "negative"
    assert registry.get("odin.ufuncs.dtype_fallbacks").value == 1


def test_scalar_math_fallback_is_one_counted_event(registry, monkeypatch):
    """A host whose libmvec exports nothing builds the scalar loop, still
    computes the right values, and says so once per process."""
    import importlib

    from repro.seamless import compiler_available
    # the package re-exports a function named ``elementwise``
    ew = importlib.import_module("repro.seamless.elementwise")
    if not compiler_available():
        pytest.skip("no C compiler")
    monkeypatch.setattr(ew, "vector_math", lambda: frozenset())
    monkeypatch.setattr(ew, "_scalar_math_pid", None)
    prog = (("load", 0), ("unary", "sin"), ("load", 0), ("unary", "exp"),
            ("binary", "add"))
    assert "simd" not in ew.elementwise_c_source(prog, 1)
    x = np.linspace(-3.0, 3.0, 101)
    for program, expect in ((prog, np.sin(x) + np.exp(x)),
                            ((("load", 0), ("unary", "cos")), np.cos(x))):
        kernel = ew.compile_elementwise(program, 1)
        out = np.empty_like(x)
        kernel(out, x)
        assert np.allclose(out, expect, rtol=1e-15, atol=0)
    assert registry.get("seamless.cc.scalar_math").value == 1

"""F1 -- Fig. 1 of the paper: the ODIN process/worker architecture.

Measures, for representative operations, the bytes the ODIN process sends
(control plane) versus the bytes workers exchange among themselves (data
plane), demonstrating the paper's claims that control messages are tiny
("at most tens of bytes" of payload) and that workers bypass the driver
for data movement.
"""

import numpy as np

from repro import odin
from repro.metrics import REGISTRY as _MX
from repro.odin.context import OdinContext

try:
    from .common import Section, main, table
except ImportError:  # executed as a script, not as a package module
    from common import Section, main, table

N = 200_000
N_SOLVE = 512
WORKERS = 4
BATCH_OPS = 10   # ops in the create/store sequence for the round-trip bench


def _measure():
    rows = []
    with OdinContext(WORKERS) as ctx:
        def snap(label):
            ctx.flush()  # batched ops: synchronize before reading counters
            cm, cb = ctx.control_traffic()
            wm, wb = ctx.worker_traffic()
            rows.append((label, cm, cb, wm, wb,
                         f"{wb / max(cb, 1):.1f}x"))
            ctx.reset_counters()

        ctx.reset_counters()
        x = odin.random(N, ctx=ctx, seed=1)
        snap(f"create random({N:,})")

        y = odin.sin(x)
        snap("unary ufunc sin(x)")

        z = x + y
        snap("binary ufunc x + y (conformable)")

        _w = x.redistribute(odin.CyclicDistribution((N,), 0, WORKERS))
        snap("redistribute block -> cyclic")

        _d = y[1:] - y[:-1]
        snap("shifted-slice difference")

        _s = x.sum()
        snap("global sum reduction")

        # ODIN -> PyTrilinos bridge: CG on a Galeri Laplacian, iterating
        # on the workers.  Exercises every layer at once (control ops,
        # worker-side solver iterations, MPI collectives), which is also
        # what makes this benchmark the reference trace producer.
        b = odin.ones(N_SOLVE, ctx=ctx)
        _xs, _info = odin.trilinos.solve("Laplace1D", b,
                                         matrix_params={"n": N_SOLVE},
                                         solver="CG", tol=1e-8,
                                         maxiter=2 * N_SOLVE)
        snap(f"CG solve Laplace1D({N_SOLVE:,})")
    return rows


def _gather_calls() -> float:
    """Total gather collective invocations recorded by the metrics
    registry (each logical gather counts once per participating rank --
    the factor cancels in the batched/per-op ratio)."""
    return sum(m.value for m in _MX.metrics()
               if m.name == "mpi.coll.calls"
               and dict(m.labels).get("op") == "gather")


def _measure_round_trips():
    """Driver round trips for a 10-op create/store sequence.

    A round trip is a result gather the driver blocks on; with batching
    the whole sequence defers to one synchronizing flush.  Counted from
    ``mpi.coll.calls`` metrics, not wall clock.  Metrics are a view of
    the trace, so the count is a difference, and a trace the caller
    keeps is left intact.
    """
    was_enabled = _MX.enabled
    counts = {}
    _MX.enable()
    try:
        for label, batch in (("per-op", False), ("batched", True)):
            with OdinContext(WORKERS, batch=batch) as ctx:
                before = _gather_calls()   # startup-split collectives
                arrays = [odin.zeros(1024, ctx=ctx)
                          for _ in range(BATCH_OPS // 2)]
                stored = [odin.sin(a) for a in arrays]
                ctx.flush()
                counts[label] = _gather_calls() - before
                del stored
    finally:
        if not was_enabled:
            _MX.disable()
            _MX.clear()
    return counts


def generate_report() -> str:
    rows = _measure()
    trips = _measure_round_trips()
    section = Section("F1: Fig. 1 -- control plane vs data plane")
    section.add(table(
        ["operation", "ctl msgs", "ctl bytes", "wrk msgs", "wrk bytes",
         "data/ctl"], rows,
        title=f"{WORKERS} workers, N = {N:,} float64 "
              f"({8 * N:,} bytes of payload)"))
    section.line(
        "Creation/ufuncs/reductions move no array data at all; the only "
        "data-plane traffic comes from redistribution and halo exchange, "
        "and it flows worker-to-worker (the ODIN process never relays "
        "payload). Control messages are a few hundred bytes regardless of "
        "the multi-megabyte arrays they describe -- Fig. 1's design, "
        "measured.")
    ratio = trips["per-op"] / max(trips["batched"], 1)
    section.line(
        f"Control-plane batching: a {BATCH_OPS}-op create/store sequence "
        f"costs {trips['batched']:.0f} result-gather collectives batched "
        f"vs {trips['per-op']:.0f} op-per-round-trip "
        f"({ratio:.1f}x fewer driver round trips).")
    return section.render()


def test_control_plane_stays_small(benchmark):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    create_row = rows[0]
    assert create_row[2] < 5_000          # control bytes for creation
    redist_row = rows[3]
    assert redist_row[4] > 100 * redist_row[2]   # data >> control


def test_batching_halves_driver_round_trips():
    trips = _measure_round_trips()
    # acceptance: >= 2x fewer round trips for the 10-op sequence,
    # asserted on collective-call metrics rather than wall clock
    assert trips["per-op"] >= 2 * trips["batched"]


if __name__ == "__main__":
    main(generate_report)

"""C1 -- "parallel array computations as straightforward as serial":
scaling of distributed ufunc evaluation.

The thread runtime shares one CPU, so raw wall time cannot show scaling;
instead the bench measures the actual per-worker work and communication
for 1..16 workers and projects strong-scaling times with the alpha-beta
cost model -- the communication *counts* are exact, only the rates are
modeled.

Since the multiprocess transport landed, the projection is no longer the
only story: :func:`measure_backend_wall` runs the same pipeline as real
SPMD wall time on both backends.  The per-rank work is a Python-level
loop of ufunc applications -- the interpreter glue between calls holds
the GIL, so rank threads serialize while rank processes genuinely
overlap; on a multicore host the process backend shows the speedup the
cost model has been projecting.
"""

import os
import time

import numpy as np

from repro import mpi, odin
from repro.mpi import COMMODITY_CLUSTER
from repro.odin.context import OdinContext

try:
    from .common import Section, main, table
except ImportError:  # executed as a script, not as a package module
    from common import Section, main, table

N = 1_000_000
WORKER_COUNTS = [1, 2, 4, 8, 16]
FLOPS_PER_ELEMENT = 9.0  # sqrt(u*u+v*v)*2-1: ~9 flops with sqrt weight


def _traffic_for(w):
    with OdinContext(w) as ctx:
        u = odin.random(N, ctx=ctx, seed=1)
        v = odin.random(N, ctx=ctx, seed=2)
        ctx.flush()  # the creates' epoch is not part of the expression
        ctx.reset_counters()
        with odin.lazy():
            expr = odin.sqrt(u * u + v * v) * 2.0 - 1.0
        _out = odin.evaluate(expr, use_seamless=False)
        ctx.flush()  # ship the fused op's epoch before reading
        cm, cb = ctx.control_traffic()
        wm, wb = ctx.worker_traffic()
    return cm + wm, cb + wb


def _measure():
    model = COMMODITY_CLUSTER
    t1 = None
    rows = []
    for w in WORKER_COUNTS:
        msgs, nbytes = _traffic_for(w)
        compute = model.compute_time(N * FLOPS_PER_ELEMENT / w)
        comm = model.comm_time(msgs, nbytes)
        total = compute + comm
        if t1 is None:
            t1 = total
        rows.append((w, msgs, f"{nbytes:,}", f"{compute * 1e3:.2f}",
                     f"{comm * 1e6:.0f}", f"{total * 1e3:.2f}",
                     f"{t1 / total:.2f}", f"{t1 / total / w * 100:.0f}%"))
    return rows


def generate_report() -> str:
    rows = _measure()
    section = Section("C1: strong scaling of a fused distributed "
                      "expression (projected)")
    section.add(table(
        ["workers", "messages", "bytes", "compute ms", "comm us",
         "total ms", "speedup", "efficiency"], rows,
        title=f"sqrt(u*u+v*v)*2-1, N = {N:,}; traffic measured, times "
              f"projected on {COMMODITY_CLUSTER.name}"))
    section.line(
        "The expression is embarrassingly parallel: measured "
        "communication stays in the control plane (kilobytes), so "
        "projected efficiency stays near 100% out to 16 workers -- the "
        "serial NumPy code needed zero changes to get there, which is "
        "the section III-D claim.")
    m = measure_backend_wall(repeats=1)
    section.add(table(
        ["backend", "wall s"],
        [("thread", f"{m['thread_s']:.3f}"),
         ("process", f"{m['process_s']:.3f}"),
         ("speedup", f"{m['speedup']:.2f}x")],
        title=f"measured wall time, same pipeline, nranks="
              f"{m['nranks']} on {m['cpu_count']} CPU core(s)"))
    section.line(
        "The wall-time table is measured, not projected: on a multicore "
        "host the process transport escapes the GIL and approaches the "
        "projected scaling; on a single core it can only add fork and "
        "IPC overhead, and the honest number shows that too.")
    return section.render()


# ----------------------------------------------------------------------
# measured wall time: thread vs process transport
# ----------------------------------------------------------------------
BACKEND_NRANKS = 4
PIPELINE_ITERS = 4000  # ~1 s of serialized compute: dwarfs fork cost
CHUNK = 20_000  # elements per ufunc call: interpreter glue is visible


def _pipeline_body(comm, n, iters):
    """The C1 expression, evaluated as a per-rank Python/ufunc loop."""
    lo = comm.rank * (n // comm.size)
    u = np.linspace(0.0, 1.0, CHUNK) + lo
    v = np.linspace(1.0, 2.0, CHUNK)
    acc = 0.0
    for _ in range(iters):
        w = np.sqrt(u * u + v * v) * 2.0 - 1.0
        acc += float(w[0])
    return acc


def measure_backend_wall(nranks=BACKEND_NRANKS, iters=PIPELINE_ITERS,
                         repeats=3):
    """Median wall seconds per backend for the same SPMD pipeline."""
    out = {"nranks": nranks, "cpu_count": os.cpu_count()}
    for backend in ("thread", "process"):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = mpi.run_spmd(_pipeline_body, nranks, args=(N, iters),
                               backend=backend)
            times.append(time.perf_counter() - t0)
            assert len(res) == nranks
        out[backend + "_s"] = sorted(times)[len(times) // 2]
    out["speedup"] = out["thread_s"] / out["process_s"]
    return out


def test_scaling_traffic_is_flat(benchmark):
    def run():
        return {w: _traffic_for(w) for w in (2, 8)}
    traffic = benchmark.pedantic(run, rounds=1, iterations=1)
    # bytes grow at most modestly with worker count (control plane only)
    assert traffic[8][1] < 20 * traffic[2][1]
    assert traffic[8][1] < 8 * N  # never anywhere near the payload


if __name__ == "__main__":
    main(generate_report)

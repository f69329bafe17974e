"""L2/C1 -- the paper's distributed finite-difference example at scale.

Runs the section III-G expression ``dy/dx = (y[1:] - y[:-1]) / dx`` for
several problem sizes, reporting wall time vs serial NumPy, the measured
halo traffic, and alpha-beta projected communication time on a commodity
cluster (where the traffic, not the thread runtime, is the honest unit).
"""

import time

import numpy as np

from repro import odin
from repro.mpi import COMMODITY_CLUSTER
from repro.odin.context import OdinContext

try:
    from .common import Section, main, table
except ImportError:  # executed as a script, not as a package module
    from common import Section, main, table

WORKERS = 4
SIZES = [10_000, 100_000, 1_000_000]


def _run_once(n, ctx):
    x = odin.linspace(1, 2 * np.pi, n, ctx=ctx)
    y = odin.sin(x)
    ctx.flush()  # run the setup's epoch outside the measured window
    ctx.reset_counters()
    t0 = time.perf_counter()
    dy = y[1:] - y[:-1]
    dydx = dy / (x[1] - x[0])
    ctx.flush()  # the slices and ufuncs run when their epoch ships
    dt = time.perf_counter() - t0
    cm, cb = ctx.control_traffic()
    wm, wb = ctx.worker_traffic()
    return dydx, dt, (cm + wm, cb + wb)


def _serial(n):
    xs = np.linspace(1, 2 * np.pi, n)
    ys = np.sin(xs)
    t0 = time.perf_counter()
    _ = (ys[1:] - ys[:-1]) / (xs[1] - xs[0])
    return time.perf_counter() - t0


def _measure():
    rows = []
    with OdinContext(WORKERS) as ctx:
        for n in SIZES:
            dydx, dt, (msgs, nbytes) = _run_once(n, ctx)
            ser = _serial(n)
            ref = np.diff(np.sin(np.linspace(1, 2 * np.pi, n)))
            ref /= (2 * np.pi - 1) / (n - 1)
            err = float(np.abs(dydx.gather() - ref).max())
            proj = COMMODITY_CLUSTER.comm_time(msgs, nbytes)
            rows.append((f"{n:,}", f"{ser * 1e3:.2f}", f"{dt * 1e3:.2f}",
                         msgs, f"{nbytes:,}", f"{proj * 1e6:.1f}",
                         f"{err:.1e}"))
    return rows


def generate_report() -> str:
    rows = _measure()
    section = Section("L2/C1: distributed finite differences "
                      "(paper section III-G)")
    section.add(table(
        ["N", "numpy ms", "odin ms", "messages", "bytes moved",
         "proj comm us", "max err"],
        rows, title=f"{WORKERS} workers; projection: "
                    f"{COMMODITY_CLUSTER.name} (alpha-beta model)"))
    section.line(
        "The halo exchange volume stays O(workers), independent of N: the "
        "projected cluster communication time is microseconds even for "
        "10^6 points, while the equivalent hand-written MPI code would "
        "need the same sends the runtime performed automatically.")
    return section.render()


def test_fd_expression(benchmark):
    with OdinContext(WORKERS) as ctx:
        x = odin.linspace(1, 2 * np.pi, 200_000, ctx=ctx)
        y = odin.sin(x)
        dx = x[1] - x[0]

        def step():
            return (y[1:] - y[:-1]) / dx

        result = benchmark(step)
        assert result.shape == (199_999,)


if __name__ == "__main__":
    main(generate_report)

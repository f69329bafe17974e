"""Recovery cost: checkpoint overhead and time-to-recover.

Three measurements quantify what fault tolerance costs:

1. **Checkpoint epoch cost** -- bytes shipped to the ring partner and
   seconds per ``ctx.checkpoint()`` epoch, per array size;
2. **ODIN time-to-recover** -- wall-clock of an op during which a worker
   is killed (detection + shrink + restore + replay), against the same
   op fault-free;
3. **Solver time-to-recover** -- ``resilient_solve`` with a mid-solve
   rank kill against a fault-free run of the same CG solve.
"""

import os
import tempfile
import time

import numpy as np

from repro import galeri, mpi, odin, solvers
from repro.mpi.errors import InjectedFault
from repro.tpetra import Operator, Vector

try:
    from .common import main, table
except ImportError:  # executed as a script, not as a package module
    from common import main, table

NWORKERS = 3
SIZES = [100_000, 1_000_000]
GRID = 24            # solver problem: GRID x GRID Laplacian
REPEATS = 3


def _ckpt_epochs():
    """(size, live arrays, bytes/epoch, best seconds/epoch) rows."""
    rows = []
    for n in SIZES:
        ctx = odin.init(NWORKERS, recover=True)
        try:
            x = odin.array(np.arange(float(n)))
            y = x * 2.0 + 1.0
            keep = (x, y)
            best, nbytes = float("inf"), 0
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                nbytes = ctx.checkpoint()
                best = min(best, time.perf_counter() - t0)
            rows.append((n, len(keep), nbytes, best))
        finally:
            odin.shutdown()
    return rows


def _odin_recover(n):
    """(fault-free op seconds, op-with-recovery seconds)."""
    ctx = odin.init(NWORKERS, recover=True)
    scratch = tempfile.TemporaryDirectory()
    try:
        src = np.arange(float(n))
        z = odin.array(src) * 2.0
        ctx.checkpoint()
        z = z + 1.0                      # one op to replay
        # armed while this file exists: the victim removes it and dies,
        # which every worker sees on either backend
        armed = os.path.join(scratch.name, "armed")

        @odin.local
        def op(a):
            if odin.worker_index() == 1 and os.path.exists(armed):
                os.remove(armed)
                raise InjectedFault(2, 0, "bench kill")
            return a * 1.0

        t0 = time.perf_counter()
        op(z)
        base = time.perf_counter() - t0

        open(armed, "x").close()
        t0 = time.perf_counter()
        op(z)
        recov = time.perf_counter() - t0
        assert ctx.nworkers == NWORKERS - 1
        return base, recov
    finally:
        odin.shutdown()
        scratch.cleanup()


class _KillerOp(Operator):
    def __init__(self, inner, comm, after, counts):
        self.inner, self.comm = inner, comm
        self.after, self.counts = after, counts

    def domain_map(self):
        return self.inner.domain_map()

    def range_map(self):
        return self.inner.range_map()

    def apply(self, x, y, trans=False):
        if self.after is not None and self.comm.context.rank == 1:
            k = self.counts.get(1, 0) + 1
            self.counts[1] = k
            if k > self.after:
                raise InjectedFault(1, k, "bench solver kill")
        return self.inner.apply(x, y, trans=trans)


def _solver_recover():
    """(fault-free seconds, with-kill seconds, restarts, iters)."""
    def run(after):
        counts = {}

        def body(comm):
            def make(c):
                A = galeri.laplace_2d(GRID, GRID, c)
                b = Vector(A.row_map)
                b.local_view = np.sin(
                    np.asarray(A.row_map.my_gids, dtype=float))
                return _KillerOp(A, c, after, counts), b

            t0 = time.perf_counter()
            res = solvers.resilient_solve(comm, make, method="cg",
                                          tol=1e-10, maxiter=2000,
                                          ckpt_every=25)
            return (time.perf_counter() - t0, res.restarts,
                    res.iterations, res.converged)

        out = mpi.run_spmd(body, NWORKERS, timeout=120,
                           fault_mode="failstop")
        live = [o for o in out if not isinstance(o, InjectedFault)]
        assert all(o[3] for o in live)
        return (max(o[0] for o in live), max(o[1] for o in live),
                max(o[2] for o in live))

    t_clean, _r0, it_clean = run(after=None)
    t_kill, restarts, it_kill = run(after=30)
    return t_clean, it_clean, t_kill, restarts, it_kill


def generate_report() -> str:
    out = []
    out.append(table(
        ["elements", "arrays", "bytes/epoch", "s/epoch"],
        [(n, k, f"{b:,}", f"{s:.4f}") for n, k, b, s in _ckpt_epochs()],
        title="Checkpoint epoch cost (partner copies, "
              f"{NWORKERS} workers)"))

    rows = []
    for n in SIZES:
        base, recov = _odin_recover(n)
        rows.append((n, f"{base:.4f}", f"{recov:.4f}",
                     f"{recov - base:.4f}"))
    out.append(table(
        ["elements", "op fault-free s", "op w/ recovery s",
         "time-to-recover s"],
        rows,
        title="ODIN time-to-recover (kill 1 worker mid-op: detect + "
              "shrink + restore + replay)"))

    t_clean, it_clean, t_kill, restarts, it_kill = _solver_recover()
    out.append(table(
        ["run", "seconds", "iterations", "restarts"],
        [("fault-free CG", f"{t_clean:.4f}", it_clean, 0),
         ("CG w/ rank kill", f"{t_kill:.4f}", it_kill, restarts)],
        title=f"Solver time-to-recover (2-D Laplacian {GRID}x{GRID}, "
              f"{NWORKERS} ranks, iterate ckpt every 25 its)"))
    return "\n".join(out)


if __name__ == "__main__":
    main(generate_report)

"""C4b -- nonsymmetric solves: GMRES/BiCGStab/TFQMR on convection-diffusion.

The convection-dominated Recirc2D-style operator is the standard
nonsymmetric stress test; the shape to verify is that ILU-type
preconditioning collapses the iteration count and that CG (wrong method)
fails where GMRES succeeds.
"""

import os
import time

import numpy as np

from repro import galeri, mpi, solvers, tpetra

try:
    from .common import Section, main, table
except ImportError:  # executed as a script, not as a package module
    from common import Section, main, table

NRANKS = 3
NX = NY = 24


def _measure():
    def body(comm):
        A = galeri.convection_diffusion_2d(NX, NY, comm, conv_x=20.0,
                                           conv_y=10.0)
        x_true = tpetra.Vector(A.row_map)
        x_true.randomize(seed=2)
        b = A @ x_true
        rows = []

        def run(label, fn):
            r = fn()
            err = (r.x - x_true).norm2() / x_true.norm2()
            rows.append((label, str(r.converged), r.iterations,
                         f"{err:.1e}"))

        run("GMRES(30)", lambda: solvers.gmres(A, b, tol=1e-10,
                                               maxiter=4000))
        run("GMRES(30) + ILU(0)", lambda: solvers.gmres(
            A, b, prec=solvers.ILU0(A), tol=1e-10, maxiter=4000))
        run("GMRES(30) + ILUT", lambda: solvers.gmres(
            A, b, prec=solvers.ILUT(A), tol=1e-10, maxiter=4000))
        run("BiCGStab + ILU(0)", lambda: solvers.bicgstab(
            A, b, prec=solvers.ILU0(A), tol=1e-10, maxiter=4000))
        run("TFQMR + ILU(0)", lambda: solvers.tfqmr(
            A, b, prec=solvers.ILU0(A), tol=1e-10, maxiter=4000))
        run("CG (wrong method)", lambda: solvers.cg(
            A, b, tol=1e-10, maxiter=300))
        return rows
    return mpi.run_spmd(body, NRANKS)[0]


def generate_report() -> str:
    rows = _measure()
    section = Section("C4b: nonsymmetric convection-diffusion solves")
    section.add(table(
        ["method", "converged", "iterations", "rel err"], rows,
        title=f"{NX}x{NY} upwinded convection-diffusion, conv=(20,10), "
              f"{NRANKS} ranks"))
    section.line(
        "GMRES and its transpose-free cousins converge; ILU-type "
        "preconditioning cuts iterations by an order of magnitude; CG, "
        "which assumes symmetry, fails to converge -- the standard "
        "qualitative picture for this operator family.")
    return section.render()


def test_gmres_ilu_convdiff(benchmark):
    def run():
        def body(comm):
            A = galeri.convection_diffusion_2d(NX, NY, comm, conv_x=20.0,
                                               conv_y=10.0)
            b = tpetra.Vector(A.row_map).putScalar(1.0)
            r = solvers.gmres(A, b, prec=solvers.ILU0(A), tol=1e-10,
                              maxiter=2000)
            return r.converged, r.iterations
        return mpi.run_spmd(body, NRANKS)[0]
    conv, _its = benchmark.pedantic(run, rounds=1, iterations=1)
    assert conv


# ----------------------------------------------------------------------
# measured wall time: thread vs process transport
# ----------------------------------------------------------------------
BACKEND_NRANKS = 4
# 96x96 -> 214 GMRES iterations, seconds of per-rank compute: the solve
# must be compute-bound for the backend comparison to measure transports
# rather than fork overhead
BACKEND_NX = BACKEND_NY = 96


def _solve_body(comm):
    A = galeri.convection_diffusion_2d(BACKEND_NX, BACKEND_NY, comm,
                                       conv_x=20.0, conv_y=10.0)
    b = tpetra.Vector(A.row_map).putScalar(1.0)
    r = solvers.gmres(A, b, prec=solvers.ILU0(A), tol=1e-10, maxiter=2000)
    return r.converged, r.iterations


def measure_backend_wall(nranks=BACKEND_NRANKS, repeats=3):
    """Median wall seconds per backend for the same GMRES+ILU(0) solve.

    The solver iteration is Python control flow over modest per-rank
    vectors: exactly the GIL-bound shape the process transport exists
    for.  Results must also agree across backends (checked here).
    """
    out = {"nranks": nranks, "cpu_count": os.cpu_count(),
           "nx": BACKEND_NX, "ny": BACKEND_NY}
    iters = {}
    for backend in ("thread", "process"):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = mpi.run_spmd(_solve_body, nranks, backend=backend)
            times.append(time.perf_counter() - t0)
            conv, its = res[0]
            assert conv
            iters[backend] = its
        out[backend + "_s"] = sorted(times)[len(times) // 2]
    assert iters["thread"] == iters["process"], iters  # same arithmetic
    out["iterations"] = iters["thread"]
    out["speedup"] = out["thread_s"] / out["process_s"]
    return out


if __name__ == "__main__":
    main(generate_report)

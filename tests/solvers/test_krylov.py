"""Krylov solver tests on gallery problems."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from repro import galeri, mpi, solvers, tpetra
from repro.teuchos import ParameterList
from tests.conftest import spmd


def _problem(comm, nx=12, ny=12, symmetric=True, seed=0):
    if symmetric:
        A = galeri.laplace_2d(nx, ny, comm)
    else:
        A = galeri.convection_diffusion_2d(nx, ny, comm)
    x_true = tpetra.Vector(A.row_map)
    x_true.randomize(seed=seed)
    b = A @ x_true
    return A, b, x_true


class TestCG:
    def test_converges_on_spd(self):
        def body(comm):
            A, b, x_true = _problem(comm)
            r = solvers.cg(A, b, tol=1e-10, maxiter=1000)
            return r.converged, (r.x - x_true).norm2() / x_true.norm2()
        for conv, err in spmd(3)(body):
            assert conv and err < 1e-7

    def test_zero_rhs_converges_immediately(self):
        def body(comm):
            A, _b, _x = _problem(comm)
            zero = tpetra.Vector(A.row_map)
            r = solvers.cg(A, zero, tol=1e-10)
            return r.iterations, r.x.norm2()
        its, norm = spmd(2)(body)[0]
        assert its == 0 and norm == 0.0

    def test_history_monotone_tail(self):
        def body(comm):
            A, b, _x = _problem(comm)
            r = solvers.cg(A, b, tol=1e-12, maxiter=500)
            return r.history
        hist = spmd(2)(body)[0]
        assert hist[-1] < hist[0] * 1e-10

    def test_initial_guess_respected(self):
        def body(comm):
            A, b, x_true = _problem(comm)
            x0 = x_true.copy()
            r = solvers.cg(A, b, x=x0, tol=1e-10)
            return r.iterations
        assert spmd(2)(body)[0] == 0

    def test_maxiter_reported_not_converged(self):
        def body(comm):
            A, b, _x = _problem(comm, nx=20, ny=20)
            r = solvers.cg(A, b, tol=1e-14, maxiter=3)
            return r.converged, r.iterations, r.message
        conv, its, msg = spmd(2)(body)[0]
        assert not conv and its == 3 and "maximum" in msg


class TestGMRES:
    def test_nonsymmetric(self):
        def body(comm):
            A, b, x_true = _problem(comm, symmetric=False)
            r = solvers.gmres(A, b, tol=1e-10, maxiter=2000, restart=40)
            return r.converged, (r.x - x_true).norm2() / x_true.norm2()
        for conv, err in spmd(3)(body):
            assert conv and err < 1e-6

    def test_restart_effect(self):
        """Small restart converges but needs more iterations."""
        def body(comm):
            A, b, _x = _problem(comm, nx=14, ny=14)
            short = solvers.gmres(A, b, tol=1e-8, restart=5, maxiter=5000)
            full = solvers.gmres(A, b, tol=1e-8, restart=200, maxiter=5000)
            return short.converged, full.converged, \
                short.iterations >= full.iterations
        conv_s, conv_f, more = spmd(2)(body)[0]
        assert conv_s and conv_f and more

    def test_flexible_with_iterative_preconditioner(self):
        """FGMRES tolerates a nonlinear (iterative) preconditioner."""
        def body(comm):
            A, b, x_true = _problem(comm)
            inner = solvers.SymmetricGaussSeidel(A, sweeps=2)
            r = solvers.gmres(A, b, prec=inner, tol=1e-10, flexible=True,
                              maxiter=500)
            return r.converged, (r.x - x_true).norm2() / x_true.norm2()
        conv, err = spmd(2)(body)[0]
        assert conv and err < 1e-7

    def test_right_preconditioning_true_residual(self):
        def body(comm):
            A, b, _x = _problem(comm)
            r = solvers.gmres(A, b, prec=solvers.Jacobi(A), tol=1e-9)
            resid = tpetra.Vector(b.map)
            A.apply(r.x, resid)
            resid.update(1.0, b, -1.0)
            return resid.norm2() / b.norm2() <= 1e-8
        assert all(spmd(2)(body))


def _allreduces(comm):
    return sum(n for (name, _algo), n in
               comm.traffic_snapshot().coll_calls.items()
               if name.lower() == "allreduce")


def _dense_gmres_history(A, b, restart, maxiter):
    """Reference restarted GMRES on a dense global matrix, with modified
    Gram-Schmidt applied twice: the relative residual of every iteration
    and the final iterate."""
    x = np.zeros_like(b)
    hist = []
    bnorm = np.linalg.norm(b)
    while len(hist) < maxiter:
        r = b - A @ x
        beta = np.linalg.norm(r)
        m = min(restart, maxiter - len(hist))
        Q = np.zeros((len(b), m + 1))
        H = np.zeros((m + 1, m))
        Q[:, 0] = r / beta
        for j in range(m):
            w = A @ Q[:, j]
            for _pass in range(2):
                for i in range(j + 1):
                    c = Q[:, i] @ w
                    H[i, j] += c
                    w -= c * Q[:, i]
            H[j + 1, j] = np.linalg.norm(w)
            Q[:, j + 1] = w / H[j + 1, j]
            e1 = np.zeros(j + 2)
            e1[0] = beta
            y = np.linalg.lstsq(H[:j + 2, :j + 1], e1, rcond=None)[0]
            hist.append(np.linalg.norm(e1 - H[:j + 2, :j + 1] @ y) / bnorm)
        x = x + Q[:, :m] @ y
    return hist, x


def _ledger_rhs(seed, n):
    """The right-hand side of the ledger's gmres workload for *seed*."""
    rng = np.random.default_rng([seed, 5])
    return 1.0 + 0.01 * rng.standard_normal(n)


class TestGMRESReductions:
    """DCGS2: one Allreduce per Arnoldi step, one to finish each cycle."""

    @staticmethod
    def _expected_allreduces(steps, restart):
        """||b||, then per cycle its ||r0||, one per step and one to
        finish the last column, then the closing ||r||."""
        cycles = -(-steps // restart)
        return 1 + cycles * 2 + steps + 1

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("flexible", [False, True])
    def test_one_allreduce_per_arnoldi_step(self, backend, flexible):
        def body(comm):
            A, b, _x = _problem(comm, nx=16, ny=16, symmetric=False)
            prec = solvers.ILU0(A)
            calls = {}
            for steps in (5, 15):
                before = _allreduces(comm)
                r = solvers.gmres(A, b, prec=prec, tol=1e-14,
                                  maxiter=steps, restart=30,
                                  flexible=flexible)
                assert not r.converged and r.iterations == steps
                calls[steps] = _allreduces(comm) - before
            return calls
        for calls in mpi.run_spmd(body, 2, backend=backend, timeout=60):
            assert calls == {steps: self._expected_allreduces(steps, 30)
                             for steps in (5, 15)}

    @pytest.mark.parametrize("flexible", [False, True])
    def test_restart_boundary_matches_reference(self, flexible):
        """restart=5, maxiter=17: three full cycles, each closed by its
        finishing reduction, and a 2-step tail.  Every residual and the
        iterate match a dense two-pass Gram-Schmidt GMRES(5)."""
        def body(comm):
            A, b, _x = _problem(comm, nx=8, ny=8, symmetric=False)
            before = _allreduces(comm)
            r = solvers.gmres(A, b, tol=1e-14, maxiter=17, restart=5,
                              flexible=flexible)
            calls = _allreduces(comm) - before
            return (r.iterations, r.history, calls,
                    r.x.gather_all().ravel(),
                    A.to_scipy_global(root=None).toarray(),
                    b.gather_all().ravel())
        its, hist, calls, x, A, b = spmd(2)(body)[0]
        assert its == 17
        assert calls == self._expected_allreduces(17, 5) == 27
        ref_hist, ref_x = _dense_gmres_history(A, b, restart=5, maxiter=17)
        # history[0] is ||r0||/||b||; the last entry is the true residual
        np.testing.assert_allclose(hist[1:-1], ref_hist[:-1], rtol=1e-8)
        np.testing.assert_allclose(x, ref_x, rtol=1e-9,
                                   atol=1e-12 * np.abs(ref_x).max())

    def test_happy_breakdown_three_eigenvalues(self):
        """diag(1, 2, 3): the third step spans the whole space, so the
        fourth first-pass vector u lies inside the basis and, with
        a = Q^H u, u.u - a.a is pure rounding, negative for about a
        quarter of the right-hand sides.  The clamp must keep that from
        becoming NaN."""
        def body(comm):
            m = tpetra.Map.create_contiguous(3, comm)
            A = tpetra.CrsMatrix(m)
            for gid in m.my_gids:
                A.insert_global_values(int(gid), [int(gid)], [1.0 + gid])
            A.fillComplete()
            out = []
            for seed in range(40):
                b = tpetra.Vector(m)
                b.randomize(seed=seed)
                r = solvers.gmres(A, b, tol=1e-10, maxiter=50)
                true = (b - A @ r.x).norm2() / b.norm2()
                out.append((r.converged, r.iterations, true))
            return out
        for out in spmd(2)(body):
            for conv, its, true in out:
                assert conv and its <= 3 and true <= 1e-9

    def test_convection_diffusion_ilu0_iterations(self):
        """The ledger's gmres problem: 119 iterations, true residual."""
        def body(comm):
            A = galeri.convection_diffusion_2d(64, 64, comm, conv_x=20.0,
                                               conv_y=10.0)
            b = tpetra.Vector(A.row_map).putScalar(1.0)
            r = solvers.gmres(A, b, prec=solvers.ILU0(A), tol=1e-10,
                              maxiter=2000)
            true = (b - A @ r.x).norm2() / b.norm2()
            return r.converged, r.iterations, true
        for conv, its, true in spmd(2)(body):
            assert conv and abs(its - 119) <= 2 and true <= 1e-9

    def test_ledger_problem_iteration_parity(self):
        """The ledger's seeded right-hand sides: DCGS2 keeps CGS2's
        exact count of 119 on seeds 1-20, for GMRES and FGMRES."""
        def body(comm):
            A = galeri.convection_diffusion_2d(64, 64, comm, conv_x=20.0,
                                               conv_y=10.0)
            prec = solvers.ILU0(A)
            b = tpetra.Vector(A.row_map)
            out = []
            for seed in range(1, 21):
                b.local_view = _ledger_rhs(seed, 64 * 64)[A.row_map.my_gids]
                for flexible in (False, True):
                    r = solvers.gmres(A, b, prec=prec, tol=1e-10,
                                      maxiter=2000, flexible=flexible)
                    out.append((seed, flexible, r.converged, r.iterations))
            return out
        for out in spmd(2)(body):
            assert [row for row in out if row[2:] != (True, 119)] == []

    @pytest.mark.parametrize("flexible", [False, True])
    def test_convection_dominated_matches_cgs2_count(self, flexible):
        """Cell Peclet number ~45, unpreconditioned GMRES(25): CGS2
        converged in 150 iterations (GMRES and FGMRES alike).  DCGS2's
        lagged reorthogonalisation must stay within 2 of that."""
        cgs2_iterations = 150
        tol = 1e-10

        def body(comm):
            A = galeri.convection_diffusion_2d(32, 32, comm, conv_x=3000.0,
                                               conv_y=-1500.0)
            b = tpetra.Vector(A.row_map).putScalar(1.0)
            r = solvers.gmres(A, b, tol=tol, maxiter=3000, restart=25,
                              flexible=flexible)
            true = (b - A @ r.x).norm2() / b.norm2()
            return r.converged, r.iterations, true
        for conv, its, true in spmd(2)(body):
            assert conv and abs(its - cgs2_iterations) <= 2
            assert true <= 10 * tol

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("flexible", [False, True])
    def test_complex_system_matches_spsolve(self, backend, flexible):
        """A complex nonsymmetric tridiagonal system: the projections
        conjugate the basis, H and g are complex and the rotations have a
        real cosine and a complex sine."""
        n = 40
        S = sp.diags([4 + 1j, -1, -1 + 0.5j], [0, -1, 1], shape=(n, n),
                     format="csr")
        rhs = np.exp(1j * np.arange(n) / 3.0)
        ref = spsolve(S.tocsc(), rhs)

        def body(comm):
            m = tpetra.Map.create_contiguous(n, comm)
            A = tpetra.CrsMatrix.from_scipy(S, m)
            b = tpetra.Vector(m, dtype=complex)
            b.local_view = rhs[m.my_gids]
            with warnings.catch_warnings():
                warnings.simplefilter("error", np.exceptions.ComplexWarning)
                r = solvers.gmres(A, b, tol=1e-12, maxiter=200,
                                  flexible=flexible)
            return r.converged, r.iterations, r.x.gather_all().ravel()
        for conv, its, x in mpi.run_spmd(body, 2, backend=backend,
                                         timeout=60):
            assert conv and its < 40
            assert np.abs(x - ref).max() <= 1e-9 * np.abs(ref).max()


class TestBiCGStab:
    def test_nonsymmetric(self):
        def body(comm):
            A, b, x_true = _problem(comm, symmetric=False)
            r = solvers.bicgstab(A, b, prec=solvers.ILU0(A), tol=1e-10,
                                 maxiter=2000)
            return r.converged, (r.x - x_true).norm2() / x_true.norm2()
        for conv, err in spmd(2)(body):
            assert conv and err < 1e-6


class TestMINRES:
    def test_indefinite_symmetric(self):
        """MINRES handles a shifted (indefinite) Laplacian."""
        def body(comm):
            n = 12
            A0 = galeri.laplace_1d(n, comm)
            # shift by -1.0: some eigenvalues become negative
            A = tpetra.CrsMatrix(A0.row_map)
            for gid in A0.row_map.my_gids:
                cols, vals = A0.global_row(int(gid))
                A.insert_global_values(int(gid), cols, vals)
                A.insert_global_values(int(gid), [int(gid)], [-1.0])
            A.fillComplete()
            x_true = tpetra.Vector(A.row_map)
            x_true.randomize(seed=4)
            b = A @ x_true
            r = solvers.minres(A, b, tol=1e-10, maxiter=500)
            return r.converged, (r.x - x_true).norm2() / x_true.norm2()
        conv, err = spmd(2)(body)[0]
        assert conv and err < 1e-6


class TestTFQMR:
    def test_nonsymmetric(self):
        def body(comm):
            A, b, x_true = _problem(comm, symmetric=False, seed=3)
            r = solvers.tfqmr(A, b, tol=1e-10, maxiter=3000)
            return r.converged, (r.x - x_true).norm2() / x_true.norm2()
        conv, err = spmd(2)(body)[0]
        assert conv and err < 1e-5

    def test_preconditioned(self):
        def body(comm):
            A, b, x_true = _problem(comm, symmetric=False, seed=3)
            r = solvers.tfqmr(A, b, prec=solvers.ILU0(A), tol=1e-10,
                              maxiter=3000)
            return r.converged, (r.x - x_true).norm2() / x_true.norm2()
        conv, err = spmd(2)(body)[0]
        assert conv and err < 1e-5


class TestAztecOO:
    def test_parameter_driven(self):
        def body(comm):
            A, b, x_true = _problem(comm)
            params = ParameterList("AztecOO")
            params.set("Solver", "CG")
            params.set("Tolerance", 1e-10)
            params.set("Max Iterations", 500)
            mgr = solvers.AztecOO(A, prec=solvers.Jacobi(A), params=params)
            r = mgr.iterate(b)
            return r.converged
        assert all(spmd(2)(body))

    def test_unknown_solver_name(self):
        def body(comm):
            A, b, _x = _problem(comm, nx=4, ny=4)
            params = ParameterList().set("Solver", "WARPDRIVE")
            solvers.AztecOO(A, params=params).iterate(b)
        with pytest.raises(ValueError):
            spmd(1)(body)

    @pytest.mark.parametrize("name", ["CG", "GMRES", "BICGSTAB", "TFQMR",
                                      "MINRES"])
    def test_every_method_available(self, name):
        def body(comm):
            A, b, _x = _problem(comm, nx=8, ny=8)
            params = ParameterList().set("Solver", name) \
                .set("Tolerance", 1e-8).set("Max Iterations", 3000)
            return solvers.AztecOO(A, params=params).iterate(b).converged
        assert all(spmd(2)(body))

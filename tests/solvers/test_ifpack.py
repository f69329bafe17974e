"""Preconditioner tests: correctness and effectiveness."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from repro import galeri, mpi, solvers, tpetra
from repro.seamless import backend_c, compiler_available
from repro.seamless.jit import JitDispatcher
from repro.solvers import ifpack
from repro.solvers.ifpack import _local_diag_block
from repro.teuchos import ParameterList
from tests.conftest import spmd


def _poisson(comm, nx=14, ny=14):
    A = galeri.laplace_2d(nx, ny, comm)
    x_true = tpetra.Vector(A.row_map)
    x_true.randomize(seed=1)
    return A, A @ x_true, x_true


def _iters_with(prec_factory, nranks=2):
    def body(comm):
        A, b, _x = _poisson(comm)
        prec = prec_factory(A)
        r = solvers.cg(A, b, prec=prec, tol=1e-10, maxiter=2000)
        return r.converged, r.iterations
    return spmd(nranks)(body)[0]


class TestEffectiveness:
    def test_baseline_unpreconditioned(self):
        conv, base = _iters_with(lambda A: None)
        assert conv
        # every real preconditioner should beat or match this
        assert base > 20

    @pytest.mark.parametrize("factory,name", [
        (lambda A: solvers.SymmetricGaussSeidel(A), "sgs"),
        (lambda A: solvers.ILU0(A), "ilu0"),
        (lambda A: solvers.ILUT(A), "ilut"),
        (lambda A: solvers.AdditiveSchwarz(A, overlap=1), "ras"),
        (lambda A: solvers.Chebyshev(A, degree=3), "cheby"),
    ])
    def test_reduces_iterations(self, factory, name):
        _conv0, base = _iters_with(lambda A: None)
        conv, its = _iters_with(factory)
        assert conv, name
        assert its < base, f"{name}: {its} !< {base}"

    def test_schwarz_overlap_helps_symmetric_variant(self):
        _c0, none_overlap = _iters_with(
            lambda A: solvers.AdditiveSchwarz(A, overlap=0, variant="as"))
        _c1, with_overlap = _iters_with(
            lambda A: solvers.AdditiveSchwarz(A, overlap=2, variant="as"))
        assert with_overlap <= none_overlap

    def test_ras_is_for_nonsymmetric_solvers(self):
        """RAS works fine under GMRES (its natural pairing)."""
        def body(comm):
            A, b, _x = _poisson(comm)
            prec = solvers.AdditiveSchwarz(A, overlap=1, variant="ras")
            r = solvers.gmres(A, b, prec=prec, tol=1e-10, maxiter=500)
            return r.converged, r.iterations
        conv, its = spmd(2)(body)[0]
        assert conv and its < 60

    def test_bad_variant(self):
        def body(comm):
            A, _b, _x = _poisson(comm, nx=4, ny=4)
            solvers.AdditiveSchwarz(A, variant="multiplicative")
        with pytest.raises(ValueError):
            spmd(1)(body)


class TestApplication:
    def test_jacobi_is_diagonal_scaling(self):
        def body(comm):
            A, _b, _x = _poisson(comm, nx=6, ny=6)
            prec = solvers.Jacobi(A)
            r = tpetra.Vector(A.row_map).putScalar(4.0)
            z = tpetra.Vector(A.row_map)
            prec.apply(r, z)
            return np.asarray(z)
        got = spmd(2)(body)[0]
        assert np.allclose(got, 1.0)  # diag of laplace_2d is 4

    def test_jacobi_multiple_sweeps_converge_toward_solve(self):
        def body(comm):
            A, b, x_true = _poisson(comm, nx=5, ny=5)
            one = solvers.Jacobi(A, sweeps=1, damping=0.8)
            many = solvers.Jacobi(A, sweeps=40, damping=0.8)
            z1 = tpetra.Vector(A.row_map)
            zm = tpetra.Vector(A.row_map)
            one.apply(b, z1)
            many.apply(b, zm)
            e1 = (z1 - x_true).norm2()
            em = (zm - x_true).norm2()
            return em < e1
        assert all(spmd(2)(body))

    def test_gauss_seidel_forward_vs_backward(self):
        def body(comm):
            A, b, _x = _poisson(comm, nx=6, ny=6)
            fwd = solvers.GaussSeidel(A)
            bwd = solvers.GaussSeidel(A, backward=True)
            zf = tpetra.Vector(A.row_map)
            zb = tpetra.Vector(A.row_map)
            fwd.apply(b, zf)
            bwd.apply(b, zb)
            # different sweep directions give different (finite) results
            return np.isfinite(zf.local).all(), \
                not np.allclose(zf.local, zb.local)
        finite, different = spmd(1)(body)[0]
        assert finite and different

    def test_sor_omega_validation(self):
        def body(comm):
            A, _b, _x = _poisson(comm, nx=4, ny=4)
            solvers.SOR(A, omega=2.5)
        with pytest.raises(ValueError):
            spmd(1)(body)

    def test_zero_diagonal_rejected(self):
        def body(comm):
            m = tpetra.Map.create_contiguous(4, comm)
            A = tpetra.CrsMatrix(m)
            for gid in m.my_gids:
                A.insert_global_values(gid, [(int(gid) + 1) % 4], [1.0])
            A.fillComplete()
            solvers.Jacobi(A)
        with pytest.raises(ZeroDivisionError):
            spmd(1)(body)

    @pytest.mark.parametrize("cls", [solvers.GaussSeidel,
                                     solvers.SymmetricGaussSeidel])
    def test_gauss_seidel_zero_diagonal_rejected(self, cls):
        """Refused at construction, like Jacobi/SOR, not on first apply."""
        def body(comm):
            m = tpetra.Map.create_contiguous(4, comm)
            A = tpetra.CrsMatrix(m)
            for gid in m.my_gids:
                A.insert_global_values(gid, [(int(gid) + 1) % 4], [1.0])
            A.fillComplete()
            cls(A)
        with pytest.raises(ZeroDivisionError, match="zero diagonal"):
            spmd(1)(body)

    def test_unfilled_matrix_rejected(self):
        def body(comm):
            m = tpetra.Map.create_contiguous(4, comm)
            solvers.Jacobi(tpetra.CrsMatrix(m))
        with pytest.raises(ValueError):
            spmd(1)(body)

    def test_ilu0_exact_on_triangular(self):
        """ILU(0) of a lower-triangular matrix is exact."""
        def body(comm):
            m = tpetra.Map.create_contiguous(8, comm)
            A = tpetra.CrsMatrix(m)
            for gid in m.my_gids:
                A.insert_global_values(gid, [gid], [2.0])
                if gid > 0:
                    A.insert_global_values(gid, [gid - 1], [1.0])
            A.fillComplete()
            x_true = tpetra.Vector(m)
            x_true.randomize(seed=2)
            b = A @ x_true
            # serial only: the factorization is processor-local
            prec = solvers.ILU0(A)
            z = tpetra.Vector(m)
            prec.apply(b, z)
            return (z - x_true).norm2()
        assert spmd(1)(body)[0] < 1e-12


def _from_dense(comm, dense):
    n = dense.shape[0]
    m = tpetra.Map.create_contiguous(n, comm)
    A = tpetra.CrsMatrix(m, dtype=dense.dtype)
    for gid in m.my_gids:
        cols = np.flatnonzero(dense[gid])
        A.insert_global_values(int(gid), cols, dense[gid, cols])
    A.fillComplete()
    return A


def _random_nonsymmetric(n=60, seed=3, dtype=float):
    """Sparse, nonsymmetric, diagonally dominant: ILU(0) is well defined."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, n)).astype(dtype)
    if np.dtype(dtype).kind == "c":
        values += 1j * rng.standard_normal((n, n))
    dense = np.where(rng.random((n, n)) < 0.15, values, 0.0)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    return dense


def _dense_ilu0(block):
    """ILU(0) oracle: IKJ elimination on the dense block that updates
    only the entries of its sparsity pattern; returns (unit L, U)."""
    lu = block.copy()
    pattern = block != 0
    n = len(lu)
    for i in range(n):
        for k in np.flatnonzero(pattern[i, :i]):
            lu[i, k] /= lu[k, k]
            cols = k + 1 + np.flatnonzero(pattern[i, k + 1:])
            lu[i, cols] -= lu[i, k] * lu[k, cols]
    return np.tril(lu, -1) + np.eye(n), np.triu(lu)


def _factor_dense(prec):
    """The unit L and the U an ILU0 holds, as dense arrays."""
    indptr, indices, _diag, lu = prec._csr
    n = len(indptr) - 1
    csr = sp.csr_matrix((lu, indices, indptr), shape=(n, n)).toarray()
    return np.tril(csr, -1) + np.eye(n), np.triu(csr)


class TestAnalysedTriangles:
    """ILU(0), Gauss-Seidel and SOR run Seamless kernels over the local
    block's CSR arrays."""

    def test_ilu0_matches_dense_triangular_solves(self):
        dense = _random_nonsymmetric()

        def body(comm):
            A = _from_dense(comm, dense)
            lower, upper = _dense_ilu0(_local_diag_block(A).toarray())
            x = tpetra.Vector(A.row_map)
            x.randomize(seed=4)
            y = tpetra.Vector(A.row_map)
            solvers.ILU0(A).apply(x, y)
            ref = sla.solve_triangular(
                upper, sla.solve_triangular(lower, x.local_view, lower=True,
                                            unit_diagonal=True))
            return np.abs(y.local_view - ref).max() / np.abs(ref).max()
        assert max(spmd(2)(body)) < 1e-12

    def test_ilu0_factor_is_the_dense_ikj(self):
        """The CSR factor is the dense oracle's, bit for bit."""
        def body(comm):
            A = galeri.convection_diffusion_2d(12, 12, comm, conv_x=20.0,
                                               conv_y=10.0)
            want = _dense_ilu0(_local_diag_block(A).toarray())
            got = _factor_dense(solvers.ILU0(A))
            return all(np.array_equal(g, w) for g, w in zip(got, want))
        assert all(spmd(2)(body))

    def test_ilu0_handles_add_no_fill(self):
        """L's strict lower and U's entries are exactly the block's."""
        def body(comm):
            A = galeri.convection_diffusion_2d(16, 16, comm)
            pattern = _local_diag_block(A).toarray() != 0
            lower, upper = _factor_dense(solvers.ILU0(A))
            return (np.array_equal(np.tril(lower, -1) != 0,
                                   np.tril(pattern, -1)),
                    np.array_equal(upper != 0, np.triu(pattern)))
        for same in spmd(2)(body):
            assert same == (True, True)

    def test_rank_with_zero_rows_is_a_noop(self):
        def body(comm):
            m = tpetra.Map.create_from_local_counts(
                8 if comm.rank == 0 else 0, comm)
            A = galeri.tridiag(8, comm, map_=m)
            x = tpetra.Vector(m).putScalar(1.0)
            out = []
            for prec in (solvers.ILU0(A), solvers.GaussSeidel(A),
                         solvers.SymmetricGaussSeidel(A), solvers.SOR(A)):
                y = tpetra.Vector(m)
                prec.apply(x, y)
                out.append(y.local_view.copy())
            r = solvers.gmres(A, x, prec=solvers.ILU0(A), tol=1e-12)
            return A.num_my_rows, out, r.converged
        (n0, out0, conv0), (n1, out1, conv1) = spmd(2)(body)
        assert (n0, n1) == (8, 0) and conv0 and conv1
        assert all(np.isfinite(y).all() and y.size == 8 for y in out0)
        assert all(y.size == 0 for y in out1)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_ilu0_zero_pivot_refused(self, backend):
        dense = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 2.0]])

        def body(comm):
            solvers.ILU0(_from_dense(comm, dense))
        with pytest.raises(ZeroDivisionError,
                           match="zero pivot in local row 1"):
            mpi.run_spmd(body, 1, backend=backend, timeout=60)

    @pytest.mark.parametrize("factory", [solvers.ILU0, solvers.ILUT])
    def test_transpose_is_the_adjoint(self, factory):
        """<M^-1 x, y> = <x, M^-T y>: a transposed composite gets M^-T."""
        def body(comm):
            A = galeri.convection_diffusion_2d(12, 12, comm, conv_x=20.0,
                                               conv_y=10.0)
            prec = factory(A)
            x, y = tpetra.Vector(A.row_map), tpetra.Vector(A.row_map)
            x.randomize(seed=5)
            y.randomize(seed=6)
            mx, mty = tpetra.Vector(A.row_map), tpetra.Vector(A.row_map)
            prec.apply(x, mx)
            prec.apply(y, mty, trans=True)
            lhs, rhs = mx.dot(y), x.dot(mty)
            forward = mty.copy()
            prec.apply(y, forward)
            return abs(lhs - rhs) / abs(lhs), (forward - mty).norm2()
        for err, gap in spmd(2)(body):
            assert err < 1e-12
            assert gap > 1e-6   # nonsymmetric A: M^-T really differs

    @pytest.mark.parametrize("factory", [
        solvers.ILU0, solvers.GaussSeidel, solvers.SymmetricGaussSeidel,
        lambda A: solvers.GaussSeidel(A, sweeps=2, damping=0.7,
                                      backward=True),
        lambda A: solvers.SOR(A, omega=1.3, sweeps=2)],
        ids=["ILU0", "GS", "SGS", "GS-backward", "SOR"])
    def test_python_source_matches_compiled(self, factory, monkeypatch):
        """Without a compiler the kernels run as the Python they are."""
        def body(comm):
            A = galeri.convection_diffusion_2d(10, 10, comm, conv_x=20.0)
            prec = factory(A)
            x = tpetra.Vector(A.row_map)
            x.randomize(seed=7)
            out = []
            for trans in (False, True) if factory is solvers.ILU0 else \
                    (False,):
                y = tpetra.Vector(A.row_map)
                prec.apply(x, y, trans=trans)
                out.append(y.local_view.copy())
            return out, ifpack._substitute.last_fallback_reason
        compiled = spmd(2)(body)
        monkeypatch.setattr(backend_c, "_cc_checked", True)
        monkeypatch.setattr(backend_c, "_cc_path", None)
        kernels = [k for k in vars(ifpack).values()
                   if isinstance(k, JitDispatcher)]
        for kernel in kernels:
            monkeypatch.setattr(kernel, "_last", None)
        assert not compiler_available() and len(kernels) == 3
        for (want, _r), (got, reason) in zip(compiled, spmd(2)(body)):
            assert reason == "no C compiler available"
            for w, g in zip(want, got):
                assert np.abs(g - w).max() <= 1e-14 * np.abs(w).max()

    def test_complex_block_factors_and_applies(self):
        dense = _random_nonsymmetric(n=40, seed=8, dtype=complex)
        lower, upper = _dense_ilu0(dense)
        rng = np.random.default_rng(9)
        x = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        want = {False: sla.solve_triangular(
                    upper, sla.solve_triangular(lower, x, lower=True,
                                                unit_diagonal=True)),
                True: sla.solve_triangular(
                    lower.T, sla.solve_triangular(upper.T, x, lower=True),
                    unit_diagonal=True)}

        def body(comm):
            A = _from_dense(comm, dense)
            prec = solvers.ILU0(A)
            xv = tpetra.Vector(A.row_map, dtype=complex)
            xv.local_view[...] = x
            errs = []
            for trans, ref in want.items():
                y = tpetra.Vector(A.row_map, dtype=complex)
                prec.apply(xv, y, trans=trans)
                errs.append(np.abs(y.local_view - ref).max()
                            / np.abs(ref).max())
            return max(errs)
        assert spmd(1)(body)[0] < 1e-12

    @pytest.mark.parametrize("factory", [
        solvers.GaussSeidel, solvers.SymmetricGaussSeidel, solvers.SOR])
    def test_sweeps_refuse_transpose(self, factory):
        def body(comm):
            A, b, _x = _poisson(comm, nx=4, ny=4)
            factory(A).apply(b, tpetra.Vector(A.row_map), trans=True)
        with pytest.raises(NotImplementedError):
            spmd(1)(body)


class TestFactory:
    @pytest.mark.parametrize("name", ["Jacobi", "Gauss-Seidel", "SGS",
                                      "SOR", "Chebyshev", "ILU", "ILUT",
                                      "Schwarz"])
    def test_create_by_name(self, name):
        def body(comm):
            A, b, _x = _poisson(comm, nx=8, ny=8)
            prec = solvers.create_preconditioner(name, A)
            r = solvers.gmres(A, b, prec=prec, tol=1e-8, maxiter=2000)
            return r.converged
        assert all(spmd(2)(body))

    def test_params_passed_through(self):
        def body(comm):
            A, _b, _x = _poisson(comm, nx=6, ny=6)
            params = ParameterList().set("Sweeps", 3).set("Damping", 0.6)
            return [(prec.sweeps, prec.damping) for prec in
                    (solvers.create_preconditioner(name, A, params)
                     for name in ("Jacobi", "Gauss-Seidel", "SGS"))]
        assert spmd(1)(body)[0] == [(3, 0.6)] * 3

    def test_unknown_name(self):
        def body(comm):
            A, _b, _x = _poisson(comm, nx=4, ny=4)
            solvers.create_preconditioner("Quantum", A)
        with pytest.raises(ValueError):
            spmd(1)(body)


def _reference_sweeps(prec, x):
    """The sweep formula written out: r = x - A y before every pass."""
    y = np.zeros_like(x)
    dy = np.empty_like(y)
    for _ in range(prec.sweeps):
        for lower, upper in prec._passes:
            r = x - prec._block @ y
            ifpack._substitute(*prec._csr, lower, upper, r, dy)
            y += prec.damping * dy
    return y


class TestSweepShortcuts:
    """The first pass skips the residual (y = 0) and later passes reuse
    one residual and one update buffer: results stay bit-identical."""

    @pytest.mark.parametrize("sweeps", [1, 2])
    @pytest.mark.parametrize("factory", [
        lambda A, s: solvers.GaussSeidel(A, sweeps=s),
        lambda A, s: solvers.GaussSeidel(A, sweeps=s, damping=0.7),
        lambda A, s: solvers.GaussSeidel(A, sweeps=s, damping=0.7,
                                         backward=True),
        lambda A, s: solvers.SymmetricGaussSeidel(A, sweeps=s),
        lambda A, s: solvers.SymmetricGaussSeidel(A, sweeps=s,
                                                  damping=0.6),
        lambda A, s: solvers.SOR(A, omega=1.3, sweeps=s)],
        ids=["GS", "GS-damped", "GS-backward-damped", "SGS", "SGS-damped",
             "SOR"])
    def test_bit_identical_to_the_formula(self, factory, sweeps):
        def body(comm):
            A = galeri.convection_diffusion_2d(12, 12, comm, conv_x=20.0)
            prec = factory(A, sweeps)
            x, y = tpetra.Vector(A.row_map), tpetra.Vector(A.row_map)
            x.randomize(seed=11)
            y.randomize(seed=12)  # apply must ignore y's old contents
            prec.apply(x, y)
            want = _reference_sweeps(prec, x.local_view.copy())
            return y.local_view.tobytes() == want.tobytes()
        assert all(spmd(2)(body))

"""Krylov-space iterative linear solvers (AztecOO / Belos equivalent).

All solvers operate on the abstract :class:`~repro.tpetra.operator.Operator`
protocol and distributed :class:`~repro.tpetra.multivector.Vector`, so the
only communication they perform is what the operator's SpMV and the global
dot products require -- exactly the structure of their Trilinos
counterparts.

Provided methods: CG, GMRES(m) with optional flexible variant, BiCGStab,
MINRES and TFQMR, each with optional preconditioning and a recorded
convergence history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..mpi import SUM
from ..teuchos import ParameterList
from ..tpetra import Operator, Vector
from ..trace import TRACER as _TR

__all__ = ["SolverResult", "cg", "gmres", "bicgstab", "minres", "tfqmr",
           "block_cg", "BlockSolverResult", "AztecOO"]


def _iter_done(name: str, t0: float, k: int, rel: float) -> None:
    """Record one solver iteration: a span carrying its residual norm."""
    _TR.complete("solver.krylov", name, t0, method=name.split(".", 1)[0],
                 k=int(k), resid=float(rel))


@dataclass
class SolverResult:
    """Outcome of an iterative solve."""

    x: Vector
    converged: bool
    iterations: int
    residual_norm: float
    history: List[float] = field(default_factory=list)
    message: str = ""

    def __repr__(self):
        state = "converged" if self.converged else "NOT converged"
        return (f"SolverResult({state} in {self.iterations} its, "
                f"||r||={self.residual_norm:.3e})")


def _apply_prec(prec: Optional[Operator], r: Vector) -> Vector:
    if prec is None:
        return r.copy()
    z = Vector(r.map, dtype=r.dtype)
    prec.apply(r, z)
    return z


def _residual(op: Operator, x: Vector, b: Vector) -> Vector:
    r = Vector(b.map, dtype=b.dtype)
    op.apply(x, r)
    r.update(1.0, b, -1.0)  # r = b - Ax
    return r


def _verified(op: Operator, x: Vector, b: Vector, bnorm: float, k: int,
              history: List[float], tol: float) -> SolverResult:
    """Trust-but-verify: recompute the true residual before declaring
    convergence.  The recursive residual the iteration monitors can part
    ways with reality -- through rounding drift, or through corrupted
    reduction payloads -- and a solver must report non-convergence rather
    than certify a wrong answer."""
    rel_true = _residual(op, x, b).norm2() / bnorm
    history[-1] = rel_true
    if rel_true <= 10 * tol:
        return SolverResult(x, True, k, rel_true, history)
    return SolverResult(x, False, k, rel_true, history,
                        f"recurrence converged but true residual is "
                        f"{rel_true:.3e}: possible data corruption")


def cg(op: Operator, b: Vector, x: Optional[Vector] = None,
       prec: Optional[Operator] = None, tol: float = 1e-8,
       maxiter: int = 1000) -> SolverResult:
    """Preconditioned conjugate gradients for SPD operators."""
    x = Vector(op.domain_map(), dtype=b.dtype) if x is None else x
    r = _residual(op, x, b)
    z = _apply_prec(prec, r)
    p = z.copy()
    rz = r.dot(z)
    bnorm = b.norm2() or 1.0
    history = [r.norm2() / bnorm]
    if history[-1] <= tol:
        return SolverResult(x, True, 0, history[-1], history)
    ap = Vector(op.range_map(), dtype=b.dtype)
    for k in range(1, maxiter + 1):
        t0 = _TR.now() if _TR.enabled else 0.0
        op.apply(p, ap)
        pap = p.dot(ap)
        if pap == 0:
            return SolverResult(x, False, k, history[-1], history,
                                "breakdown: p'Ap = 0")
        alpha = rz / pap
        x.update(alpha, p, 1.0)
        r.update(-alpha, ap, 1.0)
        rel = r.norm2() / bnorm
        history.append(rel)
        if _TR.enabled:
            _iter_done("cg.iter", t0, k, rel)
        if rel <= tol:
            return _verified(op, x, b, bnorm, k, history, tol)
        z = _apply_prec(prec, r)
        rz_new = r.dot(z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    return SolverResult(x, False, maxiter, history[-1], history,
                        "maximum iterations reached")


def gmres(op: Operator, b: Vector, x: Optional[Vector] = None,
          prec: Optional[Operator] = None, tol: float = 1e-8,
          maxiter: int = 1000, restart: int = 30,
          flexible: bool = False) -> SolverResult:
    """Restarted GMRES(m) with right preconditioning.

    Right preconditioning keeps the monitored residual equal to the true
    residual.  With ``flexible=True`` the preconditioner may change between
    iterations (FGMRES), as required when the preconditioner is itself an
    iterative method.

    Orthogonalization is iterated classical Gram-Schmidt (Belos' ICGS):
    each Arnoldi step projects against the whole basis with ONE batched
    length-(j+1) Allreduce and reorthogonalizes once, instead of modified
    Gram-Schmidt's j+1 scalar Allreduces.  "Twice is enough" keeps the
    basis orthogonal to working precision while the collective count per
    step drops from O(j) to 3.
    """
    x = Vector(op.domain_map(), dtype=b.dtype) if x is None else x
    bnorm = b.norm2() or 1.0
    history: List[float] = []
    total_iters = 0
    while True:
        r = _residual(op, x, b)
        beta = r.norm2()
        rel = beta / bnorm
        if not history:
            history.append(rel)
        if rel <= tol:
            return SolverResult(x, True, total_iters, rel, history)
        if total_iters >= maxiter:
            return SolverResult(x, False, total_iters, rel, history,
                                "maximum iterations reached")
        m = min(restart, maxiter - total_iters)
        # Arnoldi with iterated classical Gram-Schmidt (batched dots)
        V: List[Vector] = [r * (1.0 / beta)]
        Z: List[Vector] = []      # preconditioned directions (flexible)
        comm = b.comm
        # column-major local basis: Vloc[:, i] mirrors V[i]'s local block,
        # so all j+1 projection dots collapse into one GEMV + Allreduce
        Vloc = np.zeros((b.local_length, m + 1), dtype=b.local.dtype)
        Vloc[:, 0] = V[0].local_view
        H = np.zeros((m + 1, m))
        g = np.zeros(m + 1)
        g[0] = beta
        cs = np.zeros(m)
        sn = np.zeros(m)
        k_done = 0
        for j in range(m):
            t0 = _TR.now() if _TR.enabled else 0.0
            z = _apply_prec(prec, V[j])
            if flexible:
                Z.append(z.copy())
            w = Vector(op.range_map(), dtype=b.dtype)
            op.apply(z, w)
            basis = Vloc[:, :j + 1]
            wloc = w.local_view
            hj = np.zeros(j + 1)
            for _pass in range(2):   # CGS2: "twice is enough"
                local = basis.T @ wloc
                corr = np.zeros_like(local)
                comm.Allreduce(local, corr, op=SUM)
                wloc = wloc - basis @ corr
                hj += corr
            H[:j + 1, j] = hj
            w.local_view = wloc
            H[j + 1, j] = w.norm2()
            breakdown = not H[j + 1, j] > 1e-14 * beta
            if not breakdown:
                V.append(w * (1.0 / H[j + 1, j]))
                Vloc[:, j + 1] = V[j + 1].local_view
            # Givens rotations to maintain the QR of H
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            denom = np.hypot(H[j, j], H[j + 1, j])
            if denom == 0:
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j], sn[j] = H[j, j] / denom, H[j + 1, j] / denom
            H[j, j] = denom
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            total_iters += 1
            k_done = j + 1
            rel = abs(g[j + 1]) / bnorm
            history.append(rel)
            if _TR.enabled:
                _iter_done("gmres.iter", t0, total_iters, rel)
            if rel <= tol or breakdown or H[j, j] == 0:
                break
        # solve the small triangular system and update x
        y = np.zeros(k_done)
        for i in range(k_done - 1, -1, -1):
            if H[i, i] == 0:
                y[i] = 0.0  # breakdown column contributes nothing
                continue
            y[i] = (g[i] - H[i, i + 1:k_done] @ y[i + 1:k_done]) / H[i, i]
        if flexible:
            for i in range(k_done):
                x.update(y[i], Z[i], 1.0)
        else:
            # x += M^-1 (V_k y)
            vy = Vector(b.map, dtype=b.dtype)
            for i in range(k_done):
                vy.update(y[i], V[i], 1.0)
            x.update(1.0, _apply_prec(prec, vy), 1.0)
        if rel <= tol:
            r = _residual(op, x, b)
            rel_true = r.norm2() / bnorm
            history[-1] = rel_true
            if rel_true <= 10 * tol:
                return SolverResult(x, True, total_iters, rel_true, history)


def bicgstab(op: Operator, b: Vector, x: Optional[Vector] = None,
             prec: Optional[Operator] = None, tol: float = 1e-8,
             maxiter: int = 1000) -> SolverResult:
    """BiCGStab with right preconditioning (nonsymmetric systems)."""
    x = Vector(op.domain_map(), dtype=b.dtype) if x is None else x
    r = _residual(op, x, b)
    r0 = r.copy()
    rho = alpha = omega = 1.0
    v = Vector(b.map, dtype=b.dtype)
    p = Vector(b.map, dtype=b.dtype)
    bnorm = b.norm2() or 1.0
    history = [r.norm2() / bnorm]
    if history[-1] <= tol:
        return SolverResult(x, True, 0, history[-1], history)
    for k in range(1, maxiter + 1):
        t0 = _TR.now() if _TR.enabled else 0.0
        rho_new = r0.dot(r)
        if rho_new == 0:
            return SolverResult(x, False, k, history[-1], history,
                                "breakdown: rho = 0")
        beta = (rho_new / rho) * (alpha / omega) if k > 1 else 0.0
        rho = rho_new
        if k == 1:
            p = r.copy()
        else:
            p.update(-omega, v, 1.0)
            p.scale(beta)
            p.update(1.0, r, 1.0)
        phat = _apply_prec(prec, p)
        op.apply(phat, v)
        alpha = rho / r0.dot(v)
        s = r.copy()
        s.update(-alpha, v, 1.0)
        if s.norm2() / bnorm <= tol:
            x.update(alpha, phat, 1.0)
            history.append(s.norm2() / bnorm)
            if _TR.enabled:
                _iter_done("bicgstab.iter", t0, k, history[-1])
            return _verified(op, x, b, bnorm, k, history, tol)
        shat = _apply_prec(prec, s)
        t = Vector(b.map, dtype=b.dtype)
        op.apply(shat, t)
        tt = t.dot(t)
        omega = t.dot(s) / tt if tt != 0 else 0.0
        x.update(alpha, phat, 1.0)
        x.update(omega, shat, 1.0)
        r = s.copy()
        r.update(-omega, t, 1.0)
        rel = r.norm2() / bnorm
        history.append(rel)
        if _TR.enabled:
            _iter_done("bicgstab.iter", t0, k, rel)
        if rel <= tol:
            return _verified(op, x, b, bnorm, k, history, tol)
        if omega == 0:
            return SolverResult(x, False, k, rel, history,
                                "breakdown: omega = 0")
    return SolverResult(x, False, maxiter, history[-1], history,
                        "maximum iterations reached")


def minres(op: Operator, b: Vector, x: Optional[Vector] = None,
           tol: float = 1e-8, maxiter: int = 1000) -> SolverResult:
    """MINRES for symmetric (possibly indefinite) operators, unpreconditioned."""
    x = Vector(op.domain_map(), dtype=b.dtype) if x is None else x
    r = _residual(op, x, b)
    bnorm = b.norm2() or 1.0
    beta = r.norm2()
    history = [beta / bnorm]
    if history[-1] <= tol:
        return SolverResult(x, True, 0, history[-1], history)
    v_prev = Vector(b.map, dtype=b.dtype)
    v = r * (1.0 / beta)
    d_prev = Vector(b.map, dtype=b.dtype)
    d_prev2 = Vector(b.map, dtype=b.dtype)
    eta = beta
    gamma, gamma_prev = 1.0, 1.0
    sigma, sigma_prev = 0.0, 0.0
    beta_prev = 0.0
    for k in range(1, maxiter + 1):
        t0 = _TR.now() if _TR.enabled else 0.0
        av = Vector(b.map, dtype=b.dtype)
        op.apply(v, av)
        alpha = v.dot(av)
        av.update(-alpha, v, 1.0)
        av.update(-beta, v_prev, 1.0)
        beta_new = av.norm2()
        # previous rotations
        delta = gamma * alpha - gamma_prev * sigma * beta
        rho1 = np.hypot(delta, beta_new)
        rho2 = sigma * alpha + gamma_prev * gamma * beta
        rho3 = sigma_prev * beta
        gamma_prev, gamma = gamma, delta / rho1 if rho1 else 1.0
        sigma_prev, sigma = sigma, beta_new / rho1 if rho1 else 0.0
        d = v.copy()
        d.update(-rho2, d_prev, 1.0)
        d.update(-rho3, d_prev2, 1.0)
        d.scale(1.0 / rho1)
        x.update(gamma * eta, d, 1.0)
        eta = -sigma * eta
        d_prev2, d_prev = d_prev, d
        v_prev = v
        if beta_new <= 1e-300:
            history.append(abs(eta) / bnorm)
            if _TR.enabled:
                _iter_done("minres.iter", t0, k, history[-1])
            return SolverResult(x, True, k, history[-1], history)
        v = av * (1.0 / beta_new)
        beta_prev, beta = beta, beta_new
        rel = abs(eta) / bnorm
        history.append(rel)
        if _TR.enabled:
            _iter_done("minres.iter", t0, k, rel)
        if rel <= tol:
            return SolverResult(x, True, k, rel, history)
    return SolverResult(x, False, maxiter, history[-1], history,
                        "maximum iterations reached")


def tfqmr(op: Operator, b: Vector, x: Optional[Vector] = None,
          prec: Optional[Operator] = None, tol: float = 1e-8,
          maxiter: int = 1000) -> SolverResult:
    """Transpose-free QMR (Freund '93; Saad Alg. 7.7).

    Right preconditioning is handled by composition: we iterate on
    ``A M^-1`` (whose residual equals the true residual) and map the
    iterate back through the preconditioner at the end.
    """
    if prec is not None:
        from ..tpetra import ComposedOperator
        composed = ComposedOperator(op, prec)
        inner = tfqmr(composed, b, x=None, prec=None, tol=tol,
                      maxiter=maxiter)
        xprec = _apply_prec(prec, inner.x)
        if x is not None:
            x.local[...] = xprec.local
            xprec = x
        return SolverResult(xprec, inner.converged, inner.iterations,
                            inner.residual_norm, inner.history,
                            inner.message)
    x = Vector(op.domain_map(), dtype=b.dtype) if x is None else x
    r = _residual(op, x, b)
    bnorm = b.norm2() or 1.0
    history = [r.norm2() / bnorm]
    if history[-1] <= tol:
        return SolverResult(x, True, 0, history[-1], history)
    r0 = r.copy()
    w = r.copy()
    u = r.copy()
    v = Vector(b.map, dtype=b.dtype)
    op.apply(u, v)
    au = v.copy()
    d = Vector(b.map, dtype=b.dtype)
    tau = r.norm2()
    theta, eta = 0.0, 0.0
    rho = r0.dot(r)
    alpha = 0.0
    for m in range(2 * maxiter):
        t0 = _TR.now() if _TR.enabled else 0.0
        even = (m % 2 == 0)
        if even:
            sigma = r0.dot(v)
            if sigma == 0:
                return SolverResult(x, False, (m + 1) // 2, history[-1],
                                    history, "breakdown: sigma = 0")
            alpha = rho / sigma
            u_next = u.copy()
            u_next.update(-alpha, v, 1.0)
        w.update(-alpha, au, 1.0)
        if alpha == 0:
            return SolverResult(x, False, (m + 1) // 2, history[-1],
                                history, "breakdown: alpha = 0")
        d.scale(theta ** 2 * eta / alpha)
        d.update(1.0, u, 1.0)
        theta = w.norm2() / tau
        c = 1.0 / np.sqrt(1.0 + theta ** 2)
        tau = tau * theta * c
        eta = c ** 2 * alpha
        x.update(eta, d, 1.0)
        rel = tau * np.sqrt(m + 2.0) / bnorm
        history.append(rel)
        if _TR.enabled:
            _iter_done("tfqmr.iter", t0, (m + 2) // 2, rel)
        if rel <= tol:
            rtrue = _residual(op, x, b).norm2() / bnorm
            history[-1] = rtrue
            if rtrue <= 10 * tol:
                return SolverResult(x, True, (m + 2) // 2, rtrue, history)
        if even:
            u = u_next
            op.apply(u, au)
        else:
            rho_new = r0.dot(w)
            if rho == 0:
                return SolverResult(x, False, (m + 1) // 2, history[-1],
                                    history, "breakdown: rho = 0")
            beta = rho_new / rho
            rho = rho_new
            u = w + beta * u
            au_new = Vector(b.map, dtype=b.dtype)
            op.apply(u, au_new)
            # v = A u_new + beta (A u_old + beta v_old)
            v.scale(beta ** 2)
            v.update(beta, au, 1.0)
            v.update(1.0, au_new, 1.0)
            au = au_new
    return SolverResult(x, False, maxiter, history[-1], history,
                        "maximum iterations reached")


@dataclass
class BlockSolverResult:
    """Outcome of a multi-RHS solve (Belos pseudo-block style)."""

    x: "MultiVector"
    converged: np.ndarray          # per-column flags
    iterations: int                # outer iterations run
    residual_norms: np.ndarray     # per-column final relative residuals

    def __repr__(self):
        return (f"BlockSolverResult({int(self.converged.sum())}/"
                f"{len(self.converged)} converged in {self.iterations} "
                f"its)")


def block_cg(op: Operator, B: "MultiVector", X: Optional["MultiVector"] = None,
             prec: Optional[Operator] = None, tol: float = 1e-8,
             maxiter: int = 1000) -> BlockSolverResult:
    """Pseudo-block CG: all right-hand sides iterated together.

    The Belos trick: each column runs its own CG recurrence, but the
    operator and preconditioner apply to the whole block at once, so the
    expensive distributed kernels amortize across systems and every global
    reduction carries ``numvectors`` scalars instead of one.  Columns that
    converge are frozen (their step size is zeroed) while the rest keep
    iterating.
    """
    from ..tpetra import MultiVector

    nvec = B.num_vectors
    X = MultiVector(op.domain_map(), nvec, dtype=B.dtype) if X is None \
        else X

    def apply_block(target_op, src: "MultiVector") -> "MultiVector":
        out = MultiVector(src.map, nvec, dtype=src.dtype)
        for j in range(nvec):
            target_op.apply(src.vector(j), out.vector(j))
        return out

    R = MultiVector(B.map, nvec, dtype=B.dtype)
    AX = apply_block(op, X)
    R.local[...] = B.local - AX.local
    Z = apply_block(prec, R) if prec is not None else R.copy()
    P = Z.copy()
    rz = R.dot(Z).real
    bnorm = B.norm2()
    bnorm = np.where(bnorm == 0, 1.0, bnorm)
    resid = R.norm2() / bnorm
    active = resid > tol
    history_its = 0
    for k in range(1, maxiter + 1):
        if not active.any():
            break
        t0 = _TR.now() if _TR.enabled else 0.0
        AP = apply_block(op, P)
        pap = np.einsum("ij,ij->j", np.conj(P.local), AP.local).real
        out = np.zeros_like(pap)
        B.comm.Allreduce(pap, out)
        pap = out
        safe_pap = np.where(pap == 0, 1.0, pap)
        alpha = np.where(active & (pap != 0), rz / safe_pap, 0.0)
        X.local += alpha * P.local
        R.local -= alpha * AP.local
        resid = R.norm2() / bnorm
        newly_done = active & (resid <= tol)
        active = active & ~newly_done
        history_its = k
        if _TR.enabled:
            _iter_done("block_cg.iter", t0, k, float(resid.max()))
        if not active.any():
            break
        Z = apply_block(prec, R) if prec is not None else R.copy()
        rz_new = R.dot(Z).real
        safe_rz = np.where(rz == 0, 1.0, rz)
        beta = np.where(active, rz_new / safe_rz, 0.0)
        rz = rz_new
        P.local[...] = Z.local + beta * P.local
    return BlockSolverResult(X, resid <= tol, history_its, resid)


class AztecOO:
    """Trilinos-style solver manager driven by a ParameterList.

    ::

        solver = AztecOO(A, params=ParameterList(
            "AztecOO").set("Solver", "GMRES").set("Tolerance", 1e-10))
        result = solver.iterate(b)
    """

    _METHODS = {"CG": cg, "GMRES": gmres, "BICGSTAB": bicgstab,
                "MINRES": minres, "TFQMR": tfqmr}

    def __init__(self, op: Operator, prec: Optional[Operator] = None,
                 params: Optional[ParameterList] = None):
        self.op = op
        self.prec = prec
        self.params = params if params is not None else \
            ParameterList("AztecOO")

    def iterate(self, b: Vector, x: Optional[Vector] = None) -> SolverResult:
        name = str(self.params.get("Solver", "GMRES")).upper()
        tol = float(self.params.get("Tolerance", 1e-8))
        maxiter = int(self.params.get("Max Iterations", 1000))
        try:
            method = self._METHODS[name]
        except KeyError:
            raise ValueError(f"unknown solver {name!r}; choose from "
                             f"{sorted(self._METHODS)}") from None
        kwargs = {}
        if name == "GMRES":
            kwargs["restart"] = int(self.params.get("Restart", 30))
            kwargs["flexible"] = bool(self.params.get("Flexible", False))
        if name != "MINRES":
            kwargs["prec"] = self.prec
        if _TR.enabled:
            with _TR.span("solver.krylov", "aztecoo.iterate",
                          method=name, tol=tol):
                return method(self.op, b, x=x, tol=tol, maxiter=maxiter,
                              **kwargs)
        return method(self.op, b, x=x, tol=tol, maxiter=maxiter, **kwargs)

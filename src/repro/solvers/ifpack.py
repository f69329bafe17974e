"""Algebraic preconditioners (the Ifpack package equivalent).

Like Ifpack, all preconditioners here are *processor-local* algorithms
applied to each rank's diagonal block (plus optional overlap for Additive
Schwarz): Jacobi, Gauss-Seidel, symmetric GS, SOR, Chebyshev, ILU(0), ILUT
and overlapping Additive Schwarz with an exact subdomain solve.

Every preconditioner is a :class:`~repro.tpetra.operator.Operator`, so it
drops directly into the Krylov solvers' ``prec=`` argument.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..seamless import jit
from ..teuchos import ParameterList
from ..tpetra import CrsMatrix, Map, Operator, Vector
from ..tpetra.import_export import CombineMode, Import

__all__ = ["Preconditioner", "Jacobi", "GaussSeidel", "SymmetricGaussSeidel",
           "SOR", "Chebyshev", "ILU0", "ILUT", "AdditiveSchwarz",
           "create_preconditioner"]


def _local_diag_block(A: CrsMatrix) -> sp.csr_matrix:
    """This rank's square diagonal block, in local row/col numbering.

    Valid when the domain map equals the row map (the usual square case):
    the first ``num_my_rows`` columns of the local matrix are exactly the
    owned columns.
    """
    n = A.num_my_rows
    return A.local_matrix[:, :n].tocsr()


def _csr_arrays(block: sp.csr_matrix):
    """The kernels' view of a local block: int64 ``indptr`` and
    ``indices`` (columns sorted within each row, duplicates summed), each
    row's diagonal position -- its first entry at or right of the
    diagonal -- and the values."""
    block.sum_duplicates()
    indptr = block.indptr.astype(np.int64)
    lower = sp.tril(block, k=-1, format="csr")
    return (indptr, block.indices.astype(np.int64),
            indptr[:-1] + np.diff(lower.indptr), block.data)


#: an empty pivot array: the substitution skips that triangle
_SKIP = np.empty(0)


@jit
def _ilu0_ikj(indptr, indices, diag, lu, pos):
    """Saad's IKJ ILU(0) in place on the CSR values *lu*; *pos* is a
    -1-filled int64 work array, one slot per column.  Returns the first
    row whose pivot is zero or absent, or -1."""
    for i in range(len(diag)):
        for p in range(indptr[i], indptr[i + 1]):
            pos[indices[p]] = p
        for p in range(indptr[i], diag[i]):
            k = indices[p]
            f = lu[p] / lu[diag[k]]
            lu[p] = f
            for q in range(diag[k] + 1, indptr[k + 1]):
                t = pos[indices[q]]
                if t >= 0:
                    lu[t] = lu[t] - f * lu[q]
        for p in range(indptr[i], indptr[i + 1]):
            pos[indices[p]] = -1
        d = diag[i]
        if d == indptr[i + 1] or indices[d] != i or lu[d] == 0:
            return i
    return -1


@jit
def _substitute(indptr, indices, diag, data, lower, upper, x, y):
    """y = U^-1 L^-1 x, where L is the strict lower triangle of the CSR
    block plus diag(*lower*) and U its strict upper triangle plus
    diag(*upper*); an empty pivot array skips its triangle."""
    n = len(x)
    for i in range(n):
        s = x[i]
        if len(lower) > 0:
            for p in range(indptr[i], diag[i]):
                s -= data[p] * y[indices[p]]
            s = s / lower[i]
        y[i] = s
    if len(upper) > 0:
        for i in range(n - 1, -1, -1):
            s = y[i]
            for p in range(diag[i] + 1, indptr[i + 1]):
                s -= data[p] * y[indices[p]]
            y[i] = s / upper[i]


@jit
def _substitute_t(indptr, indices, diag, data, lower, upper, x, y):
    """y = L^-T U^-T x for the L and U of :func:`_substitute`, both
    pivot arrays given: the same rows swept as columns, U^T forward and
    then L^T backward."""
    n = len(x)
    for i in range(n):
        y[i] = x[i]
    for i in range(n):
        y[i] = y[i] / upper[i]
        for p in range(diag[i] + 1, indptr[i + 1]):
            y[indices[p]] -= data[p] * y[i]
    for i in range(n - 1, -1, -1):
        y[i] = y[i] / lower[i]
        for p in range(indptr[i], diag[i]):
            y[indices[p]] -= data[p] * y[i]


class Preconditioner(Operator):
    """Base class binding a preconditioner to its matrix's maps."""

    def __init__(self, A: CrsMatrix):
        if not A.is_fill_complete:
            raise ValueError("matrix must be fill-complete")
        self.A = A

    def domain_map(self) -> Map:
        return self.A.domain_map()

    def range_map(self) -> Map:
        return self.A.range_map()

    def compute(self) -> "Preconditioner":
        """Numeric setup; subclasses override. Returns self."""
        return self


class Jacobi(Preconditioner):
    """Point Jacobi: z = D^-1 r, optionally damped and iterated."""

    def __init__(self, A: CrsMatrix, sweeps: int = 1, damping: float = 1.0):
        super().__init__(A)
        self.sweeps = sweeps
        self.damping = damping
        self._inv_diag: Optional[np.ndarray] = None
        self.compute()

    def compute(self) -> "Jacobi":
        d = self.A.diagonal().local_view.copy()
        if np.any(d == 0):
            raise ZeroDivisionError("Jacobi preconditioner: zero diagonal")
        self._inv_diag = 1.0 / d
        return self

    def apply(self, x: Vector, y: Vector, trans: bool = False) -> None:
        if self.sweeps == 1:
            y.local_view[...] = self.damping * self._inv_diag * x.local_view
            return
        y.putScalar(0.0)
        r = Vector(x.map, dtype=x.dtype)
        for _ in range(self.sweeps):
            self.A.apply(y, r)
            r.update(1.0, x, -1.0)  # r = x - A y
            y.local_view += self.damping * self._inv_diag * r.local_view


class GaussSeidel(Preconditioner):
    """Processor-local Gauss-Seidel sweeps (block-Jacobi across ranks).

    Each sweep is one forward (or, when *backward*, backward)
    substitution over the local block's CSR arrays.  A zero on the local
    diagonal raises ``ZeroDivisionError`` at construction; there is no
    transpose sweep (``trans=True`` raises ``NotImplementedError``).
    """

    def __init__(self, A: CrsMatrix, sweeps: int = 1, damping: float = 1.0,
                 backward: bool = False):
        super().__init__(A)
        self.sweeps = sweeps
        self.damping = damping
        self.backward = backward
        self._block = _local_diag_block(A)
        self._csr = _csr_arrays(self._block)
        d = self._block.diagonal()
        if np.any(d == 0):
            raise ZeroDivisionError(
                f"{type(self).__name__} preconditioner: zero diagonal")
        # (lower, upper) pivots of each substitution in one sweep
        self._passes = [(_SKIP, d) if backward else (d, _SKIP)]

    def apply(self, x: Vector, y: Vector, trans: bool = False) -> None:
        if trans:
            raise NotImplementedError(
                f"{type(self).__name__} preconditioner: no transpose sweep")
        y.putScalar(0.0)
        xl, yl = x.local_view, y.local_view
        r = xl  # the first residual: x - A y is x while y = 0
        dy = np.empty_like(yl)
        for i in range(self.sweeps * len(self._passes)):
            lower, upper = self._passes[i % len(self._passes)]
            if i == 1:
                r = np.empty_like(yl)
            if i:
                np.subtract(xl, self._block @ yl, out=r)
            _substitute(*self._csr, lower, upper, r, dy)
            if self.damping != 1.0:
                dy *= self.damping
            yl += dy


class SymmetricGaussSeidel(GaussSeidel):
    """Forward sweep followed by backward sweep, processor-local."""

    def __init__(self, A: CrsMatrix, sweeps: int = 1, damping: float = 1.0):
        super().__init__(A, sweeps=sweeps, damping=damping)
        d = self._block.diagonal()
        self._passes = [(d, _SKIP), (_SKIP, d)]


class SOR(GaussSeidel):
    """Successive over-relaxation, processor-local: a forward sweep whose
    pivots are ``D/omega``.  A zero local diagonal raises
    ``ZeroDivisionError`` and ``trans=True`` raises
    ``NotImplementedError``.
    """

    def __init__(self, A: CrsMatrix, omega: float = 1.2, sweeps: int = 1):
        if not 0 < omega < 2:
            raise ValueError("SOR requires 0 < omega < 2")
        super().__init__(A, sweeps=sweeps)
        self.omega = omega
        self._passes = [(self._block.diagonal() / omega, _SKIP)]


class Chebyshev(Preconditioner):
    """Chebyshev polynomial preconditioner/smoother.

    Targets the upper part of the spectrum of D^-1 A, with the maximum
    eigenvalue estimated by a few power iterations -- the Ifpack recipe.
    """

    def __init__(self, A: CrsMatrix, degree: int = 3,
                 eig_ratio: float = 30.0, power_iterations: int = 10,
                 lambda_max: Optional[float] = None):
        super().__init__(A)
        self.degree = degree
        self.eig_ratio = eig_ratio
        d = A.diagonal().local_view.copy()
        if np.any(d == 0):
            raise ZeroDivisionError("Chebyshev preconditioner: zero diagonal")
        self._inv_diag = 1.0 / d
        if lambda_max is None:
            lambda_max = self._estimate_lambda_max(power_iterations)
        self.lambda_max = 1.1 * lambda_max  # Ifpack boost factor
        self.lambda_min = self.lambda_max / eig_ratio

    def _estimate_lambda_max(self, iterations: int) -> float:
        v = Vector(self.A.domain_map())
        v.randomize(seed=42)
        nrm = v.norm2()
        if nrm == 0:
            return 1.0
        v.scale(1.0 / nrm)
        w = Vector(self.A.range_map())
        lam = 1.0
        for _ in range(iterations):
            self.A.apply(v, w)
            w.local_view *= self._inv_diag
            lam = w.norm2()
            if lam == 0:
                return 1.0
            v = w * (1.0 / lam)
        return float(lam)

    def apply(self, x: Vector, y: Vector, trans: bool = False) -> None:
        # Three-term Chebyshev recurrence on D^-1 A (the hypre/ML form).
        theta = 0.5 * (self.lambda_max + self.lambda_min)
        delta = 0.5 * (self.lambda_max - self.lambda_min)
        sigma = theta / delta
        rho_old = 1.0 / sigma
        y.putScalar(0.0)
        d = Vector(x.map, dtype=x.dtype)
        d.local_view[...] = self._inv_diag * x.local_view / theta
        y.update(1.0, d, 1.0)
        ay = Vector(x.map, dtype=x.dtype)
        for _k in range(1, self.degree):
            rho = 1.0 / (2.0 * sigma - rho_old)
            self.A.apply(y, ay)
            resid = x.local_view - ay.local_view
            d.local_view[...] = rho * rho_old * d.local_view \
                + (2.0 * rho / delta) * self._inv_diag * resid
            y.update(1.0, d, 1.0)
            rho_old = rho


class ILU0(Preconditioner):
    """Zero-fill incomplete LU on the processor-local diagonal block.

    ``compute()`` factors a copy of the block's values in place, so
    ``apply`` is one forward (unit L) and one backward (U) substitution
    over the same CSR arrays (``trans=True`` runs the transposed pair,
    giving M^-T).  A zero pivot raises ``ZeroDivisionError`` naming its
    local row.
    """

    def __init__(self, A: CrsMatrix):
        super().__init__(A)
        self.compute()

    def compute(self) -> "ILU0":
        indptr, indices, diag, lu = _csr_arrays(_local_diag_block(self.A))
        n = len(diag)
        row = _ilu0_ikj(indptr, indices, diag, lu, np.full(n, -1))
        if row >= 0:
            raise ZeroDivisionError(
                f"ILU0 preconditioner: zero pivot in local row {row}")
        self._csr = (indptr, indices, diag, lu)
        self._pivots = (np.ones(n), lu[diag])
        return self

    def apply(self, x: Vector, y: Vector, trans: bool = False) -> None:
        kernel = _substitute_t if trans else _substitute
        kernel(*self._csr, *self._pivots, x.local_view, y.local_view)


class ILUT(Preconditioner):
    """Thresholded ILU on the local block (via SuperLU's approximate ILU)."""

    def __init__(self, A: CrsMatrix, drop_tol: float = 1e-4,
                 fill_factor: float = 10.0):
        super().__init__(A)
        self.drop_tol = drop_tol
        self.fill_factor = fill_factor
        self._ilu = None
        self.compute()

    def compute(self) -> "ILUT":
        block = _local_diag_block(self.A).tocsc()
        if block.shape[0]:
            self._ilu = spla.spilu(block, drop_tol=self.drop_tol,
                                   fill_factor=self.fill_factor)
        return self

    def apply(self, x: Vector, y: Vector, trans: bool = False) -> None:
        if self._ilu is not None:
            y.local_view[...] = self._ilu.solve(x.local_view,
                                                trans="T" if trans else "N")


class AdditiveSchwarz(Preconditioner):
    """Overlapping additive Schwarz with an exact subdomain solve.

    With ``overlap=0`` this is block Jacobi with a direct block solve.
    Each extra level of overlap extends the subdomain by the rows reachable
    through one more layer of the matrix graph (rows are fetched from their
    owners at setup time).

    ``variant`` selects how overlapped solutions combine:

    - ``"ras"`` (restricted, Ifpack's default): each rank keeps only its
      owned part -- one less communication, but the operator is
      *nonsymmetric*, so pair it with GMRES/BiCGStab;
    - ``"as"`` (classic): overlapping contributions are summed back to
      their owners -- symmetric for symmetric A, the right choice for CG.
    """

    def __init__(self, A: CrsMatrix, overlap: int = 1,
                 variant: str = "ras"):
        super().__init__(A)
        if variant not in ("ras", "as"):
            raise ValueError("variant must be 'ras' or 'as'")
        self.overlap = overlap
        self.variant = variant
        self._setup()

    def _setup(self) -> None:
        A = self.A
        comm = A.row_map.comm
        my = set(int(g) for g in A.row_map.my_gids)
        region = list(A.row_map.my_gids)
        region_set = set(region)
        # rows of A we already have locally, in global col numbering
        rows = {}
        coo = A.local_matrix.tocoo()
        for i, j, v in zip(coo.row, coo.col, coo.data):
            rows.setdefault(int(A.row_map.gid(int(i))), []).append(
                (int(A.col_map_gids[int(j)]), float(v)))
        frontier = set()
        for grow in region:
            frontier.update(c for c, _v in rows.get(grow, ()))
        frontier -= region_set
        for _level in range(self.overlap):
            # fetch rows in the frontier from their owners (collective)
            want = np.array(sorted(frontier), dtype=np.int64)
            owners = A.row_map.owner_rank(want)
            asks = [want[owners == r] for r in range(comm.size)]
            asked = comm.alltoall(asks)
            replies = []
            for gids in asked:
                batch = []
                for g in np.asarray(gids, dtype=np.int64):
                    cols, vals = A.global_row(int(g))
                    batch.append((int(g), cols, vals))
                replies.append(batch)
            got = comm.alltoall(replies)
            new_rows = {}
            for batch in got:
                for g, cols, vals in batch:
                    new_rows[int(g)] = list(zip(
                        (int(c) for c in cols), (float(v) for v in vals)))
            rows.update(new_rows)
            region.extend(sorted(frontier))
            region_set |= frontier
            next_frontier = set()
            for g in new_rows:
                next_frontier.update(c for c, _v in new_rows[g])
            frontier = next_frontier - region_set
        # build the overlapped local submatrix
        pos = {g: i for i, g in enumerate(region)}
        ridx, cidx, vals = [], [], []
        for g in region:
            for c, v in rows.get(g, ()):
                if c in pos:
                    ridx.append(pos[g])
                    cidx.append(pos[c])
                    vals.append(v)
        n = len(region)
        sub = sp.coo_matrix((vals, (ridx, cidx)), shape=(n, n)).tocsc()
        self._region = np.array(region, dtype=np.int64)
        self._n_owned = A.row_map.num_my_elements
        self._lu = spla.splu(sub) if n else None
        # importer to pull the overlapped region of the residual
        overlap_map = Map(A.domain_map().num_global, self._region, comm,
                          kind="arbitrary")
        self._importer = Import(A.domain_map(), overlap_map)

    def apply(self, x: Vector, y: Vector, trans: bool = False) -> None:
        n = len(self._region)
        xo = np.zeros((n, 1), dtype=x.dtype)
        self._importer.apply(x.local, xo, CombineMode.INSERT)
        if self._lu is not None:
            sol = self._lu.solve(xo[:, 0])
        else:
            sol = np.zeros(0)
        if self.variant == "ras":
            # restricted AS: keep only the owned part -- no second
            # communication, at the price of a nonsymmetric operator
            y.local_view[...] = sol[:self._n_owned]
        else:
            # classic AS: sum every subdomain's contribution at the owner
            # (reverse import = export with ADD); symmetric for SPD A
            y.putScalar(0.0)
            self._importer.apply_reverse(
                np.ascontiguousarray(sol.reshape(-1, 1)), y.local,
                CombineMode.ADD)


def create_preconditioner(name: str, A: CrsMatrix,
                          params: Optional[ParameterList] = None
                          ) -> Preconditioner:
    """Ifpack-style factory: create a preconditioner by name.

    Names (case-insensitive): ``Jacobi``, ``Gauss-Seidel``, ``SGS``,
    ``SOR``, ``Chebyshev``, ``ILU``, ``ILUT``, ``Schwarz``, ``None``.
    """
    params = params if params is not None else ParameterList("Ifpack")
    key = name.strip().lower().replace("_", "-")
    if key in ("none", "identity"):
        from ..tpetra import IdentityOperator
        return IdentityOperator(A.domain_map())  # type: ignore[return-value]
    if key == "jacobi":
        return Jacobi(A, sweeps=int(params.get("Sweeps", 1)),
                      damping=float(params.get("Damping", 1.0)))
    if key in ("gauss-seidel", "gs"):
        return GaussSeidel(A, sweeps=int(params.get("Sweeps", 1)),
                           damping=float(params.get("Damping", 1.0)))
    if key in ("sgs", "symmetric-gauss-seidel"):
        return SymmetricGaussSeidel(A, sweeps=int(params.get("Sweeps", 1)),
                                    damping=float(params.get("Damping", 1.0)))
    if key == "sor":
        return SOR(A, omega=float(params.get("Omega", 1.2)),
                   sweeps=int(params.get("Sweeps", 1)))
    if key == "chebyshev":
        return Chebyshev(A, degree=int(params.get("Degree", 3)),
                         eig_ratio=float(params.get("Eig Ratio", 30.0)))
    if key in ("ilu", "ilu0", "ilu(0)"):
        return ILU0(A)
    if key == "ilut":
        return ILUT(A, drop_tol=float(params.get("Drop Tolerance", 1e-4)),
                    fill_factor=float(params.get("Fill Factor", 10.0)))
    if key in ("schwarz", "additive-schwarz", "ras"):
        return AdditiveSchwarz(A, overlap=int(params.get("Overlap", 1)),
                               variant=str(params.get("Variant", "ras")))
    raise ValueError(f"unknown preconditioner {name!r}")

"""Matrix gallery (Galeri's CrsMatrices module).

All constructors are collective and return fill-complete distributed
matrices on a given (or default contiguous) row map.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..mpi import Intracomm
from ..tpetra import CrsMatrix, Map

__all__ = ["laplace_1d", "laplace_2d", "laplace_3d",
           "convection_diffusion_2d", "anisotropic_2d", "biharmonic_1d",
           "tridiag", "random_spd", "create_matrix"]


def _default_map(n: int, comm: Intracomm, map_: Optional[Map]) -> Map:
    if map_ is not None:
        if map_.num_global != n:
            raise ValueError(f"map has {map_.num_global} indices, matrix "
                             f"needs {n}")
        return map_
    return Map.create_contiguous(n, comm)


def _insert_stencil(A: CrsMatrix, gid, center: float, entries) -> None:
    """One insert for row *gid*: the diagonal, then every ``(keep, col,
    val)`` of *entries* that is kept, in order."""
    cols, vals = [gid], [center]
    for keep, col, val in entries:
        if keep:
            cols.append(col)
            vals.append(val)
    A.insert_global_values(gid, cols, vals)


def tridiag(n: int, comm: Intracomm, a: float = 2.0, b: float = -1.0,
            c: float = -1.0, map_: Optional[Map] = None) -> CrsMatrix:
    """Tridiagonal [c, a, b] matrix."""
    m = _default_map(n, comm, map_)
    A = CrsMatrix(m)
    for gid in m.my_gids:
        _insert_stencil(A, gid, a, ((gid > 0, gid - 1, c),
                                    (gid < n - 1, gid + 1, b)))
    A.fillComplete()
    return A


def laplace_1d(n: int, comm: Intracomm,
               map_: Optional[Map] = None) -> CrsMatrix:
    """1-D Dirichlet Laplacian: stencil [-1, 2, -1]."""
    return tridiag(n, comm, 2.0, -1.0, -1.0, map_=map_)


def laplace_2d(nx: int, ny: int, comm: Intracomm,
               map_: Optional[Map] = None) -> CrsMatrix:
    """5-point 2-D Dirichlet Laplacian on an nx-by-ny grid.

    Row gid = iy*nx + ix; the canonical SPD test problem of the solver
    benchmarks.
    """
    n = nx * ny
    m = _default_map(n, comm, map_)
    A = CrsMatrix(m)
    for gid in m.my_gids:
        ix = int(gid) % nx
        iy = int(gid) // nx
        _insert_stencil(A, gid, 4.0, ((ix > 0, gid - 1, -1.0),
                                      (ix < nx - 1, gid + 1, -1.0),
                                      (iy > 0, gid - nx, -1.0),
                                      (iy < ny - 1, gid + nx, -1.0)))
    A.fillComplete()
    return A


def laplace_3d(nx: int, ny: int, nz: int, comm: Intracomm,
               map_: Optional[Map] = None) -> CrsMatrix:
    """7-point 3-D Dirichlet Laplacian on an nx-by-ny-by-nz grid."""
    n = nx * ny * nz
    m = _default_map(n, comm, map_)
    A = CrsMatrix(m)
    nxy = nx * ny
    for gid in m.my_gids:
        g = int(gid)
        ix = g % nx
        iy = (g // nx) % ny
        iz = g // nxy
        _insert_stencil(A, gid, 6.0, ((ix > 0, gid - 1, -1.0),
                                      (ix < nx - 1, gid + 1, -1.0),
                                      (iy > 0, gid - nx, -1.0),
                                      (iy < ny - 1, gid + nx, -1.0),
                                      (iz > 0, gid - nxy, -1.0),
                                      (iz < nz - 1, gid + nxy, -1.0)))
    A.fillComplete()
    return A


def convection_diffusion_2d(nx: int, ny: int, comm: Intracomm,
                            conv_x: float = 10.0, conv_y: float = 10.0,
                            map_: Optional[Map] = None) -> CrsMatrix:
    """Upwinded convection-diffusion on a unit square (nonsymmetric).

    -lap(u) + (conv_x, conv_y) . grad(u), first-order upwind differences;
    Galeri's Recirc2D-style nonsymmetric test matrix for GMRES/BiCGStab.
    """
    n = nx * ny
    m = _default_map(n, comm, map_)
    hx = 1.0 / (nx + 1)
    hy = 1.0 / (ny + 1)
    # diffusion
    diag = 2.0 / hx ** 2 + 2.0 / hy ** 2
    west = east = -1.0 / hx ** 2
    south = north = -1.0 / hy ** 2
    # upwind convection
    if conv_x >= 0:
        diag += conv_x / hx
        west += -conv_x / hx
    else:
        diag += -conv_x / hx
        east += conv_x / hx
    if conv_y >= 0:
        diag += conv_y / hy
        south += -conv_y / hy
    else:
        diag += -conv_y / hy
        north += conv_y / hy
    A = CrsMatrix(m)
    for gid in m.my_gids:
        ix = int(gid) % nx
        iy = int(gid) // nx
        _insert_stencil(A, gid, diag, ((ix > 0, gid - 1, west),
                                       (ix < nx - 1, gid + 1, east),
                                       (iy > 0, gid - nx, south),
                                       (iy < ny - 1, gid + nx, north)))
    A.fillComplete()
    return A


def anisotropic_2d(nx: int, ny: int, comm: Intracomm,
                   epsilon: float = 1e-2,
                   map_: Optional[Map] = None) -> CrsMatrix:
    """Anisotropic diffusion -u_xx - eps*u_yy (Galeri's Stretched2D role).

    The classic stress test for point smoothers and aggregation-based
    multigrid: coupling in y is epsilon-weak, so errors smooth in x only.
    """
    n = nx * ny
    m = _default_map(n, comm, map_)
    A = CrsMatrix(m)
    for gid in m.my_gids:
        ix = int(gid) % nx
        iy = int(gid) // nx
        _insert_stencil(A, gid, 2.0 + 2.0 * epsilon,
                        ((ix > 0, gid - 1, -1.0),
                         (ix < nx - 1, gid + 1, -1.0),
                         (iy > 0, gid - nx, -epsilon),
                         (iy < ny - 1, gid + nx, -epsilon)))
    A.fillComplete()
    return A


def biharmonic_1d(n: int, comm: Intracomm,
                  map_: Optional[Map] = None) -> CrsMatrix:
    """1-D biharmonic stencil [1, -4, 6, -4, 1] (ill-conditioned SPD)."""
    m = _default_map(n, comm, map_)
    A = CrsMatrix(m)
    stencil = ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0))
    for gid in m.my_gids:
        row = [(int(gid) + off, val) for off, val in stencil
               if 0 <= int(gid) + off < n]
        A.insert_global_values(gid, [c for c, _ in row], [v for _, v in row])
    A.fillComplete()
    return A


def random_spd(n: int, comm: Intracomm, density: float = 0.05,
               seed: int = 0, map_: Optional[Map] = None) -> CrsMatrix:
    """Random sparse diagonally-dominant SPD matrix (reproducible).

    Every rank draws the same global pattern from the seed, then keeps its
    rows, so the matrix is independent of the rank count.
    """
    m = _default_map(n, comm, map_)
    rng = np.random.default_rng(seed)
    nnz_target = max(n, int(density * n * n // 2))
    rows = rng.integers(0, n, size=nnz_target)
    cols = rng.integers(0, n, size=nnz_target)
    vals = rng.uniform(-1.0, 1.0, size=nnz_target)
    A = CrsMatrix(m)
    mine = m.lid(rows) >= 0
    mine_t = m.lid(cols) >= 0
    strength = np.zeros(n)
    np.add.at(strength, rows, np.abs(vals))
    np.add.at(strength, cols, np.abs(vals))
    # symmetric off-diagonal entries, rows owned locally
    for r, c, v in zip(rows[mine], cols[mine], vals[mine]):
        if r != c:
            A.insert_global_values(int(r), [int(c)], [float(v)])
    for r, c, v in zip(rows[mine_t], cols[mine_t], vals[mine_t]):
        if r != c:
            A.insert_global_values(int(c), [int(r)], [float(v)])
    for gid in m.my_gids:
        A.insert_global_values(int(gid), [int(gid)],
                               [float(strength[gid]) + 1.0])
    A.fillComplete()
    return A


def create_matrix(name: str, comm: Intracomm, **params) -> CrsMatrix:
    """Galeri-style factory.

    ``create_matrix("Laplace2D", comm, nx=32, ny=32)`` etc.  Names:
    Tridiag, Laplace1D, Laplace2D, Laplace3D, Recirc2D (convection-
    diffusion), Biharmonic1D, RandomSPD.
    """
    key = name.strip().lower()
    if key == "tridiag":
        return tridiag(params.pop("n"), comm, **params)
    if key == "laplace1d":
        return laplace_1d(params.pop("n"), comm, **params)
    if key == "laplace2d":
        return laplace_2d(params.pop("nx"), params.pop("ny"), comm, **params)
    if key == "laplace3d":
        return laplace_3d(params.pop("nx"), params.pop("ny"),
                          params.pop("nz"), comm, **params)
    if key in ("recirc2d", "convdiff2d"):
        return convection_diffusion_2d(params.pop("nx"), params.pop("ny"),
                                       comm, **params)
    if key in ("anisotropic2d", "stretched2d"):
        return anisotropic_2d(params.pop("nx"), params.pop("ny"), comm,
                              **params)
    if key == "biharmonic1d":
        return biharmonic_1d(params.pop("n"), comm, **params)
    if key == "randomspd":
        return random_spd(params.pop("n"), comm, **params)
    raise ValueError(f"unknown matrix gallery name {name!r}")

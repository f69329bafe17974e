"""The gallery builds each row with one insert: byte-identical matrices.

The digests were taken from the entry-at-a-time constructors this
replaced; each covers every rank's CSR data, indices, indptr and column
map at P = 1, 2 and 3.
"""

import hashlib

import pytest

from repro import galeri, mpi

CASES = {
    "tridiag": lambda c: galeri.tridiag(23, c, 3.0, -1.5, -0.5),
    "laplace_1d": lambda c: galeri.laplace_1d(23, c),
    "laplace_2d": lambda c: galeri.laplace_2d(7, 5, c),
    "laplace_3d": lambda c: galeri.laplace_3d(4, 3, 5, c),
    "anisotropic_2d": lambda c: galeri.anisotropic_2d(6, 7, c, epsilon=0.05),
    "biharmonic_1d": lambda c: galeri.biharmonic_1d(19, c),
    "convection_diffusion_2d": lambda c: galeri.convection_diffusion_2d(
        6, 5, c, conv_x=-3.0, conv_y=7.0),
}

DIGESTS = {
    "tridiag": ["2e39f366da221a6c", "75b890aa888c2ae9", "4070bc7f7d0624bb"],
    "laplace_1d": ["9fff9c83fa3ddb20", "82a6ccf2716f089e",
                   "54a53110c34c3661"],
    "laplace_2d": ["4814c184b4c2df3b", "27d8e292b9aa6346",
                   "c279ae099643780a"],
    "laplace_3d": ["0efb454555627224", "f489ad52b3cd1841",
                   "76a44349d65578eb"],
    "anisotropic_2d": ["c99593a7ffb708f2", "ecc8eadb47d16f48",
                       "a02e0ab8c224fc0e"],
    "biharmonic_1d": ["0869992df17b5c76", "d1378d748e36a493",
                      "bf087f1fcd7588ea"],
    "convection_diffusion_2d": ["b73e9c2c489f481f", "4553728e7fd25b6e",
                                "be4ed05b773054f8"],
}


def _digest(name, nranks):
    def body(comm):
        A = CASES[name](comm)
        lm = A.local_matrix
        return [a.tobytes() for a in (lm.data, lm.indices, lm.indptr,
                                      A.col_map_gids)]
    h = hashlib.sha256()
    for arrays in mpi.run_spmd(body, nranks):
        for raw in arrays:
            h.update(raw)
    return h.hexdigest()[:16]


@pytest.mark.parametrize("nranks", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(CASES))
def test_matrix_is_byte_identical(name, nranks):
    assert _digest(name, nranks) == DIGESTS[name][nranks - 1]

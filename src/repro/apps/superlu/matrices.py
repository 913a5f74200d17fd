"""Synthetic PARSEC-like sparse matrices.

The paper's SuperLU_DIST experiments use matrices from the PARSEC group of
the SuiteSparse collection (Sec. 6.6/6.7) — real-space pseudopotential DFT
matrices whose sparsity pattern is a near-neighbour stencil over a 3-D point
cloud.  Without network access we synthesize matrices with the same
structure: uniformly random 3-D points connected to their k nearest
neighbours (k chosen to hit the real matrix's average row degree), the
pattern symmetrized, and diagonally dominant values attached.

``PARSEC_STATS`` records the real (n, nnz) of each matrix; a global
``scale`` shrinks n so symbolic factorization stays laptop-fast while
preserving relative matrix sizes — Si2 remains the small easy one, SiO the
big one, exactly the ordering the paper's per-matrix results depend on.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

__all__ = ["PARSEC_STATS", "parsec_matrix", "knn_matrix"]

#: real SuiteSparse dimensions of the PARSEC matrices used in the paper
PARSEC_STATS: Dict[str, Tuple[int, int]] = {
    "Si2": (769, 17_801),
    "SiH4": (5_041, 171_903),
    "SiNa": (5_743, 102_265),
    "Na5": (5_832, 305_630),
    "benzene": (8_219, 242_669),
    "Si10H16": (17_077, 875_923),
    "Si5H12": (19_896, 738_598),
    "SiO": (33_401, 1_317_655),
}

_CACHE: Dict[Tuple[str, float, int], sparse.csc_matrix] = {}


def knn_matrix(n: int, k: int, seed: int = 0) -> sparse.csc_matrix:
    """Symmetric k-nearest-neighbour matrix over a random 3-D point cloud.

    Parameters
    ----------
    n:
        Dimension (number of points).
    k:
        Neighbours per point before symmetrization.
    seed:
        Point-cloud seed.

    Returns
    -------
    CSC matrix with a symmetric pattern, negative off-diagonals and a
    dominant positive diagonal (Poisson-like, guaranteed nonsingular).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    k = max(1, min(int(k), n - 1))
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 3))
    tree = cKDTree(pts)
    _, idx = tree.query(pts, k=k + 1)  # first neighbour is the point itself
    rows = np.repeat(np.arange(n), k)
    cols = idx[:, 1:].ravel()
    data = -np.ones(rows.shape[0])
    A = sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    A = A.minimum(A.T)  # symmetric pattern, entries stay -1
    A = A.tolil()
    A.setdiag(0.0)
    A = A.tocsr()
    A.eliminate_zeros()
    deg = -np.asarray(A.sum(axis=1)).ravel()
    A = A.tolil()
    A.setdiag(deg + 1.0)
    return A.tocsc()


def parsec_matrix(name: str, scale: float = 0.12, seed: int = 0) -> sparse.csc_matrix:
    """Synthetic stand-in for a named PARSEC matrix, cached per (name, scale, seed).

    Parameters
    ----------
    name:
        One of :data:`PARSEC_STATS`.
    scale:
        Fraction of the real dimension to generate (the default keeps even
        SiO's symbolic factorization fast on one core).
    seed:
        Seed of the matrix's point cloud; each seed is its own matrix.
    """
    if name not in PARSEC_STATS:
        raise KeyError(f"unknown PARSEC matrix {name!r}; know {sorted(PARSEC_STATS)}")
    key = (name, float(scale), int(seed))
    if key not in _CACHE:
        n_real, nnz_real = PARSEC_STATS[name]
        # floor keeps the smallest matrices structurally interesting even at
        # aggressive downscaling (Si2 would otherwise shrink to a toy)
        n = max(min(n_real, 256), int(round(n_real * scale)))
        k = max(2, int(round(nnz_real / n_real / 2.0)))  # halved: symmetrization doubles
        # zlib.crc32 is stable across processes (hash() is salted per run)
        import zlib

        _CACHE[key] = knn_matrix(n, k, seed=seed + zlib.crc32(name.encode()) % 1000)
    return _CACHE[key]

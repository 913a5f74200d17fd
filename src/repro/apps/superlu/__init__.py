"""SuperLU_DIST substrate: synthetic PARSEC matrices, real symbolic
factorization (orderings, elimination tree, fill, supernodes), and the
time/memory factorization simulator."""

from .matrices import PARSEC_STATS, knn_matrix, parsec_matrix
from .numeric import LUFactors, lu_solve, sparse_lu
from .simulator import DEFAULT_CONFIG, SuperLUDIST
from .symbolic import (
    COLPERM_CHOICES,
    SupernodePartition,
    SymbolicResult,
    analyze,
    ordering,
    supernodes,
    symbolic_cholesky,
)

__all__ = [
    "COLPERM_CHOICES",
    "DEFAULT_CONFIG",
    "LUFactors",
    "PARSEC_STATS",
    "lu_solve",
    "sparse_lu",
    "SuperLUDIST",
    "SupernodePartition",
    "SymbolicResult",
    "analyze",
    "knn_matrix",
    "ordering",
    "parsec_matrix",
    "supernodes",
    "symbolic_cholesky",
]

"""Symbolic factorization machinery for the SuperLU_DIST simulator.

SuperLU_DIST's performance is dominated by structure that is *computed*, not
modeled: the column permutation (COLPERM) determines fill-in, and
NSUP/NREL determine the supernode partition.  This module implements the
real algorithms on the (symmetrized) pattern ``A + Aᵀ``:

* fill-reducing **orderings** — NATURAL, RCM (SciPy's reverse Cuthill–McKee,
  standing in for bandwidth-type orderings), a from-scratch **minimum
  degree** (the MMD_AT_PLUS_A option), and a from-scratch **nested
  dissection** by recursive level-set bisection (the METIS_AT_PLUS_A
  option);
* the **elimination tree** and exact per-column **fill counts** via
  child-pattern merging (O(|L|));
* **supernode partitioning** with a maximum size NSUP and relaxed
  amalgamation of small subtrees (NREL), following SuperLU's
  ``relax_snode`` heuristic.

Vertex sets (adjacency rows, element boundaries, column patterns) are
Python ints used as bitsets: bit ``k`` stands for vertex ``k``, union is
``|``, and a set's size is ``int.bit_count()``.  :func:`analyze` is the one
entry point the simulators use: it symmetrizes once, orders, and factors.

Everything here operates on patterns only; the numeric phase is priced by
:mod:`repro.apps.superlu.simulator`.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Dict, List

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee

__all__ = [
    "COLPERM_CHOICES",
    "analyze",
    "ordering",
    "symbolic_cholesky",
    "supernodes",
    "SymbolicResult",
    "SupernodePartition",
]

COLPERM_CHOICES = ("NATURAL", "RCM", "MMD_AT_PLUS_A", "METIS_AT_PLUS_A")

#: dense boolean cells per block when packing pattern rows into bitsets
_PACK_CELLS = 1 << 22


def _symmetrize(A: sparse.spmatrix) -> sparse.csr_matrix:
    """Pattern of ``A + Aᵀ`` without the diagonal, CSR of booleans."""
    A = sparse.csr_matrix(A, copy=False)
    S = (A + A.T).tocsr()
    S.setdiag(0)
    S.eliminate_zeros()
    S.data[:] = 1.0
    return S


def _row_bitsets(S: sparse.csr_matrix) -> List[int]:
    """Row ``i`` of the pattern ``S`` as an int with bit ``k`` set iff ``S[i, k]`` is stored.

    Rows are packed a block at a time through a dense boolean array of at
    most :data:`_PACK_CELLS` cells.
    """
    n_rows, n_cols = S.shape
    step = max(1, _PACK_CELLS // max(n_cols, 1))
    out: List[int] = []
    for lo in range(0, n_rows, step):
        hi = min(n_rows, lo + step)
        ptr = S.indptr[lo : hi + 1]
        block = np.zeros((hi - lo, n_cols), dtype=bool)
        block[np.repeat(np.arange(hi - lo), np.diff(ptr)), S.indices[ptr[0] : ptr[-1]]] = True
        packed = np.packbits(block, axis=1, bitorder="little")
        out.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return out


def _members(bits: int) -> List[int]:
    """Indices of the set bits of ``bits``, lowest first."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _minimum_degree(S: sparse.csr_matrix) -> np.ndarray:
    """Quotient-graph minimum-degree ordering.

    Eliminated vertices become *elements* whose boundaries stand in for the
    cliques a naive implementation would materialize (the AMD idea of
    Amestoy, Davis & Duff).  A lazy min-heap drives the selection: a
    vertex is queued under a cheap lower bound on its external degree,
    ``max(|variable neighbours|, |new element boundary| − 1)``, and a pop
    is verified against the exact external degree
    ``|variable neighbours ∪ boundaries of adjacent elements| − self``,
    re-queued when a smaller key is still waiting.  The stale entries this
    leaves in the heap decide ties, so the pushes and the pop rule are part
    of the ordering's definition.

    Variable neighbours and element boundaries are int bitsets.  Both hold
    live vertices only: an eliminated vertex leaves every neighbour's
    variable set, and every element whose boundary held it is absorbed
    into the new one, so no separate live mask is needed.  A vertex's
    exact degree changes only when the vertex enters a new element's
    boundary, so it is memoized and recomputed only after that.
    """
    n = S.shape[0]
    adj_var = _row_bitsets(S)
    adj_elem: List[set] = [set() for _ in range(n)]
    elem_bound: Dict[int, int] = {}
    eliminated = [False] * n
    degree = [b.bit_count() for b in adj_var]  # exact while not stale
    stale = [False] * n
    order: List[int] = []

    heap = [(d, v) for v, d in enumerate(degree)]
    heapq.heapify(heap)
    for _ in range(n):
        # pop by (possibly stale) key, verify with the exact external
        # degree, and re-queue when a better candidate is still waiting
        _, best = heapq.heappop(heap)
        while True:
            if eliminated[best]:
                _, best = heapq.heappop(heap)
                continue
            if stale[best]:
                reach = adj_var[best]
                for e in adj_elem[best]:
                    reach |= elem_bound[e]
                degree[best] = (reach & ~(1 << best)).bit_count()
                stale[best] = False
            d = degree[best]
            if heap and d > heap[0][0]:
                # (d, best) sorts after heap[0]: push it, pop heap[0]
                _, best = heapq.heappushpop(heap, (d, best))
                continue
            break
        order.append(best)
        eliminated[best] = True
        # boundary of the new element: variable neighbours plus the
        # boundaries of absorbed elements, live vertices only
        boundary = adj_var[best]
        absorbed = adj_elem[best]
        for e in absorbed:
            boundary |= elem_bound.pop(e)
        boundary &= ~(1 << best)
        elem_bound[best] = boundary
        members = _members(boundary)
        keep = ~(boundary | 1 << best)
        bound = len(members) - 1
        for u in members:
            adj_var[u] &= keep
            elems = adj_elem[u]
            elems -= absorbed
            elems.add(best)
            stale[u] = True
            # lower bound on the new external degree; the pop loop verifies
            d = adj_var[u].bit_count()
            heapq.heappush(heap, (d if d > bound else bound, u))
        adj_var[best] = 0
        adj_elem[best] = set()
    return np.asarray(order, dtype=np.int64)


def _pseudo_peripheral(S: sparse.csr_matrix, nodes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """BFS level sets from a pseudo-peripheral node of the induced subgraph."""
    sub = S[nodes][:, nodes].tocsr()
    indptr, indices = sub.indptr.tolist(), sub.indices.tolist()
    m = len(nodes)
    start = int(rng.integers(m))
    for _ in range(3):  # a few BFS sweeps push the start to the periphery
        level = [-1] * m
        level[start] = 0
        frontier = [start]
        last = start  # the last vertex the sweep reaches
        while frontier:
            nxt = []
            for v in frontier:
                depth = level[v] + 1
                for u in indices[indptr[v] : indptr[v + 1]]:
                    if level[u] < 0:
                        level[u] = depth
                        nxt.append(u)
            if nxt:
                last = nxt[-1]
            frontier = nxt
        # disconnected components: give them fresh levels past the deepest
        far = max(level)
        for v in range(m):
            if level[v] < 0:
                far += 1
                level[v] = far
        start = last
    return np.asarray(level, dtype=np.int64)


def _nested_dissection(S: sparse.csr_matrix, nodes: np.ndarray, rng: np.random.Generator, leaf: int = 32) -> List[int]:
    """Recursive level-set bisection; separators are ordered last."""
    if len(nodes) <= leaf:
        return nodes.tolist()
    level = _pseudo_peripheral(S, nodes, rng)
    median = float(np.median(level))
    left = nodes[level < median]
    right = nodes[level > median]
    sep = nodes[level == median]
    if len(left) == 0 or len(right) == 0:  # degenerate split: fall back
        return nodes.tolist()
    return (
        _nested_dissection(S, left, rng, leaf)
        + _nested_dissection(S, right, rng, leaf)
        + sep.tolist()
    )


def _ordering(S: sparse.csr_matrix, colperm: str, seed: int) -> np.ndarray:
    """:func:`ordering` on an already symmetrized pattern."""
    n = S.shape[0]
    if colperm == "NATURAL":
        return np.arange(n, dtype=np.int64)
    if colperm == "RCM":
        return np.asarray(reverse_cuthill_mckee(S, symmetric_mode=True), dtype=np.int64)
    if colperm == "MMD_AT_PLUS_A":
        return _minimum_degree(S)
    if colperm == "METIS_AT_PLUS_A":
        rng = np.random.default_rng(seed)
        return np.asarray(_nested_dissection(S, np.arange(n, dtype=np.int64), rng), dtype=np.int64)
    raise ValueError(f"unknown COLPERM {colperm!r}; know {COLPERM_CHOICES}")


def ordering(A: sparse.spmatrix, colperm: str, seed: int = 0) -> np.ndarray:
    """Fill-reducing permutation for the requested COLPERM option.

    Returns ``perm`` such that column ``perm[k]`` of ``A`` is eliminated at
    step ``k``.
    """
    return _ordering(_symmetrize(A), colperm, seed)


@dataclasses.dataclass
class SymbolicResult:
    """Outcome of symbolic factorization under one ordering.

    Attributes
    ----------
    perm:
        The ordering: column ``perm[k]`` of ``A`` is eliminated at step ``k``.
    parent:
        Elimination-tree parent per column (−1 at roots).
    col_counts:
        ``|L(:, j)|`` including the diagonal, per column.
    subtree_size:
        Number of tree descendants (incl. self) per column.
    fill_nnz:
        Total ``|L|`` (lower triangle incl. diagonal).
    """

    perm: np.ndarray
    parent: np.ndarray
    col_counts: np.ndarray
    subtree_size: np.ndarray
    fill_nnz: int

    @property
    def n(self) -> int:
        """Matrix dimension (number of columns)."""
        return self.parent.shape[0]

    @property
    def cholesky_flops(self) -> float:
        """Σ cnt² — flops of a Cholesky on this pattern (LU ≈ 2×)."""
        c = self.col_counts.astype(float)
        return float(np.sum(c * c))


def _symbolic_cholesky(S: sparse.csr_matrix, perm: np.ndarray) -> SymbolicResult:
    """:func:`symbolic_cholesky` on an already symmetrized pattern."""
    n = S.shape[0]
    perm = np.asarray(perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(n)):
        raise ValueError("perm is not a permutation")
    # P is symmetric, so its row j is the pattern of its column j
    pattern = _row_bitsets(S[perm][:, perm].tocsr())
    merged = [0] * n  # union of the children's patterns, per column
    parent = [-1] * n
    counts = [1] * n
    for j in range(n):
        # rows below the diagonal, shifted so that bit k is row j + 1 + k
        below = (pattern[j] | merged[j]) >> (j + 1)
        merged[j] = 0
        if below:
            counts[j] += below.bit_count()
            p = j + (below & -below).bit_length()
            parent[j] = p
            merged[p] |= below << (j + 1)
    subtree = [1] * n
    for j, p in enumerate(parent):
        if p >= 0:
            subtree[p] += subtree[j]
    return SymbolicResult(
        perm=perm,
        parent=np.asarray(parent, dtype=np.int64),
        col_counts=np.asarray(counts, dtype=np.int64),
        subtree_size=np.asarray(subtree, dtype=np.int64),
        fill_nnz=sum(counts),
    )


def symbolic_cholesky(A: sparse.spmatrix, perm: np.ndarray) -> SymbolicResult:
    """Exact symbolic factorization of ``P (A+Aᵀ) Pᵀ``.

    Each column's pattern is its own below-diagonal rows ORed with the
    patterns its elimination-tree children merged into it; the parent is
    the lowest row below the diagonal (O(|L|) bit operations, one bitset
    per column).
    """
    return _symbolic_cholesky(_symmetrize(A), perm)


def analyze(A: sparse.spmatrix, colperm: str, seed: int = 0) -> SymbolicResult:
    """Order ``A`` by ``colperm`` and factor it symbolically.

    Equal to ``symbolic_cholesky(A, ordering(A, colperm, seed))``, with
    ``A + Aᵀ`` formed once.
    """
    S = _symmetrize(A)
    return _symbolic_cholesky(S, _ordering(S, colperm, seed))


@dataclasses.dataclass
class SupernodePartition:
    """Supernode partition of the factor columns.

    Attributes
    ----------
    starts:
        First column of each supernode (ascending).
    widths:
        Column count of each supernode.
    heights:
        Row count (first column's ``col_count``) of each supernode.
    relaxed_fill:
        Extra stored entries introduced by relaxed amalgamation.
    """

    starts: np.ndarray
    widths: np.ndarray
    heights: np.ndarray
    relaxed_fill: int

    @property
    def n_supernodes(self) -> int:
        """Number of supernodes in the partition."""
        return self.starts.shape[0]

    @property
    def mean_width(self) -> float:
        """Average supernode width (drives BLAS-3 efficiency)."""
        return float(self.widths.mean()) if self.widths.size else 0.0


def supernodes(sym: SymbolicResult, nsup: int, nrel: int) -> SupernodePartition:
    """Partition columns into supernodes.

    A column joins the current supernode when it is the etree parent of its
    predecessor with nested structure (``cnt[j] = cnt[j−1] − 1``) — the
    *fundamental* supernode condition — or, relaxed, when its subtree is
    small (``subtree_size ≤ nrel``), at the price of extra stored zeros.
    Supernodes never exceed ``nsup`` columns.

    Parameters
    ----------
    sym:
        Symbolic factorization result.
    nsup:
        Maximum supernode size (SuperLU's NSUP).
    nrel:
        Relaxation parameter (SuperLU's NREL): subtrees of at most this many
        nodes are amalgamated.
    """
    n = sym.n
    nsup = max(1, int(nsup))
    nrel = max(0, int(nrel))
    # one pass over Python ints: indexing the arrays per column would box
    # a numpy scalar for every read
    parent = sym.parent.tolist()
    counts = sym.col_counts.tolist()
    subtree = sym.subtree_size.tolist()
    starts: List[int] = [0]
    relaxed_fill = 0
    width = 1
    for j in range(1, n):
        child = parent[j - 1] == j
        fundamental = child and counts[j] == counts[j - 1] - 1
        relaxed = child and subtree[j] <= nrel
        if width < nsup and (fundamental or relaxed):
            if relaxed and not fundamental:
                # padding the smaller column to the supernode's row structure
                relaxed_fill += counts[j - 1] - 1 - counts[j]
            width += 1
        else:
            starts.append(j)
            width = 1
    starts_arr = np.asarray(starts, dtype=np.int64)
    ends = np.append(starts_arr[1:], n)
    widths = ends - starts_arr
    heights = sym.col_counts[starts_arr]
    return SupernodePartition(
        starts=starts_arr, widths=widths, heights=heights, relaxed_fill=max(0, relaxed_fill)
    )

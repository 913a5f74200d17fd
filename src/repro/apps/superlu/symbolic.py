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

Everything here operates on patterns only; the numeric phase is priced by
:mod:`repro.apps.superlu.simulator`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee

__all__ = ["COLPERM_CHOICES", "ordering", "symbolic_cholesky", "supernodes", "SymbolicResult", "SupernodePartition"]

COLPERM_CHOICES = ("NATURAL", "RCM", "MMD_AT_PLUS_A", "METIS_AT_PLUS_A")


def _symmetrize(A: sparse.spmatrix) -> sparse.csr_matrix:
    """Pattern of ``A + Aᵀ`` without the diagonal, CSR of booleans."""
    A = sparse.csr_matrix(A, copy=False)
    S = (A + A.T).tocsr()
    S.setdiag(0)
    S.eliminate_zeros()
    S.data[:] = 1.0
    return S


def _minimum_degree(S: sparse.csr_matrix) -> np.ndarray:
    """Quotient-graph (approximate) minimum-degree ordering.

    Eliminated vertices become *elements* whose boundaries stand in for the
    cliques a naive implementation would materialize (the AMD idea of
    Amestoy, Davis & Duff).  The degree of a variable is approximated by
    ``|variable neighbours| + Σ |boundaries of adjacent elements|`` — an
    upper bound that is cheap to maintain.  A lazy min-heap with stale-entry
    skipping drives the selection.
    """
    import heapq

    n = S.shape[0]
    adj_var: List[set] = [
        set(S.indices[S.indptr[i] : S.indptr[i + 1]].tolist()) for i in range(n)
    ]
    adj_elem: List[set] = [set() for _ in range(n)]
    elem_bound: Dict[int, set] = {}
    eliminated = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)

    def exact_degree(v: int) -> int:
        s = set(adj_var[v])
        for e in adj_elem[v]:
            s |= elem_bound[e]
        s.discard(v)
        return len(s)

    heap = [(len(adj_var[v]), v) for v in range(n)]
    heapq.heapify(heap)
    for step in range(n):
        # pop by (possibly stale) key, verify with the exact external
        # degree, and re-queue when a better candidate is still waiting
        while True:
            key, best = heapq.heappop(heap)
            if eliminated[best]:
                continue
            d = exact_degree(best)
            if heap and d > heap[0][0]:
                heapq.heappush(heap, (d, best))
                continue
            break
        order[step] = best
        eliminated[best] = True
        # boundary of the new element: variable neighbours plus the
        # boundaries of absorbed elements
        boundary = {u for u in adj_var[best] if not eliminated[u]}
        for e in adj_elem[best]:
            boundary.update(u for u in elem_bound[e] if not eliminated[u])
            elem_bound.pop(e, None)
        boundary.discard(best)
        elem_bound[best] = boundary
        absorbed = adj_elem[best]
        for u in boundary:
            adj_var[u] -= boundary
            adj_var[u].discard(best)
            adj_elem[u] -= absorbed
            adj_elem[u].add(best)
            # lower bound on the new external degree; the pop loop verifies
            heapq.heappush(heap, (max(len(adj_var[u]), len(boundary) - 1), u))
        adj_var[best] = set()
        adj_elem[best] = set()
    return order


def _pseudo_peripheral(S: sparse.csr_matrix, nodes: np.ndarray, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """BFS level sets from a pseudo-peripheral node of the induced subgraph."""
    sub = S[nodes][:, nodes].tocsr()
    m = len(nodes)
    start = int(rng.integers(m))
    for _ in range(3):  # a few BFS sweeps push the start to the periphery
        level = np.full(m, -1, dtype=np.int64)
        level[start] = 0
        frontier = [start]
        order = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for u in sub.indices[sub.indptr[v] : sub.indptr[v + 1]]:
                    if level[u] < 0:
                        level[u] = level[v] + 1
                        nxt.append(int(u))
                        order.append(int(u))
            frontier = nxt
        # disconnected components: give them fresh levels past the deepest
        far = int(np.max(level))
        for v in range(m):
            if level[v] < 0:
                far += 1
                level[v] = far
        start = order[-1]
    return level, np.arange(m)


def _nested_dissection(S: sparse.csr_matrix, nodes: np.ndarray, rng: np.random.Generator, leaf: int = 32) -> List[int]:
    """Recursive level-set bisection; separators are ordered last."""
    if len(nodes) <= leaf:
        return nodes.tolist()
    level, _ = _pseudo_peripheral(S, nodes, rng)
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


def ordering(A: sparse.spmatrix, colperm: str, seed: int = 0) -> np.ndarray:
    """Fill-reducing permutation for the requested COLPERM option.

    Returns ``perm`` such that column ``perm[k]`` of ``A`` is eliminated at
    step ``k``.
    """
    S = _symmetrize(A)
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


@dataclasses.dataclass
class SymbolicResult:
    """Outcome of symbolic factorization under one ordering.

    Attributes
    ----------
    parent:
        Elimination-tree parent per column (−1 at roots).
    col_counts:
        ``|L(:, j)|`` including the diagonal, per column.
    subtree_size:
        Number of tree descendants (incl. self) per column.
    fill_nnz:
        Total ``|L|`` (lower triangle incl. diagonal).
    """

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


def symbolic_cholesky(A: sparse.spmatrix, perm: np.ndarray) -> SymbolicResult:
    """Exact symbolic factorization of ``P (A+Aᵀ) Pᵀ``.

    Merges each child's pattern into its elimination-tree parent
    (O(|L|) time and peak memory bounded by the active patterns).
    """
    S = _symmetrize(A)
    n = S.shape[0]
    perm = np.asarray(perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(n)):
        raise ValueError("perm is not a permutation")
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n)
    P = S[perm][:, perm].tocsc()

    parent = np.full(n, -1, dtype=np.int64)
    counts = np.ones(n, dtype=np.int64)
    children: Dict[int, List[np.ndarray]] = {}
    fill = 0
    for j in range(n):
        below = P.indices[P.indptr[j] : P.indptr[j + 1]]
        pat = below[below > j].astype(np.int64)
        for ch in children.pop(j, ()):  # merge child structures
            pat = np.union1d(pat, ch)
        pat = pat[pat > j]
        counts[j] = 1 + pat.shape[0]
        fill += int(counts[j])
        if pat.shape[0]:
            parent[j] = int(pat[0])
            children.setdefault(int(pat[0]), []).append(pat)
    subtree = np.ones(n, dtype=np.int64)
    for j in range(n):
        if parent[j] >= 0:
            subtree[parent[j]] += subtree[j]
    return SymbolicResult(parent=parent, col_counts=counts, subtree_size=subtree, fill_nnz=fill)


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
    starts: List[int] = [0]
    relaxed_fill = 0
    width = 1
    for j in range(1, n):
        fundamental = sym.parent[j - 1] == j and sym.col_counts[j] == sym.col_counts[j - 1] - 1
        relaxed = sym.subtree_size[j] <= nrel and sym.parent[j - 1] == j
        if width < nsup and (fundamental or relaxed):
            if relaxed and not fundamental:
                # padding the smaller column to the supernode's row structure
                relaxed_fill += int(sym.col_counts[j - 1] - 1 - sym.col_counts[j])
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

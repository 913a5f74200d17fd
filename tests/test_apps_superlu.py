"""Tests for the SuperLU_DIST substrate (matrices, symbolic, simulator)."""

import hashlib
import heapq

import numpy as np
import pytest
from scipy import sparse

from repro.apps.superlu import (
    COLPERM_CHOICES,
    PARSEC_STATS,
    SuperLUDIST,
    analyze,
    knn_matrix,
    ordering,
    parsec_matrix,
    supernodes,
    symbolic_cholesky,
)
from repro.apps.superlu.symbolic import _minimum_degree, _symmetrize
from repro.runtime import cori_haswell

SCALE = 0.02  # tiny matrices: fast tests, same code paths


class TestMatrices:
    def test_knn_symmetric_pattern(self):
        A = knn_matrix(100, 5, seed=0)
        assert (abs(A - A.T)).nnz == 0  # values symmetric too by construction

    def test_knn_diagonally_dominant(self):
        A = knn_matrix(80, 6, seed=1)
        d = A.diagonal()
        off = np.asarray(abs(A).sum(axis=1)).ravel() - np.abs(d)
        assert np.all(d > off - 1e-12)
        assert np.all(d > 0)

    def test_knn_nonsingular(self):
        A = knn_matrix(50, 4, seed=2)
        x = np.ones(50)
        from scipy.sparse.linalg import spsolve

        y = spsolve(A.tocsc(), x)
        assert np.allclose(A @ y, x, atol=1e-8)

    def test_parsec_names(self):
        assert set(PARSEC_STATS) == {
            "Si2", "SiH4", "SiNa", "Na5", "benzene", "Si10H16", "Si5H12", "SiO",
        }
        with pytest.raises(KeyError):
            parsec_matrix("NotAMatrix")

    def test_parsec_relative_sizes_preserved(self):
        a = parsec_matrix("Si2", scale=SCALE)
        b = parsec_matrix("SiO", scale=SCALE)
        assert b.shape[0] > a.shape[0]

    def test_parsec_cached(self):
        assert parsec_matrix("Si2", scale=SCALE) is parsec_matrix("Si2", scale=SCALE)

    def test_parsec_cache_keyed_on_seed(self, monkeypatch):
        from repro.apps.superlu import matrices

        monkeypatch.setattr(matrices, "_CACHE", {})
        alone = parsec_matrix("Si2", scale=0.05, seed=7)
        monkeypatch.setattr(matrices, "_CACHE", {})
        first = parsec_matrix("Si2", scale=0.05, seed=0)
        after = parsec_matrix("Si2", scale=0.05, seed=7)
        assert (after != first).nnz > 0
        assert (after != alone).nnz == 0

    def test_knn_validation(self):
        with pytest.raises(ValueError):
            knn_matrix(1, 3)


class TestOrdering:
    @pytest.fixture(scope="class")
    def A(self):
        return knn_matrix(150, 6, seed=3)

    @pytest.mark.parametrize("colperm", COLPERM_CHOICES)
    def test_valid_permutation(self, A, colperm):
        p = ordering(A, colperm)
        assert sorted(p.tolist()) == list(range(A.shape[0]))

    def test_unknown_colperm(self, A):
        with pytest.raises(ValueError):
            ordering(A, "COLAMD-NOPE")

    def test_mmd_reduces_fill_vs_natural(self, A):
        fill_nat = symbolic_cholesky(A, ordering(A, "NATURAL")).fill_nnz
        fill_mmd = symbolic_cholesky(A, ordering(A, "MMD_AT_PLUS_A")).fill_nnz
        assert fill_mmd < fill_nat

    def test_nd_reduces_fill_vs_natural(self, A):
        fill_nat = symbolic_cholesky(A, ordering(A, "NATURAL")).fill_nnz
        fill_nd = symbolic_cholesky(A, ordering(A, "METIS_AT_PLUS_A")).fill_nnz
        assert fill_nd < fill_nat


class TestSymbolic:
    def test_exact_fill_small_case(self):
        """Arrow matrix: natural order fills the dense arrow row only."""
        n = 6
        A = sparse.lil_matrix((n, n))
        A.setdiag(4.0)
        for i in range(1, n):
            A[0, i] = A[i, 0] = -1.0
        sym = symbolic_cholesky(sparse.csc_matrix(A), np.arange(n))
        # eliminating column 0 connects all others: L is completely dense
        assert sym.fill_nnz == n * (n + 1) // 2
        # reversed (arrow last) has no fill at all: |L| = nnz pattern
        perm = np.array([1, 2, 3, 4, 5, 0])
        sym2 = symbolic_cholesky(sparse.csc_matrix(A), perm)
        assert sym2.fill_nnz == 2 * n - 1

    def test_etree_parents_increase(self):
        A = knn_matrix(60, 4, seed=4)
        sym = symbolic_cholesky(A, np.arange(60))
        ok = (sym.parent == -1) | (sym.parent > np.arange(60))
        assert np.all(ok)

    def test_col_counts_bounds(self):
        A = knn_matrix(60, 4, seed=5)
        sym = symbolic_cholesky(A, np.arange(60))
        assert np.all(sym.col_counts >= 1)
        assert np.all(sym.col_counts <= 60 - np.arange(60))
        assert sym.fill_nnz == sym.col_counts.sum()

    def test_subtree_sizes(self):
        A = knn_matrix(60, 4, seed=6)
        sym = symbolic_cholesky(A, np.arange(60))
        roots = sym.parent == -1
        assert sym.subtree_size[roots].sum() == 60

    def test_invalid_perm(self):
        A = knn_matrix(10, 3, seed=0)
        with pytest.raises(ValueError):
            symbolic_cholesky(A, np.zeros(10, dtype=int))


class TestSupernodes:
    @pytest.fixture(scope="class")
    def sym(self):
        A = knn_matrix(200, 6, seed=7)
        return symbolic_cholesky(A, ordering(A, "MMD_AT_PLUS_A"))

    def test_partition_covers_all_columns(self, sym):
        part = supernodes(sym, nsup=32, nrel=8)
        assert part.widths.sum() == sym.n
        assert part.starts[0] == 0
        assert np.all(np.diff(part.starts) == part.widths[:-1])

    def test_nsup_caps_width(self, sym):
        part = supernodes(sym, nsup=16, nrel=64)
        assert part.widths.max() <= 16

    def test_relaxation_merges_more(self, sym):
        few = supernodes(sym, nsup=64, nrel=1).n_supernodes
        many = supernodes(sym, nsup=64, nrel=32).n_supernodes
        assert many <= few

    def test_relaxed_fill_nonnegative(self, sym):
        assert supernodes(sym, nsup=64, nrel=32).relaxed_fill >= 0

    def test_nsup_one_every_column_alone(self, sym):
        part = supernodes(sym, nsup=1, nrel=0)
        assert part.n_supernodes == sym.n


class TestSimulator:
    @pytest.fixture(scope="class")
    def app(self):
        return SuperLUDIST(
            machine=cori_haswell(8),
            matrices=["Si2", "SiNa"],
            objectives=("time", "memory"),
            scale=SCALE,
            seed=0,
        )

    def test_spaces(self, app):
        assert app.tuning_space().dimension == 6  # β = 6 per Table 2
        assert app.task_space().dimension == 1

    def test_objectives_shape(self, app):
        y = app.objective({"matrix": "Si2"}, app.default_config({"matrix": "Si2"}))
        assert y.shape == (2,)
        assert y[0] > 0 and y[1] > 0

    def test_time_only_mode(self):
        app = SuperLUDIST(matrices=["Si2"], objectives=("time",), scale=SCALE)
        y = app.objective({"matrix": "Si2"}, app.default_config({"matrix": "Si2"}))
        assert np.isscalar(y)

    def test_invalid_objectives(self):
        with pytest.raises(ValueError):
            SuperLUDIST(objectives=("runtime",))
        with pytest.raises(ValueError):
            SuperLUDIST(matrices=["NotReal"])

    def test_colperm_changes_both_objectives(self, app):
        base = app.default_config({"matrix": "SiNa"})
        t = {"matrix": "SiNa"}
        y_nat = app.objective(t, {**base, "COLPERM": "NATURAL"})
        y_mmd = app.objective(t, {**base, "COLPERM": "MMD_AT_PLUS_A"})
        assert y_mmd[1] < y_nat[1]  # less fill => less memory

    def test_lookahead_tradeoff(self, app):
        """More look-ahead: less stall time, more buffer memory."""
        base = app.default_config({"matrix": "SiNa"})
        t = {"matrix": "SiNa"}
        lo = app._factorization(t, {**base, "LOOK": 1})
        hi = app._factorization(t, {**base, "LOOK": 20})
        assert hi[0] < lo[0]
        assert hi[1] > lo[1]

    def test_nsup_memory_tradeoff(self, app):
        """Tab. 5 structure: small NSUP saves memory vs big NSUP."""
        base = app.default_config({"matrix": "SiNa"})
        t = {"matrix": "SiNa"}
        small = app._factorization(t, {**base, "NSUP": 16})
        big = app._factorization(t, {**base, "NSUP": 512})
        assert small[1] < big[1]

    def test_symbolic_cached(self, app):
        t = {"matrix": "Si2"}
        cfg = app.default_config(t)
        app.objective(t, cfg)
        n_before = len(app._symbolic_cache)
        app.objective(t, {**cfg, "NSUP": 64})  # same COLPERM: cache hit
        assert len(app._symbolic_cache) == n_before

    def test_evaluate_default(self, app):
        time_s, mem_b = app.evaluate_default("Si2")
        assert time_s > 0 and mem_b > 0


def _minimum_degree_reference(S):
    """The set-based minimum-degree ordering: the oracle for ``_minimum_degree``.

    Same quotient graph, lazy heap and pop rule, with Python sets for the
    adjacency, element boundaries and the exact-degree unions.
    """
    n = S.shape[0]
    adj_var = [set(S.indices[S.indptr[i] : S.indptr[i + 1]].tolist()) for i in range(n)]
    adj_elem = [set() for _ in range(n)]
    elem_bound = {}
    eliminated = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)

    def exact_degree(v):
        s = set(adj_var[v])
        for e in adj_elem[v]:
            s |= elem_bound[e]
        s.discard(v)
        return len(s)

    heap = [(len(adj_var[v]), v) for v in range(n)]
    heapq.heapify(heap)
    for step in range(n):
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
            heapq.heappush(heap, (max(len(adj_var[u]), len(boundary) - 1), u))
        adj_var[best] = set()
        adj_elem[best] = set()
    return order


def _dense_elimination(A, perm):
    """(parent, col_counts) by eliminating the dense boolean ``P (A+Aᵀ) Pᵀ``."""
    B = np.asarray(sparse.csr_matrix(A).todense() != 0)
    B = (B | B.T)[np.ix_(perm, perm)]
    n = B.shape[0]
    parent = np.full(n, -1, dtype=np.int64)
    counts = np.ones(n, dtype=np.int64)
    for j in range(n):
        rows = j + 1 + np.flatnonzero(B[j + 1 :, j])
        B[np.ix_(rows, rows)] = True  # eliminating j connects its neighbours
        counts[j] += rows.size
        if rows.size:
            parent[j] = rows[0]
    return parent, counts


def _random_pattern(n, density, seed, blocks=1):
    """Nonsymmetric random pattern with positive values, ``blocks`` components at most."""
    rng = np.random.default_rng(seed)
    sizes = np.diff(np.linspace(0, n, blocks + 1).astype(int))
    parts = [
        sparse.random(m, m, density=density, random_state=rng, data_rvs=lambda k: 1.0 + rng.random(k))
        for m in sizes
    ]
    return (sparse.block_diag(parts) + sparse.identity(n)).tocsc()


RANDOM_PATTERNS = [(2, 0.5, 1)] + [
    (n, density, blocks)
    for n in (2, 7, 19, 40)
    for density in (0.05, 0.2)
    for blocks in (1, 3)
    if blocks <= n
]


class TestSymbolicAgainstOracles:
    """The bitset symbolic phase against a dense elimination and the set-based ordering."""

    @pytest.mark.parametrize("n,density,blocks", RANDOM_PATTERNS)
    @pytest.mark.parametrize("seed", range(4))
    def test_symbolic_cholesky_matches_dense_elimination(self, n, density, blocks, seed):
        A = _random_pattern(n, density, seed, blocks)
        for perm in (np.arange(n), np.random.default_rng(seed).permutation(n)):
            sym = symbolic_cholesky(A, perm)
            parent, counts = _dense_elimination(A, perm)
            assert np.array_equal(sym.parent, parent)
            assert np.array_equal(sym.col_counts, counts)
            assert sym.fill_nnz == int(counts.sum())
            subtree = np.ones(n, dtype=np.int64)
            for j in range(n):
                if parent[j] >= 0:
                    subtree[parent[j]] += subtree[j]
            assert np.array_equal(sym.subtree_size, subtree)

    @pytest.mark.parametrize("n,density,blocks", RANDOM_PATTERNS)
    @pytest.mark.parametrize("seed", range(4))
    def test_minimum_degree_matches_set_based_reference(self, n, density, blocks, seed):
        S = _symmetrize(_random_pattern(n, density, seed, blocks))
        assert np.array_equal(_minimum_degree(S), _minimum_degree_reference(S))

    @pytest.mark.parametrize("k", [2, 6, 12])
    def test_minimum_degree_matches_reference_on_knn(self, k):
        S = _symmetrize(knn_matrix(300, k, seed=k))
        assert np.array_equal(_minimum_degree(S), _minimum_degree_reference(S))


def _symbolic_digest(perm, sym):
    h = hashlib.sha256()
    for a in (perm, sym.parent, sym.col_counts, sym.subtree_size):
        h.update(np.asarray(a, dtype=np.int64).tobytes())
    h.update(str(int(sym.fill_nnz)).encode())
    return h.hexdigest()[:16]


#: sha256 prefix of (perm, parent, col_counts, subtree_size, fill_nnz) per
#: matrix and COLPERM: every PARSEC matrix at scale 0.05, seed 0, and the
#: fusion surrogates' plane matrix (knn_matrix(600, 9, seed=11)).  Every
#: SuperLU and fusion record depends on these; a symbolic-phase change that
#: claims to keep behaviour must keep them.
SYMBOLIC_PINS = {
    'Si2': {
        'NATURAL': '0595de8c476f2cd4',
        'RCM': '96befbe912eb6540',
        'MMD_AT_PLUS_A': '28b030eddb0afcb3',
        'METIS_AT_PLUS_A': '49935d003a51dbae',
    },
    'SiH4': {
        'NATURAL': '5d19199e56d56c27',
        'RCM': 'ff18d8c21c091981',
        'MMD_AT_PLUS_A': '27f04b925ae4fdd3',
        'METIS_AT_PLUS_A': '53f738f264b4b6c1',
    },
    'SiNa': {
        'NATURAL': 'f54ba09d6297082b',
        'RCM': 'fda8d3fd16e65a44',
        'MMD_AT_PLUS_A': '3c4a6139c735f50e',
        'METIS_AT_PLUS_A': '37f0ec2845f907a7',
    },
    'Na5': {
        'NATURAL': 'f614af83223ccba8',
        'RCM': '95bc4ac02af8b447',
        'MMD_AT_PLUS_A': 'e91216fa5a604469',
        'METIS_AT_PLUS_A': '3d64fedad0a49340',
    },
    'benzene': {
        'NATURAL': 'c46ea1a1efcedc89',
        'RCM': 'ceacba9418bf40c3',
        'MMD_AT_PLUS_A': '50069758508b3ba5',
        'METIS_AT_PLUS_A': '47c676ba27b05e57',
    },
    'Si10H16': {
        'NATURAL': 'c53cdd227626b506',
        'RCM': '1f83e5c977e3146e',
        'MMD_AT_PLUS_A': 'dd26a87427194c5c',
        'METIS_AT_PLUS_A': 'b2886b6ea30263c5',
    },
    'Si5H12': {
        'NATURAL': 'd74a7a6b39d31503',
        'RCM': 'e744bd8c8aa6b01d',
        'MMD_AT_PLUS_A': '52b05881621c0d07',
        'METIS_AT_PLUS_A': 'be8266fecc158ff8',
    },
    'SiO': {
        'NATURAL': 'da12e072276f419c',
        'RCM': '3eae1b762a625dc2',
        'MMD_AT_PLUS_A': 'de117e67e8ebcaed',
        'METIS_AT_PLUS_A': '7d94b5d047cee51f',
    },
    'fusion': {
        'NATURAL': '200c03e7c0a420f5',
        'RCM': '08ceae1fadc084e0',
        'MMD_AT_PLUS_A': 'd10440b4a538a986',
        'METIS_AT_PLUS_A': '5377a98925b4471f',
    },
}


class TestSymbolicPins:
    @pytest.mark.parametrize("matrix", sorted(SYMBOLIC_PINS))
    def test_symbolic_outputs_pinned(self, matrix):
        if matrix == "fusion":
            A = knn_matrix(600, 9, seed=11)
        else:
            A = parsec_matrix(matrix, scale=0.05, seed=0)
        got = {}
        for colperm in COLPERM_CHOICES:
            sym = analyze(A, colperm, seed=0)  # the simulators' entry point
            got[colperm] = _symbolic_digest(sym.perm, sym)
            perm = ordering(A, colperm, seed=0)
            assert _symbolic_digest(perm, symbolic_cholesky(A, perm)) == got[colperm]
        assert got == SYMBOLIC_PINS[matrix]


if __name__ == "__main__":  # print the pins
    for name in list(PARSEC_STATS) + ["fusion"]:
        A = knn_matrix(600, 9, seed=11) if name == "fusion" else parsec_matrix(name, scale=0.05, seed=0)
        row = {}
        for colperm in COLPERM_CHOICES:
            sym = analyze(A, colperm, seed=0)
            row[colperm] = _symbolic_digest(sym.perm, sym)
        print(f"    {name!r}: {row!r},")

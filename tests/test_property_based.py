"""Property-based tests (hypothesis) on the core data structures/invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import Categorical, Integer, Real, Space
from repro.core.kernels import gaussian_kernel, pairwise_sq_diffs
from repro.core.metrics import pareto_mask, stability, win_task
from repro.core.sampling import lhs_unit
from repro.core.search.nsga2 import crowding_distance, fast_non_dominated_sort
from repro.core.search.penalty import local_penalty, penalize_ei

# -- strategies ----------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def real_params(draw):
    lb = draw(st.floats(min_value=-1e6, max_value=1e6 - 1, allow_nan=False))
    width = draw(st.floats(min_value=1e-3, max_value=1e6))
    return Real("x", lb, lb + width)


@st.composite
def integer_params(draw):
    lb = draw(st.integers(min_value=-1000, max_value=1000))
    ub = lb + draw(st.integers(min_value=0, max_value=2000))
    return Integer("k", lb, ub)


@st.composite
def log_params(draw):
    lb = draw(st.integers(min_value=1, max_value=500))
    ub = lb + draw(st.integers(min_value=0, max_value=5000))
    if draw(st.booleans()):
        return Integer("k", lb, ub, transform="log")
    return Real("x", lb * 1e-3, ub * 1e-3 + 1e-3, transform="log")


@st.composite
def categorical_params(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    return Categorical("c", [f"cat{i}" for i in range(n)])


# -- parameter invariants ----------------------------------------------------


class TestParameterProperties:
    @given(real_params(), unit)
    @settings(max_examples=100, deadline=None)
    def test_real_denorm_norm_identity(self, p, u):
        """normalize(denormalize(u)) == u for reals (up to float error)."""
        assert abs(p.normalize(p.denormalize(u)) - u) < 1e-6

    @given(integer_params(), unit)
    @settings(max_examples=100, deadline=None)
    def test_integer_denormalize_in_bounds(self, p, u):
        v = p.denormalize(u)
        assert p.lb <= v <= p.ub

    @given(integer_params(), unit)
    @settings(max_examples=100, deadline=None)
    def test_integer_roundtrip_fixed_point(self, p, u):
        """denormalize∘normalize is a fixed point on native values."""
        v = p.denormalize(u)
        assert p.denormalize(p.normalize(v)) == v

    @given(categorical_params(), unit)
    @settings(max_examples=100, deadline=None)
    def test_categorical_roundtrip_fixed_point(self, p, u):
        v = p.denormalize(u)
        assert p.denormalize(p.normalize(v)) == v

    @given(real_params(), unit, unit)
    @settings(max_examples=50, deadline=None)
    def test_real_denormalize_monotone(self, p, u1, u2):
        lo, hi = min(u1, u2), max(u1, u2)
        assert p.denormalize(lo) <= p.denormalize(hi)

    @given(
        st.one_of(real_params(), integer_params(), categorical_params(), log_params()),
        st.lists(st.floats(min_value=-0.5, max_value=1.5), min_size=1, max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_denormalize_array_equals_scalar(self, p, us):
        """The column-wise map equals the scalar one, element by element."""
        got = p.denormalize_array(np.array(us)).tolist()
        want = [p.denormalize(u) for u in us]
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]


# -- space invariants ---------------------------------------------------------


class TestSpaceProperties:
    @given(st.lists(unit, min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_space_roundtrip_idempotent(self, u):
        sp = Space([Real("x", -5, 5), Integer("k", 0, 9), Categorical("c", ["a", "b", "c"])])
        cfg = sp.denormalize(np.array(u))
        cfg2 = sp.round_trip(cfg)
        assert cfg == cfg2


# -- sampler invariants ----------------------------------------------------


class TestSamplingProperties:
    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_lhs_stratification_always_holds(self, n, d, seed):
        pts = lhs_unit(n, d, np.random.default_rng(seed))
        assert pts.shape == (n, d)
        for j in range(d):
            strata = np.floor(pts[:, j] * n).astype(int)
            strata = np.minimum(strata, n - 1)
            assert sorted(strata.tolist()) == list(range(n))


# -- kernel invariants -----------------------------------------------------


class TestKernelProperties:
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_kernel_psd_and_bounded(self, n, d, seed):
        rng = np.random.default_rng(seed)
        X = rng.random((n, d))
        ls = rng.uniform(0.05, 2.0, d)
        K = gaussian_kernel(pairwise_sq_diffs(X), ls)
        assert np.all(K <= 1.0 + 1e-12) and np.all(K > 0)
        assert np.allclose(K, K.T)
        w = np.linalg.eigvalsh(K + 1e-8 * np.eye(n))
        assert w.min() > -1e-6


# -- metric invariants -----------------------------------------------------


class TestMetricProperties:
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_pareto_mask_nonempty_and_mutually_nondominating(self, n, m, seed):
        rng = np.random.default_rng(seed)
        Y = rng.random((n, m))
        mask = pareto_mask(Y)
        assert mask.any()
        front = Y[mask]
        # no front point strictly dominates another
        le = np.all(front[:, None, :] <= front[None, :, :], axis=2)
        lt = np.any(front[:, None, :] < front[None, :, :], axis=2)
        dom = le & lt
        assert not dom.any()

    @given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_stability_at_least_one(self, traj):
        """Stability normalized by the trajectory's own best is >= 1."""
        y_star = min(traj)
        assert stability(traj, y_star) >= 1.0 - 1e-12

    @given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=20),
           st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_win_task_antisymmetry(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        assert win_task(a, b) + win_task(b, a) <= 1.0 + 1e-12


# -- NSGA-II machinery ----------------------------------------------------


class TestSortingProperties:
    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_fronts_partition_population(self, n, m, seed):
        rng = np.random.default_rng(seed)
        F = rng.random((n, m))
        fronts = fast_non_dominated_sort(F)
        allidx = np.concatenate(fronts)
        assert sorted(allidx.tolist()) == list(range(n))

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_earlier_fronts_not_dominated_by_later(self, n, seed):
        rng = np.random.default_rng(seed)
        F = rng.random((n, 2))
        fronts = fast_non_dominated_sort(F)
        for r in range(len(fronts) - 1):
            for i in fronts[r + 1]:
                dominated_by_front = any(
                    np.all(F[j] <= F[i]) and np.any(F[j] < F[i]) for j in fronts[r]
                )
                assert dominated_by_front

    @given(st.integers(min_value=1, max_value=25), st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_fronts_match_pairwise_definition(self, n, m, seed):
        """Fronts equal brute-force peeling by the pairwise definition
        (<= everywhere, < somewhere), with ties, inf and NaN entries."""
        rng = np.random.default_rng(seed)
        F = rng.integers(0, 4, (n, m)).astype(float)  # a small grid: many ties
        F[rng.random((n, m)) < 0.1] = np.inf
        F[rng.random((n, m)) < 0.05] = np.nan

        def dominates(i, j):
            pairs = list(zip(F[i].tolist(), F[j].tolist()))
            return all(a <= b for a, b in pairs) and any(a < b for a, b in pairs)

        remaining, expected = list(range(n)), []
        while remaining:
            front = [i for i in remaining if not any(dominates(j, i) for j in remaining)]
            assert front  # dominance has no cycles, even with NaN
            expected.append(front)
            remaining = [i for i in remaining if i not in front]
        assert [f.tolist() for f in fast_non_dominated_sort(F)] == expected

    @given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_crowding_nonnegative(self, n, seed):
        rng = np.random.default_rng(seed)
        d = crowding_distance(rng.random((n, 2)))
        assert np.all(d >= 0)


# -- pending-point penalties (async search) -------------------------------


@st.composite
def penalty_cases(draw):
    """Candidates, pending points, and a radius — all on the unit cube."""
    dim = draw(st.integers(min_value=1, max_value=4))
    point = st.lists(unit, min_size=dim, max_size=dim)
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=1, max_value=5))
    X = np.array(draw(st.lists(point, min_size=n, max_size=n)))
    P = np.array(draw(st.lists(point, min_size=m, max_size=m)))
    r = draw(st.floats(min_value=0.01, max_value=0.9))
    return X, P, r


def _dist(X, P):
    return np.sqrt(np.sum((X[:, None, :] - P[None, :, :]) ** 2, axis=2))


class TestPendingPenaltyProperties:
    """The four contract properties of the local pending-point penalty
    (module docstring of :mod:`repro.core.search.penalty`)."""

    @given(penalty_cases())
    @settings(max_examples=100, deadline=None)
    def test_penalized_never_exceeds_unpenalized(self, case):
        X, P, r = case
        base = np.ones(X.shape[0]) * 2.5  # a positive acquisition value
        assert np.all(penalize_ei(base, X, P, r) <= base + 1e-15)

    @given(penalty_cases())
    @settings(max_examples=100, deadline=None)
    def test_strictly_lower_within_radius(self, case):
        X, P, r = case
        d = _dist(X, P).min(axis=1)
        inside = d <= 0.99 * r  # strictly inside, away from float ties at r
        vals = penalize_ei(np.ones(X.shape[0]), X, P, r)
        assert np.all(vals[inside] < 1.0)

    @given(penalty_cases())
    @settings(max_examples=100, deadline=None)
    def test_identical_beyond_radius(self, case):
        X, P, r = case
        d = _dist(X, P).min(axis=1)
        outside = d >= 1.01 * r  # clearly beyond, away from float ties at r
        base = np.full(X.shape[0], 3.7)
        vals = penalize_ei(base, X, P, r)
        assert np.array_equal(vals[outside], base[outside])

    @given(penalty_cases(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_pending_order_invariance_is_bit_exact(self, case, seed):
        X, P, r = case
        perm = np.random.default_rng(seed).permutation(P.shape[0])
        assert np.array_equal(
            local_penalty(X, P, r), local_penalty(X, P[perm], r)
        )

    @given(penalty_cases())
    @settings(max_examples=50, deadline=None)
    def test_infeasible_sentinels_pass_through(self, case):
        X, P, r = case
        # -inf (infeasible) must survive unscaled: -inf * 0 would be nan
        vals = penalize_ei(np.full(X.shape[0], -np.inf), X, P, r)
        assert np.all(np.isneginf(vals))

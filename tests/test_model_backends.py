"""Tests for the surrogate-backend subsystem (repro.core.model).

Covers the backend registry and auto-selection policy, inducing-point
selection, the sparse Nyström/SoR LCM against the exact LCM, the explicit
per-task GP backend, Options validation for the new knobs, driver-level
integration (forced and auto-escalating campaigns), and the backend
partitioning of the surrogate cache.
"""

import numpy as np
import pytest

from repro.core import (
    GPTune,
    Integer,
    LCM,
    Options,
    PerTaskGP,
    Real,
    Space,
    SparseLCM,
    TuningProblem,
    available_backends,
    get_backend,
    register_backend,
    select_backend,
)
from repro.core.model.inducing import max_min_indices, select_inducing
from repro.core.model.sparse_lcm import jitter_ceiling
from repro.core.posterior import chol_escalate
from repro.core.model.registry import BackendSpec
from repro.service.modelcache import CachedFit, SurrogateCache
from tests.posterior_reference import sparse_posterior


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

@pytest.fixture
def sparse_data(rng):
    """Three-task smooth data, large enough for a meaningful inducing set."""
    n_per = 40
    X = rng.random((3 * n_per, 2))
    tidx = np.repeat(np.arange(3), n_per)
    y = (
        np.sin(3.0 * X[:, 0])
        + 0.5 * np.cos(2.0 * X[:, 1])
        + 0.3 * tidx
        + 0.02 * rng.normal(size=3 * n_per)
    )
    return X, y, tidx


def _toy_problem():
    def objective(task, config):
        x = float(config["x"])
        mu = 0.2 + 0.06 * float(task["t"])
        return 1.0 + (x - mu) ** 2

    return TuningProblem(
        Space([Integer("t", 0, 8)]), Space([Real("x", 0.0, 1.0)]), objective
    )


def _fast_options(**kw):
    base = dict(seed=3, n_start=1, pso_iters=5, ei_candidates=8, lbfgs_maxiter=30)
    base.update(kw)
    return Options(**base)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_builtin_backends(self):
        names = available_backends()
        assert "exact-lcm" in names
        assert "sparse-lcm" in names
        assert "gp" in names

    def test_get_backend_spec(self):
        spec = get_backend("sparse-lcm")
        assert spec.name == "sparse-lcm"
        assert spec.supports_theta
        assert callable(spec.factory)
        assert not get_backend("gp").supports_theta

    def test_unknown_backend_lists_known(self):
        with pytest.raises(ValueError, match="exact-lcm"):
            get_backend("nope")

    def test_register_rejects_auto_and_duplicates(self):
        spec = BackendSpec(
            name="auto", factory=lambda *a: None, supports_theta=False,
            description="reserved",
        )
        with pytest.raises(ValueError):
            register_backend(spec)
        dup = BackendSpec(
            name="gp", factory=lambda *a: None, supports_theta=False,
            description="dup",
        )
        with pytest.raises(ValueError):
            register_backend(dup)

    def test_register_replace_roundtrip(self):
        original = get_backend("gp")
        marker = BackendSpec(
            name="gp", factory=lambda *a: None, supports_theta=False,
            description="replaced for test",
        )
        register_backend(marker, replace=True)
        try:
            assert get_backend("gp").description == "replaced for test"
        finally:
            register_backend(original, replace=True)
        assert get_backend("gp") is original

    def test_select_backend_policy(self):
        # explicit preference always wins
        assert select_backend("exact-lcm", 10_000, 512) == "exact-lcm"
        assert select_backend("sparse-lcm", 4, 512) == "sparse-lcm"
        assert select_backend("gp", 10_000, 512) == "gp"
        # auto escalates strictly past the threshold
        assert select_backend("auto", 512, 512) == "exact-lcm"
        assert select_backend("auto", 513, 512) == "sparse-lcm"
        assert select_backend("auto", 0, 512) == "exact-lcm"

    def test_select_backend_unknown_preference(self):
        with pytest.raises(ValueError):
            select_backend("nope", 100, 512)


# ---------------------------------------------------------------------------
# inducing-point selection
# ---------------------------------------------------------------------------

class TestInducing:
    def test_max_min_deterministic_and_sorted(self, rng):
        X = rng.random((50, 3))
        idx1 = max_min_indices(X, 10)
        idx2 = max_min_indices(X, 10)
        assert np.array_equal(idx1, idx2)
        assert np.array_equal(idx1, np.sort(idx1))
        assert len(set(idx1.tolist())) == 10

    def test_max_min_spreads_points(self, rng):
        """Greedy farthest-point beats a random subset on min pairwise gap."""
        X = rng.random((200, 2))
        idx = max_min_indices(X, 12)
        sel = X[idx]
        d = np.linalg.norm(sel[:, None] - sel[None], axis=-1)
        np.fill_diagonal(d, np.inf)
        rand = X[rng.choice(200, size=12, replace=False)]
        dr = np.linalg.norm(rand[:, None] - rand[None], axis=-1)
        np.fill_diagonal(dr, np.inf)
        assert d.min() >= dr.min()

    def test_max_min_m_clamps_to_n(self, rng):
        X = rng.random((5, 2))
        assert np.array_equal(max_min_indices(X, 99), np.arange(5))

    def test_select_inducing_covers_every_task(self, rng):
        X = rng.random((90, 2))
        tidx = np.repeat(np.arange(3), 30)
        idx = select_inducing(X, tidx, 12)
        assert len(idx) == 12
        assert set(np.unique(tidx[idx])) == {0, 1, 2}
        assert np.array_equal(idx, np.sort(idx))

    def test_select_inducing_proportional_quotas(self, rng):
        """An 80/10/10 split keeps roughly proportional inducing shares."""
        X = rng.random((100, 2))
        tidx = np.array([0] * 80 + [1] * 10 + [2] * 10)
        idx = select_inducing(X, tidx, 20)
        counts = np.bincount(tidx[idx], minlength=3)
        assert counts[0] >= 14  # ~16 expected
        assert counts[1] >= 1 and counts[2] >= 1

    def test_select_inducing_deterministic(self, rng):
        X = rng.random((60, 2))
        tidx = np.repeat(np.arange(2), 30)
        assert np.array_equal(
            select_inducing(X, tidx, 16), select_inducing(X, tidx, 16)
        )


# ---------------------------------------------------------------------------
# SparseLCM numerics
# ---------------------------------------------------------------------------

class TestSparseLCM:
    def test_validation(self):
        with pytest.raises(ValueError):
            SparseLCM(n_tasks=2, n_dims=1, n_inducing=1)
        m = SparseLCM(2, 1, n_inducing=8, seed=0)
        with pytest.raises(RuntimeError):
            m.predict(0, np.zeros((1, 1)))
        X = np.random.default_rng(0).random((6, 1))
        with pytest.raises(ValueError):
            m.fit(X, np.zeros(5), np.zeros(6, dtype=int))
        with pytest.raises(ValueError):
            m.fit(X, np.zeros(6), np.full(6, 7))

    @pytest.mark.parametrize(
        "kwargs,named", [({"n_start": 0}, "n_start=0"), ({"maxiter": 0}, "maxiter=0")],
    )
    def test_restart_settings_rejected_up_front(self, kwargs, named):
        with pytest.raises(ValueError, match=named):
            SparseLCM(2, 1, n_inducing=8, **kwargs)

    def test_agrees_with_exact_on_smooth_data(self, sparse_data):
        """With a generous inducing set the SoR posterior tracks the exact one."""
        X, y, tidx = sparse_data
        exact = LCM(3, 2, seed=0, n_start=1).fit(X, y, tidx)
        sp = SparseLCM(3, 2, n_inducing=60, seed=0, n_start=1).fit(X, y, tidx)
        Xs = np.random.default_rng(7).random((25, 2))
        for t in range(3):
            me, _ = exact.predict(t, Xs)
            ms, vs = sp.predict(t, Xs)
            assert np.all(vs >= 0.0)
            rmse = float(np.sqrt(np.mean((me - ms) ** 2)))
            assert rmse < 0.1 * float(np.std(y))

    def test_collapses_to_exact_when_m_covers_n(self, rng):
        """M >= N makes Z = X, so SoR equals the exact posterior at equal θ.

        Agreement is limited by the jitter added to K_mm amplified through
        its condition number, so the tolerance is loose-ish (2e-4) rather
        than machine precision.
        """
        n_per = 12
        X = rng.random((3 * n_per, 2))
        tidx = np.repeat(np.arange(3), n_per)
        y = (
            np.sin(3 * X[:, 0]) + 0.5 * np.cos(2 * X[:, 1]) + 0.3 * tidx
            + 0.05 * rng.normal(size=3 * n_per)
        )
        exact = LCM(3, 2, seed=0, n_start=1).fit(X, y, tidx)
        sp = SparseLCM(3, 2, n_inducing=80, seed=0, n_start=1)
        sp.fit(X, y, tidx, theta0=exact.theta)
        assert sp.Z.shape[0] == 3 * n_per
        # pin θ to the exact optimum so the comparison isolates the SoR
        # algebra from the (slightly different) subset re-optimization
        sp.theta = exact.theta.copy()
        sp._pred_cache, sp._batch_cache = {}, {}
        sp._assemble()
        Xs = rng.random((15, 2))
        for t in range(3):
            me, ve = exact.predict(t, Xs)
            ms, vs = sp.predict(t, Xs)
            assert np.allclose(me, ms, atol=2e-4)
            assert np.allclose(ve, vs, atol=2e-4)

    def test_predict_tasks_matches_predict(self, sparse_data):
        """predict_tasks ≡ the dense DTC reference to 1e-10, and predict is
        its one-task row bit for bit."""
        X, y, tidx = sparse_data
        sp = SparseLCM(3, 2, n_inducing=24, seed=0, n_start=1).fit(X, y, tidx)
        rng = np.random.default_rng(11)
        # shared 2-D block
        Xs = rng.random((12, 2))
        mu_b, var_b = sp.predict_tasks([0, 1, 2], Xs)
        for t in range(3):
            mu, var = sparse_posterior(sp, t, Xs)
            assert np.allclose(mu_b[t], mu, rtol=0, atol=1e-10)
            assert np.allclose(var_b[t], var, rtol=0, atol=1e-10)
            mu1, var1 = sp.predict(t, Xs)
            mu_t, var_t = sp.predict_tasks([t], Xs)
            assert np.array_equal(mu1, mu_t[0]) and np.array_equal(var1, var_t[0])
        # per-task 3-D block
        Xs3 = rng.random((3, 9, 2))
        mu_b3, var_b3 = sp.predict_tasks([0, 1, 2], Xs3)
        for t in range(3):
            mu, var = sparse_posterior(sp, t, Xs3[t])
            assert np.allclose(mu_b3[t], mu, rtol=0, atol=1e-10)
            assert np.allclose(var_b3[t], var, rtol=0, atol=1e-10)

    def test_extend_matches_fresh_assemble(self, sparse_data, rng):
        """The rank-M information update equals rebuilding from all data.

        Agreement is limited by the conditioning of A = Kmm + KnmᵀΛ⁻¹Knm
        (Λ⁻¹ is large when the fitted noise is small), so the tolerance is
        1e-5 on predictions rather than machine precision.
        """
        X, y, tidx = sparse_data
        n0 = 90
        sp = SparseLCM(3, 2, n_inducing=24, seed=0, n_start=1)
        sp.fit(X[:n0], y[:n0], tidx[:n0])
        sp.extend(X[n0:], y[n0:], tidx[n0:])

        fresh = SparseLCM(3, 2, n_inducing=24, seed=0, n_start=1)
        fresh.fit(X[:n0], y[:n0], tidx[:n0])
        fresh.X = X.copy()
        fresh.y = y.copy()
        fresh.task_index = tidx.copy()
        fresh._assemble()

        Xs = rng.random((15, 2))
        for t in range(3):
            m1, v1 = sp.predict(t, Xs)
            m2, v2 = fresh.predict(t, Xs)
            assert np.allclose(m1, m2, atol=1e-5)
            assert np.allclose(v1, v2, atol=1e-5)

    def test_extend_validation(self, sparse_data):
        X, y, tidx = sparse_data
        sp = SparseLCM(3, 2, n_inducing=16, seed=0, n_start=1)
        with pytest.raises(RuntimeError):
            sp.extend(X[:1], y[:1], tidx[:1])
        sp.fit(X, y, tidx)
        with pytest.raises(ValueError):
            sp.extend(X[:2], y[:1], tidx[:2])
        with pytest.raises(ValueError):
            sp.extend(X[:1], y[:1], [9])

    def test_warm_start_determinism(self, sparse_data):
        X, y, tidx = sparse_data
        a = SparseLCM(3, 2, n_inducing=20, seed=42, n_start=1).fit(X, y, tidx)
        b = SparseLCM(3, 2, n_inducing=20, seed=42, n_start=1).fit(X, y, tidx)
        assert np.array_equal(a.theta, b.theta)
        assert a.log_likelihood_ == b.log_likelihood_

    def test_task_correlation_shape(self, sparse_data):
        X, y, tidx = sparse_data
        sp = SparseLCM(3, 2, n_inducing=16, seed=0, n_start=1).fit(X, y, tidx)
        C = sp.task_correlation()
        assert C.shape == (3, 3)
        assert np.allclose(np.diag(C), 1.0)


class TestSparseJitterCeiling:
    """The sparse solver's ``chol_escalate`` ceiling scales with ``A``'s diagonal."""

    @staticmethod
    def _gram(scale, shift, m=40, rank=6):
        B = np.random.default_rng(0).normal(size=(m, rank))
        G = B @ B.T
        d = np.sqrt(np.diag(G))
        A = scale * G / np.outer(d, d)
        A[np.diag_indices(m)] -= shift
        return A

    def test_near_singular_gram_at_1e17_factorizes(self):
        # rank-deficient, diagonal 1e17, smallest eigenvalue about -2e3: the
        # shape of A that stopped an archive-sparse fit with LinAlgError
        A = self._gram(1e17, 1.8e3)
        assert np.linalg.eigvalsh(A).min() < -1e3
        want = A.copy()
        L, j = chol_escalate(A, 1e-8, jitter_ceiling(A))
        assert 1.0 < j <= 1e-6 * np.abs(np.diag(want)).max()
        want[np.diag_indices(want.shape[0])] += j
        assert np.allclose(L @ L.T, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_well_conditioned_matrix_gets_no_jitter(self):
        A = self._gram(1.0, -0.5)
        L, j = chol_escalate(A.copy(), 1e-8, jitter_ceiling(A))
        assert j == 0.0 and np.allclose(L @ L.T, A)

    def test_unit_scale_sequence_unchanged(self):
        # below 1.0 the tenfold sequence is the old one: smallest jitter > 0.3
        A = self._gram(1.0, 0.3)
        _, j = chol_escalate(A, 1e-8, jitter_ceiling(A))
        assert j == pytest.approx(1.0)

    def test_indefinite_unit_scale_matrix_still_raises(self):
        A = self._gram(1.0, 5.0)
        with pytest.raises(np.linalg.LinAlgError):
            chol_escalate(A, 1e-8, jitter_ceiling(A))


# ---------------------------------------------------------------------------
# PerTaskGP backend
# ---------------------------------------------------------------------------

class TestPerTaskGP:
    def test_fit_predict(self, sparse_data):
        X, y, tidx = sparse_data
        m = PerTaskGP(3, 2, seed=0, n_start=1).fit(X, y, tidx)
        assert m.theta is None
        assert np.isfinite(m.log_likelihood_)
        mu, var = m.predict(1, X[:5])
        assert mu.shape == (5,) and np.all(var >= 0)
        mu_b, var_b = m.predict_tasks([1], X[:5])
        assert np.array_equal(mu_b[0], mu) and np.array_equal(var_b[0], var)

    def test_deterministic(self, sparse_data):
        X, y, tidx = sparse_data
        a = PerTaskGP(3, 2, seed=9, n_start=1).fit(X, y, tidx)
        b = PerTaskGP(3, 2, seed=9, n_start=1).fit(X, y, tidx)
        mu_a, _ = a.predict(0, X[:6])
        mu_b, _ = b.predict(0, X[:6])
        assert np.array_equal(mu_a, mu_b)


class TestObservationChecks:
    """Every fit/extend entry point checks X's column count against n_dims."""

    @staticmethod
    def _call(backend, method, X, y, tidx):
        wide = np.hstack([X, X[:, :1]])  # 3 columns for a 2-dim model
        if backend == "gp":
            m = PerTaskGP(3, 2, seed=0, n_start=1)
        elif backend == "sparse-lcm":
            m = SparseLCM(3, 2, n_inducing=16, seed=0, n_start=1, maxiter=20)
        else:
            m = LCM(3, 2, seed=0, n_start=1, maxiter=20)
        if method == "fit":
            return m.fit(wide, y, tidx)
        if method == "refit_at":
            return m.refit_at(wide, y, tidx, m._initial_theta(y, 0))
        m.fit(X[:-6], y[:-6], tidx[:-6])
        return m.extend(wide[-6:], y[-6:], tidx[-6:])

    @pytest.mark.parametrize(
        "backend,method",
        [("exact-lcm", "fit"), ("exact-lcm", "refit_at"), ("exact-lcm", "extend"),
         ("sparse-lcm", "fit"), ("sparse-lcm", "extend"), ("gp", "fit")],
    )
    def test_wrong_column_count_names_both(self, sparse_data, backend, method):
        X, y, tidx = sparse_data
        with pytest.raises(ValueError, match=r"X has 3 columns, the model has n_dims=2"):
            self._call(backend, method, X, y, tidx)


# ---------------------------------------------------------------------------
# Options validation (satellite: numeric knob guards)
# ---------------------------------------------------------------------------

class TestOptionsValidation:
    def test_model_backend_validated(self):
        Options(model_backend="auto")
        Options(model_backend="sparse-lcm")
        with pytest.raises(ValueError, match="model_backend"):
            Options(model_backend="bogus")

    def test_n_inducing_floor(self):
        Options(n_inducing=2)
        with pytest.raises(ValueError, match="n_inducing"):
            Options(n_inducing=1)

    def test_sparse_threshold_floor(self):
        with pytest.raises(ValueError, match="sparse_threshold"):
            Options(sparse_threshold=0)

    def test_existing_floors_still_enforced(self):
        with pytest.raises(ValueError, match="max_inflight"):
            Options(max_inflight=0)
        with pytest.raises(ValueError, match="refit_interval"):
            Options(refit_interval=0)


# ---------------------------------------------------------------------------
# driver integration
# ---------------------------------------------------------------------------

class TestDriverIntegration:
    def test_forced_sparse_campaign(self):
        prob = _toy_problem()
        tasks = [{"t": i} for i in range(3)]
        opts = _fast_options(model_backend="sparse-lcm", n_inducing=8)
        res = GPTune(prob, opts).tune(tasks, 8)
        assert all(isinstance(m, SparseLCM) for m in res.models)
        events = res.events.of_kind("model-backend")
        assert events and events[0].fields["backend"] == "sparse-lcm"
        assert all(np.isfinite(v) for v in res.best_values())

    def test_auto_escalates_mid_campaign(self):
        """Crossing sparse_threshold mid-run switches exact -> sparse."""
        prob = _toy_problem()
        tasks = [{"t": i} for i in range(3)]
        opts = _fast_options(
            model_backend="auto", sparse_threshold=18, n_inducing=8
        )
        res = GPTune(prob, opts).tune(tasks, 10)
        backends = [e.fields["backend"] for e in res.events.of_kind("model-backend")]
        assert backends == ["exact-lcm", "sparse-lcm"]
        assert isinstance(res.models[0], SparseLCM)

    def test_small_campaign_stays_exact(self):
        prob = _toy_problem()
        tasks = [{"t": i} for i in range(2)]
        res = GPTune(prob, _fast_options(model_backend="auto")).tune(tasks, 6)
        assert all(isinstance(m, LCM) for m in res.models)
        backends = [e.fields["backend"] for e in res.events.of_kind("model-backend")]
        assert backends == ["exact-lcm"]

    def test_gp_backend_campaign(self):
        prob = _toy_problem()
        tasks = [{"t": i} for i in range(2)]
        res = GPTune(prob, _fast_options(model_backend="gp")).tune(tasks, 6)
        assert all(isinstance(m, PerTaskGP) for m in res.models)
        # PerTaskGP.predict_tasks loops over tasks; the search still batches
        modes = [e.fields["mode"] for e in res.events.of_kind("search-mode")]
        assert modes == ["batched"]

    def test_sparse_campaign_seed_reproducible(self):
        prob = _toy_problem()
        tasks = [{"t": i} for i in range(3)]

        def run():
            opts = _fast_options(model_backend="sparse-lcm", n_inducing=8)
            return GPTune(prob, opts).tune(tasks, 8)

        r1, r2 = run(), run()
        assert r1.data.to_records() == r2.data.to_records()
        assert np.allclose(r1.best_values(), r2.best_values())

    def test_model_fit_events_carry_backend(self):
        prob = _toy_problem()
        tasks = [{"t": i} for i in range(2)]
        opts = _fast_options(model_backend="sparse-lcm", n_inducing=8)
        res = GPTune(prob, opts).tune(tasks, 6)
        fits = res.events.of_kind("model-fit")
        assert fits and all(e.fields.get("backend") == "sparse-lcm" for e in fits)


# ---------------------------------------------------------------------------
# surrogate-cache backend partitioning (satellite)
# ---------------------------------------------------------------------------

class TestCacheBackendPartition:
    def _fit(self, backend, n_inducing, fps=("a", "b")):
        return CachedFit(
            "prob", 0, 2, 3, 2, [0.1] * 13, -1.0, fps,
            backend=backend, n_inducing=n_inducing,
        )

    def test_keys_differ_across_backends(self):
        exact = self._fit("exact-lcm", 0)
        sparse = self._fit("sparse-lcm", 64)
        sparse2 = self._fit("sparse-lcm", 128)
        assert len({exact.key, sparse.key, sparse2.key}) == 3

    def test_lookup_partitions_by_backend(self, tmp_path):
        cache = SurrogateCache(str(tmp_path / "cache.jsonl"))
        cache.put(self._fit("exact-lcm", 0))
        cache.put(self._fit("sparse-lcm", 64))
        fps = ["a", "b"]
        hit = cache.lookup("prob", 0, fps, 2, 3, 2, backend="exact-lcm")
        assert hit is not None and hit.backend == "exact-lcm"
        hit = cache.lookup(
            "prob", 0, fps, 2, 3, 2, backend="sparse-lcm", n_inducing=64
        )
        assert hit is not None and hit.backend == "sparse-lcm"
        # a sparse fit with a different inducing count is not a warm start
        assert cache.lookup(
            "prob", 0, fps, 2, 3, 2, backend="sparse-lcm", n_inducing=128
        ) is None
        assert cache.lookup("prob", 0, fps, 2, 3, 2, backend="gp") is None

    def test_legacy_rows_load_as_exact(self):
        row = self._fit("exact-lcm", 0).to_json()
        del row["backend"], row["n_inducing"]
        fit = CachedFit.from_json(row)
        assert fit.backend == "exact-lcm" and fit.n_inducing == 0
        assert fit.key == self._fit("exact-lcm", 0).key

    def test_json_roundtrip_preserves_backend(self):
        fit = self._fit("sparse-lcm", 32)
        again = CachedFit.from_json(fit.to_json())
        assert again.backend == "sparse-lcm"
        assert again.n_inducing == 32
        assert again.key == fit.key

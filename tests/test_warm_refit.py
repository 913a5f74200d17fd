"""Tests for cross-iteration warm refits and the incremental driver caches.

Covers the ``refit_warm_start`` / ``refit_interval`` options (fewer L-BFGS
multi-starts per campaign via warm refits and O(N²·n_new) posterior
extension), the GP warm-start mirror for the degradation ladder, and the
incremental seen-key / fingerprint accumulators.
"""

import numpy as np
import pytest

from repro.core import (
    GaussianProcess,
    GPTune,
    Options,
    Real,
    Space,
    TuningData,
    TuningProblem,
)


def _problem():
    return TuningProblem(
        task_space=Space([Real("t", 0.0, 1.0)]),
        tuning_space=Space([Real("x", 0.0, 1.0), Real("y", 0.0, 1.0)]),
        objective=lambda task, cfg: 1.0
        + (cfg["x"] - 0.2 - 0.3 * task["t"]) ** 2
        + (cfg["y"] - 0.7 * task["t"]) ** 2,
        name="warm-refit-test",
    )


TASKS = [{"t": 0.2}, {"t": 0.8}]
BASE = dict(seed=0, n_start=2, lbfgs_maxiter=40, pso_iters=5, ei_candidates=10)


class TestOptions:
    def test_defaults_off(self):
        opt = Options()
        assert opt.refit_warm_start is False
        assert opt.refit_warm_n_start == 1
        assert opt.refit_interval == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Options(refit_warm_n_start=0)
        with pytest.raises(ValueError):
            Options(refit_interval=0)


class TestWarmRefitCampaign:
    def test_fewer_multistarts_same_quality(self):
        cold = GPTune(_problem(), Options(**BASE)).tune(TASKS, 16)
        warm = GPTune(
            _problem(), Options(**BASE, refit_warm_start=True)
        ).tune(TASKS, 16)
        cold_starts = cold.events.total("model-fit", "n_starts")
        warm_starts = warm.events.total("model-fit", "n_starts")
        assert warm_starts < cold_starts
        # only the first fit is cold (n_start=2); the rest warm-start with 1
        n_fits = warm.events.count("model-fit")
        assert warm_starts == 2 + (n_fits - 1)
        assert np.all(warm.best_values() <= cold.best_values() * 1.05)

    def test_refit_interval_extends_posterior(self):
        warm = GPTune(
            _problem(),
            Options(**BASE, refit_warm_start=True, refit_interval=3),
        ).tune(TASKS, 16)
        extends = warm.events.count("model-extend")
        fits = warm.events.count("model-fit")
        assert extends > 0
        # every extend event reports n_starts=0, so it adds nothing to the total
        assert warm.events.total("model-extend", "n_starts") == 0
        # roughly two in three modeling phases are extensions
        assert extends >= fits - 1
        assert np.all(np.isfinite(warm.best_values()))

    def test_extension_observations_reach_the_model(self):
        """The extended surrogate really contains the intermediate rows."""
        opts = Options(**BASE, refit_warm_start=True, refit_interval=2)
        tuner = GPTune(_problem(), opts)
        result = tuner.tune(TASKS, 12)
        model = result.models[0]
        # every row up to the last modeling phase is in the final surrogate,
        # whatever mix of fits and extensions produced it (the last batch of
        # one evaluation per task lands after that phase, as in a cold run)
        assert model.y.shape[0] == result.data.n_samples() - len(TASKS)

    def test_campaign_state_reset_between_tunes(self):
        tuner = GPTune(_problem(), Options(**BASE, refit_warm_start=True))
        r1 = tuner.tune(TASKS, 8)
        first_total = tuner.events.total("model-fit", "n_starts")
        r2 = tuner.tune(TASKS, 8)
        # the second campaign's first fit is cold again (n_start=2), so the
        # grand total grows by at least another cold fit
        assert tuner.events.total("model-fit", "n_starts") >= first_total + 2
        assert np.all(np.isfinite(r2.best_values()))


class TestGPWarmStart:
    def test_theta0_replaces_first_restart(self, rng):
        X = np.linspace(0, 1, 12)[:, None]
        y = np.sin(5 * X[:, 0])
        ref = GaussianProcess(seed=0, n_start=3).fit(X, y)
        warm = GaussianProcess(seed=0, n_start=1).fit(X, y, theta0=ref.theta)
        assert warm.log_likelihood_ >= ref.log_likelihood_ - 1e-6

    def test_theta0_shape_validated(self, rng):
        X = rng.random((6, 2))
        y = rng.normal(size=6)
        with pytest.raises(ValueError):
            GaussianProcess(seed=0).fit(X, y, theta0=np.zeros(3))


class TestSeenKeys:
    def test_incremental_seen_keys(self):
        space = Space([Real("x", 0.0, 1.0)])
        data = TuningData(Space([Real("t", 0.0, 1.0)]), space, [{"t": 0.0}, {"t": 1.0}])
        assert data.seen_keys(0) == set()
        data.add(0, {"x": 0.25}, 1.0)
        data.add(0, {"x": 0.5}, 2.0)
        data.add(1, {"x": 0.25}, 3.0)
        assert data.x_key({"x": 0.25}) in data.seen_keys(0)
        assert data.x_key({"x": 0.5}) in data.seen_keys(0)
        assert len(data.seen_keys(0)) == 2
        assert len(data.seen_keys(1)) == 1

    def test_matches_recomputed_set(self):
        space = Space([Real("x", 0.0, 1.0), Real("y", 0.0, 1.0)])
        data = TuningData(Space([Real("t", 0.0, 1.0)]), space, [{"t": 0.5}])
        rng = np.random.default_rng(4)
        for _ in range(17):
            data.add(0, {"x": float(rng.random()), "y": float(rng.random())}, 0.0)
        rebuilt = {tuple(np.round(space.normalize(x), 9)) for x in data.X[0]}
        assert data.seen_keys(0) == rebuilt

    def test_dedup_uses_incremental_set(self):
        res = GPTune(_problem(), Options(**BASE)).tune(TASKS, 8)
        # no duplicate configurations were evaluated for either task
        for i in range(2):
            assert len(res.data.seen_keys(i)) == res.data.n_samples(i)


class TestIncrementalFingerprints:
    def test_matches_full_rehash(self, tmp_path):
        from repro.service.modelcache import SurrogateCache
        from repro.service.store import content_fingerprint

        tuner = GPTune(
            _problem(),
            Options(**BASE),
            model_cache=SurrogateCache(str(tmp_path / "cache.jsonl")),
        )
        data = TuningData(
            _problem().task_space, _problem().tuning_space, TASKS
        )
        rng = np.random.default_rng(0)
        for i in range(2):
            for _ in range(3):
                data.add(i, {"x": float(rng.random()), "y": float(rng.random())}, 1.0)
        got = tuner.fitter._fingerprints(data)
        want = frozenset(content_fingerprint(r) for r in data.to_records())
        assert got == want
        # appending more rows only hashes the new ones, same resulting set
        data.add(0, {"x": 0.123, "y": 0.456}, 2.0)
        got2 = tuner.fitter._fingerprints(data)
        want2 = frozenset(content_fingerprint(r) for r in data.to_records())
        assert got2 == want2 and len(got2) == len(want) + 1

    def test_none_without_cache(self):
        tuner = GPTune(_problem(), Options(**BASE))
        data = TuningData(_problem().task_space, _problem().tuning_space, TASKS)
        assert tuner.fitter._fingerprints(data) is None

    def test_cache_still_warms_across_campaigns(self, tmp_path):
        """End-to-end: the incremental fingerprints still hit the cache."""
        from repro.service.modelcache import SurrogateCache

        path = str(tmp_path / "cache.jsonl")
        history = []

        def run():
            t = GPTune(
                _problem(),
                Options(**BASE),
                model_cache=SurrogateCache(path),
            )
            r = t.tune(TASKS, 6)
            history.append(r)
            return r

        first = run()
        assert first.events.count("model-cache-store") >= 1

"""Tests for :class:`repro.core.model.fitter.SurrogateFitter`.

The fitter owns the modeling phase's state machine — warm starts,
posterior extension, the ``gp`` degradation rung and the checkpointed
modeling snapshot — so these tests drive it directly, without a campaign
loop around it.
"""

import json

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
from repro.core.model import PerTaskGP, SurrogateFitter
from repro.observability import CampaignLog

BASE = dict(seed=0, n_start=2, lbfgs_maxiter=40, pso_iters=5, ei_candidates=10)
TASKS = [{"t": 0.2}, {"t": 0.8}]


def _problem():
    return TuningProblem(
        task_space=Space([Real("t", 0.0, 1.0)]),
        tuning_space=Space([Real("x", 0.0, 1.0), Real("y", 0.0, 1.0)]),
        objective=lambda task, cfg: 1.0
        + (cfg["x"] - 0.2 - 0.3 * task["t"]) ** 2
        + (cfg["y"] - 0.7 * task["t"]) ** 2,
        name="fitter-test",
    )


def _data(n_per_task=5, seed=0):
    p = _problem()
    data = TuningData(p.task_space, p.tuning_space, TASKS)
    _grow(data, n_per_task, seed)
    return data


def _grow(data, n_per_task, seed):
    rng = np.random.default_rng(seed)
    for i, task in enumerate(TASKS):
        for _ in range(n_per_task):
            cfg = {"x": float(rng.random()), "y": float(rng.random())}
            data.add(i, cfg, [_problem().objective(task, cfg)])


def _fitter(**opts):
    seeds = np.random.SeedSequence(0)
    fitter = SurrogateFitter(
        Options(**BASE, **opts),
        "fitter-test",
        CampaignLog(),
        lambda: int(seeds.spawn(1)[0].generate_state(1)[0]),
    )
    fitter.reset(len(TASKS))
    return fitter


def _stats():
    return {"modeling_time": 0.0}


class TestReset:
    def test_reset_clears_carryover(self):
        fitter = _fitter(refit_warm_start=True)
        fitter.fit(_data(), None, _stats())
        assert fitter._fit_iter == 1 and fitter._warm
        fitter.reset(len(TASKS))
        assert fitter._fit_iter == 0 and not fitter._warm
        assert fitter.snapshot() == {"fit_iter": 0, "warm": {}}

    def test_n_latent_from_task_count(self):
        fitter = _fitter()
        assert fitter.n_latent == 2
        fitter.reset(5)
        assert fitter.n_latent == 3
        assert _fitter(n_latent=1).n_latent == 1


class TestRows:
    def test_full_range_matches_stacked(self):
        data = _data()
        X, y, tidx = SurrogateFitter._rows(
            data, 0, [0, 0], [data.n_samples(0), data.n_samples(1)], None
        )
        Xs, ys, ts = data.stacked(0)
        np.testing.assert_array_equal(X, Xs)
        np.testing.assert_array_equal(y, ys)
        np.testing.assert_array_equal(tidx, ts)

    def test_empty_range(self):
        data = _data()
        assert SurrogateFitter._rows(data, 0, [5, 5], [5, 5], None) == (None, None, None)

    def test_range_selects_rows(self):
        data = _data()
        X, y, tidx = SurrogateFitter._rows(data, 0, [2, 5], [4, 5], None)
        np.testing.assert_array_equal(tidx, [0, 0])
        np.testing.assert_array_equal(X, data.unit_rows(0, 2, 4))
        np.testing.assert_array_equal(y, [data.Y[0][2][0], data.Y[0][3][0]])


class TestWarmStart:
    def test_explicit_gp_backend_warm_starts(self):
        fitter = _fitter(model_backend="gp", refit_warm_start=True)
        data = _data()
        (first,), _ = fitter.fit(data, None, _stats())
        thetas = [g.theta.copy() for g in first.gps]
        _grow(data, 1, seed=1)
        (second,), _ = fitter.fit(data, None, _stats())
        assert isinstance(second, PerTaskGP)
        fits = fitter.events.of_kind("model-fit")
        assert [e.fields["n_starts"] for e in fits] == [2, 1]
        assert "warm=True" in fits[1].detail
        # each task's GP is one L-BFGS run from its previous optimum
        X, y, tidx = data.stacked(0)
        yt = fitter._warm[0]["transform"].transform(y)
        for i, theta in enumerate(thetas):
            rows = tidx == i
            want = GaussianProcess(n_start=1, maxiter=40).fit(X[rows], yt[rows], theta0=theta)
            np.testing.assert_array_equal(second.gps[i].theta, want.theta)

    def test_cold_without_option(self):
        fitter = _fitter(model_backend="gp")
        data = _data()
        fitter.fit(data, None, _stats())
        _grow(data, 1, seed=1)
        fitter.fit(data, None, _stats())
        fits = fitter.events.of_kind("model-fit")
        assert [e.fields["n_starts"] for e in fits] == [2, 2]

    def test_one_seed_per_objective_fit(self):
        fitter = _fitter()
        drawn = []
        inner = fitter._seed
        fitter._seed = lambda: drawn.append(inner()) or drawn[-1]
        fitter.fit(_data(), None, _stats())
        assert len(drawn) == 1

    def test_per_task_theta0_length_validated(self):
        data = _data()
        X, y, tidx = data.stacked(0)
        with pytest.raises(ValueError, match="theta0"):
            PerTaskGP(2, 2).fit(X, y, tidx, theta0=[None])


class TestExtension:
    def test_extend_phases_skip_lbfgs(self):
        fitter = _fitter(refit_interval=3)
        data = _data()
        for step in range(4):
            fitter.fit(data, None, _stats())
            _grow(data, 1, seed=10 + step)
        assert fitter.events.count("model-fit") == 2
        assert fitter.events.count("model-extend") == 2
        assert fitter._warm[0]["chunks"] == [[8, 8]]

    def test_per_task_gp_extends(self):
        """Each task's GP is the one-task LCM, so the gp backend extends its
        posterior between full fits like the exact LCM does."""
        fitter = _fitter(model_backend="gp", refit_interval=2)
        data = _data()
        (first,), _ = fitter.fit(data, None, _stats())
        thetas = [t.copy() for t in first.thetas]
        _grow(data, 1, seed=1)
        (second,), _ = fitter.fit(data, None, _stats())
        assert second is first and isinstance(second, PerTaskGP)
        assert fitter.events.count("model-extend") == 1
        assert fitter.events.count("model-fit") == 1
        assert fitter._warm[0]["chunks"] == [[5, 5], [6, 6]]
        for gp, theta in zip(second.gps, thetas):
            assert gp.lcm.y.shape == (6,)
            np.testing.assert_array_equal(gp.theta, theta)


class TestSnapshot:
    def test_none_without_modeling_options(self):
        fitter = _fitter()
        fitter.fit(_data(), None, _stats())
        assert fitter.snapshot() is None

    @pytest.mark.parametrize(
        "opts", [dict(refit_warm_start=True), dict(refit_interval=2)]
    )
    def test_snapshot_with_modeling_options(self, opts):
        fitter = _fitter(**opts)
        fitter.fit(_data(), None, _stats())
        snap = fitter.snapshot()
        assert snap["fit_iter"] == 1 and set(snap["warm"]) == {"0"}
        json.dumps(snap)  # checkpoint-serializable

    def test_restore_rebuilds_bitwise_posterior(self):
        """A restored fitter extends and refits exactly like the original."""
        a = _fitter(refit_warm_start=True, refit_interval=2)
        data = _data()
        a.fit(data, None, _stats())
        _grow(data, 1, seed=1)
        a.fit(data, None, _stats())  # extend phase: two chunks
        snap = json.loads(json.dumps(a.snapshot()))
        assert snap["warm"]["0"]["chunks"] == [[5, 5], [6, 6]]

        b = _fitter(refit_warm_start=True, refit_interval=2)
        b.restore(snap, data)
        ma, mb = a._warm[0]["model"], b._warm[0]["model"]
        np.testing.assert_array_equal(ma.theta, mb.theta)
        Xq = np.random.default_rng(3).random((7, 2))
        for task in range(len(TASKS)):
            for u, v in zip(ma.predict(task, Xq), mb.predict(task, Xq)):
                np.testing.assert_array_equal(u, v)
        # the next (full, warm-started) fit is bit-identical too, once the
        # restored fitter's seed tree is as far along as the original's
        b._seed()
        _grow(data, 1, seed=2)
        (fa,), _ = a.fit(data, None, _stats())
        (fb,), _ = b.fit(data, None, _stats())
        assert a.events.count("model-fit") == 2 and b.events.count("model-fit") == 1
        np.testing.assert_array_equal(fa.theta, fb.theta)

    def test_gp_warm_state_round_trips(self):
        """The gp backend's per-task θ and extend chunks are checkpointed,
        and the restored posterior predicts bitwise like the original."""
        opts = dict(model_backend="gp", refit_warm_start=True, refit_interval=2)
        a = _fitter(**opts)
        data = _data()
        a.fit(data, None, _stats())
        _grow(data, 1, seed=1)
        a.fit(data, None, _stats())
        snap = json.loads(json.dumps(a.snapshot()))
        w = snap["warm"]["0"]
        assert w["backend"] == "gp" and w["chunks"] == [[5, 5], [6, 6]]
        assert [len(t) for t in w["theta"]] == [2 + 3, 2 + 3]

        b = _fitter(**opts)
        b.restore(snap, data)
        ma, mb = a._warm[0]["model"], b._warm[0]["model"]
        assert isinstance(mb, PerTaskGP) and b._warm[0]["backend"] == "gp"
        Xq = np.random.default_rng(3).random((7, 2))
        for task in range(len(TASKS)):
            for u, v in zip(ma.predict(task, Xq), mb.predict(task, Xq)):
                np.testing.assert_array_equal(u, v)

    def test_entry_without_backend_restores_exact_lcm(self):
        """Version-2 checkpoints written before entries named their backend
        hold exact-LCM state, and still load."""
        a = _fitter(refit_interval=2)
        data = _data()
        a.fit(data, None, _stats())
        snap = json.loads(json.dumps(a.snapshot()))
        assert snap["warm"]["0"].pop("backend") == "exact-lcm"
        b = _fitter(refit_interval=2)
        b.restore(snap, data)
        assert b._warm[0]["backend"] == "exact-lcm"
        np.testing.assert_array_equal(a._warm[0]["model"].theta, b._warm[0]["model"].theta)

    def test_restore_of_broken_state_degrades_to_refit(self):
        fitter = _fitter(refit_interval=2)
        data = _data()
        fitter.restore(
            {"fit_iter": 1, "warm": {"0": {"theta": [0.0], "transform": {
                "kind": "standardize", "mean": 0.0, "std": 1.0}, "chunks": [[5, 5]]}}},
            data,
        )
        assert fitter._fit_iter == 1 and not fitter._warm
        details = [e.detail for e in fitter.events.of_kind("model-downgrade")]
        assert len(details) == 1 and "warm-posterior rebuild failed" in details[0]


class TestDriverCheckpoint:
    def test_driver_checkpoints_v1_without_modeling_options(self, tmp_path):
        path = tmp_path / "ck.json"
        GPTune(_problem(), Options(**BASE, checkpoint_path=str(path))).tune(TASKS, 6)
        raw = json.loads(path.read_text())
        assert raw["version"] == 1 and "modeling" not in raw

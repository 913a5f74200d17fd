"""The direct ``setulb`` L-BFGS-B driver against ``scipy.optimize.minimize``.

:func:`repro.core.lbfgsb.minimize` replaces ``minimize(method="L-BFGS-B",
jac=True)`` in every hyperparameter fit, on the promise that it reproduces
scipy bit for bit.  These tests pin that promise on random bounded problems
and on the corner cases of the reverse-communication loop, pin each
restart of a lockstep (stacked ``x0``) run to its own independent run, pin
the LCM / GP fits to values recorded with the scipy wrapper, and check that
the e2e tracer's ``nfev`` counting seam still counts every likelihood
evaluation.  Thread- and process-mapped restart groups are pinned bitwise
to serial fits by ``tests/test_lcm_fastpath.py::TestThreadedRestarts``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy import optimize

from repro.core import lbfgsb
from repro.core.gp import GaussianProcess
from repro.core.lcm import LCM
from repro.core.model import SparseLCM

ROOT = Path(__file__).resolve().parents[1]


def _scipy(fun, x0, bounds, maxiter=15000, args=()):
    return optimize.minimize(
        fun, x0, args=args, jac=True, method="L-BFGS-B",
        bounds=list(zip(*bounds)), options={"maxiter": maxiter},
    )


def _scipy_rows(fun, x0, args, bounds, maxiter):
    """A stacked ``x0`` run row by row through scipy, each row's objective
    called as the one-row stack of that restart; shaped like the driver's
    stacked result."""
    runs = []
    for r, row in enumerate(x0):
        def one(x, *a, r=r):
            f, g = fun(x[None], [r], *a)
            return f[0], g[0]

        runs.append(_scipy(one, row, bounds, maxiter=maxiter, args=args))
    nfevs = np.array([res.nfev for res in runs])
    return lbfgsb.LBFGSBResult(
        x=np.stack([res.x for res in runs]), fun=np.array([res.fun for res in runs]),
        nfev=int(nfevs.sum()), nit=np.array([res.nit for res in runs]), nfevs=nfevs,
    )


def _assert_same(ours, ref):
    assert ours.x.tobytes() == np.asarray(ref.x).tobytes()
    assert np.float64(ours.fun).tobytes() == np.float64(ref.fun).tobytes()
    assert (ours.nfev, ours.nit) == (ref.nfev, ref.nit)


def _problem(seed):
    """Quadratic plus sine terms on a random box, n = 3..20."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 21))
    A = rng.normal(size=(n, n))
    H = A @ A.T / n + 0.1 * np.eye(n)
    c = rng.normal(size=n)
    w = rng.uniform(0.5, 3.0, n)

    def fg(x):
        return 0.5 * x @ H @ x + c @ x + np.sin(w * x).sum(), H @ x + c + w * np.cos(w * x)

    bounds = (-rng.uniform(0.5, 3.0, n), rng.uniform(0.5, 3.0, n))
    x0 = 3.0 * rng.normal(size=n)
    return fg, x0, bounds


class _SetulbSpy:
    """Counts ``setulb``'s evaluation requests and those that repeat the
    previously requested x."""

    def __init__(self, real):
        self.real, self.requests, self.repeats, self.last = real, 0, 0, None

    def __call__(self, *a):
        self.real(*a)
        x, task = a[1], a[11]
        if task[0] == 3:
            self.requests += 1
            if self.last is not None and np.array_equal(x, self.last):
                self.repeats += 1
            self.last = x.copy()


class TestDriverEqualsScipy:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_bounded_problem(self, seed):
        fg, x0, bounds = _problem(seed)
        _assert_same(lbfgsb.minimize(fg, x0, bounds=bounds), _scipy(fg, x0, bounds))

    def test_x0_outside_bounds_is_clipped(self):
        fg, x0, bounds = _problem(3)
        x0 = np.where(np.arange(x0.size) % 2 == 0, bounds[0] - 5.0, bounds[1] + 5.0)
        ours = lbfgsb.minimize(fg, x0, bounds=bounds)
        _assert_same(ours, _scipy(fg, x0, bounds))
        assert np.all((bounds[0] <= ours.x) & (ours.x <= bounds[1]))

    def test_maxiter_cap(self):
        fg, x0, bounds = _problem(5)
        ref = _scipy(fg, x0, bounds, maxiter=3)
        assert "ITERATIONS REACHED LIMIT" in ref.message
        ours = lbfgsb.minimize(fg, x0, bounds=bounds, maxiter=3)
        _assert_same(ours, ref)
        assert ours.nit == 3

    def test_divergence_sentinel(self):
        """The LCM's non-PD answer: ``1e25`` with a zero gradient."""
        base, x0, bounds = _problem(7)
        x0[0] = -0.4
        hits = []

        def fg(x):  # a slope toward x[0] > 0.2, where the "covariance" breaks
            if x[0] > 0.2:
                hits.append(1)
                return 1e25, np.zeros_like(x)
            f, g = base(x)
            g[0] -= 4.0
            return f - 4.0 * x[0], g

        ours = lbfgsb.minimize(fg, x0, bounds=bounds)
        n_hits = len(hits)
        _assert_same(ours, _scipy(fg, x0, bounds))
        assert n_hits > 0

    def test_repeated_request_is_memoized(self, monkeypatch):
        """A wrong-sign gradient makes the line search shrink its step until
        ``x + stp·d`` rounds back to the previous x; those requests are
        answered from the cache and not counted in ``nfev``."""
        rng = np.random.default_rng(2)
        n, scale = 7, 1e4

        def fg(x):
            return float(np.sum((x / scale) ** 2)), -2.0 * x / scale**2

        x0 = scale * rng.normal(size=n)
        bounds = (np.full(n, -1e30), np.full(n, 1e30))
        spy = _SetulbSpy(lbfgsb._setulb)
        monkeypatch.setattr(lbfgsb, "_setulb", spy)
        ours = lbfgsb.minimize(fg, x0, bounds=bounds)
        assert spy.repeats > 0
        # the initial evaluation answers the first request, caches the rest
        assert ours.nfev == spy.requests - spy.repeats
        monkeypatch.undo()
        _assert_same(ours, _scipy(fg, x0, bounds))

    def test_args_are_forwarded(self):
        fg, x0, bounds = _problem(11)

        def shifted(x, s):
            f, g = fg(x - s)
            return f, g

        _assert_same(
            lbfgsb.minimize(shifted, x0, args=(0.25,), bounds=bounds),
            _scipy(shifted, x0, bounds, args=(0.25,)),
        )

    def test_inverted_bounds_rejected(self):
        fg, x0, (lo, hi) = _problem(1)
        with pytest.raises(ValueError, match="lower bound"):
            lbfgsb.minimize(fg, x0, bounds=(hi, lo))


def _stack(fg, seen=None):
    """A row-by-row stacked objective over the 1-D ``fg``; records the
    ``rows`` of every call in ``seen``."""
    def fgs(X, rows, *args):
        if seen is not None:
            seen.append(list(rows))
        out = [fg(x, *args) for x in X]
        return np.array([f for f, _ in out]), np.array([g for _, g in out])

    return fgs


def _assert_restarts_equal_runs(res, fg, x0s, bounds, maxiter=15000):
    """Each restart of a lockstep result is bitwise its own 1-D run."""
    assert res.x.shape == x0s.shape
    for r, x0 in enumerate(x0s):
        one = lbfgsb.minimize(fg, x0, bounds=bounds, maxiter=maxiter)
        assert res.x[r].tobytes() == one.x.tobytes()
        assert np.float64(res.fun[r]).tobytes() == np.float64(one.fun).tobytes()
        assert (res.nfevs[r], res.nit[r]) == (one.nfev, one.nit)
    assert res.nfev == int(res.nfevs.sum())


class TestLockstep:
    """A stacked ``x0`` runs its restarts in lockstep; each restart must be
    bitwise the independent run from its row."""

    @pytest.mark.parametrize("seed", range(8))
    def test_each_restart_equals_its_own_run(self, seed):
        fg, x0, bounds = _problem(seed)
        rng = np.random.default_rng(100 + seed)
        x0s = x0 + rng.normal(scale=2.0, size=(4, x0.size))
        res = lbfgsb.minimize(_stack(fg), x0s, bounds=bounds)
        _assert_restarts_equal_runs(res, fg, x0s, bounds)

    def test_restarts_stop_at_different_rounds(self):
        """Restarts from far and near starts drop out at different rounds;
        the survivors keep advancing alone."""
        fg, x0, bounds = _problem(4)
        one = lbfgsb.minimize(fg, x0, bounds=bounds)
        x0s = np.stack([one.x, x0, 0.5 * (one.x + x0)])
        seen = []
        res = lbfgsb.minimize(_stack(fg, seen), x0s, bounds=bounds)
        _assert_restarts_equal_runs(res, fg, x0s, bounds)
        assert len(set(res.nit.tolist())) > 1
        assert [len(rows) for rows in seen] != [3] * len(seen)  # some round ran narrower

    def test_maxiter_stop(self):
        fg, x0, bounds = _problem(5)
        x0s = np.stack([x0, -x0, 0.3 * x0])
        res = lbfgsb.minimize(_stack(fg), x0s, bounds=bounds, maxiter=3)
        _assert_restarts_equal_runs(res, fg, x0s, bounds, maxiter=3)
        assert res.nit.tolist() == [3, 3, 3]

    def test_identical_rows(self):
        fg, x0, bounds = _problem(6)
        x0s = np.stack([x0, x0, x0])
        res = lbfgsb.minimize(_stack(fg), x0s, bounds=bounds)
        _assert_restarts_equal_runs(res, fg, x0s, bounds)
        assert res.x[0].tobytes() == res.x[1].tobytes() == res.x[2].tobytes()

    def test_rows_name_the_asking_restarts(self):
        """Every call evaluates each asking restart once, in restart order,
        and the calls add up to the per-restart ``nfev``."""
        fg, x0, bounds = _problem(8)
        x0s = x0 + np.random.default_rng(8).normal(size=(3, x0.size))
        seen = []
        res = lbfgsb.minimize(_stack(fg, seen), x0s, bounds=bounds)
        assert seen[0] == [0, 1, 2]
        for rows in seen:
            assert rows == sorted(set(rows))
        counts = np.bincount([r for rows in seen for r in rows], minlength=3)
        assert counts.tolist() == res.nfevs.tolist()

    def test_args_and_divergence_sentinel(self):
        """Extra args reach the stacked objective; a row answering the
        ``1e25`` sentinel does not disturb the others."""
        base, x0, bounds = _problem(7)
        x0[0] = -0.4
        hits = []

        def fg(x, slope):
            if x[0] > 0.2:
                hits.append(1)
                return 1e25, np.zeros_like(x)
            f, g = base(x)
            g[0] -= slope
            return f - slope * x[0], g

        x0s = np.stack([x0, x0 - 0.3])
        res = lbfgsb.minimize(_stack(fg), x0s, args=(4.0,), bounds=bounds)
        assert hits
        for r, start in enumerate(x0s):
            one = lbfgsb.minimize(fg, start, args=(4.0,), bounds=bounds)
            assert res.x[r].tobytes() == one.x.tobytes()
            assert (res.nfevs[r], res.nit[r]) == (one.nfev, one.nit)

    def test_one_row_matches_scipy(self):
        fg, x0, bounds = _problem(9)
        res = lbfgsb.minimize(_stack(fg), x0[None], bounds=bounds)
        ref = _scipy(fg, x0, bounds)
        assert res.x[0].tobytes() == np.asarray(ref.x).tobytes()
        assert (res.nfev, res.nit[0]) == (ref.nfev, ref.nit)

    def test_one_dimensional_result_fields(self):
        fg, x0, bounds = _problem(10)
        res = lbfgsb.minimize(fg, x0, bounds=bounds)
        assert res.x.shape == x0.shape
        assert isinstance(res.fun, float) and isinstance(res.nit, int)
        assert res.nfevs.tolist() == [res.nfev]

    def test_empty_stack_rejected(self):
        fg, x0, bounds = _problem(1)
        with pytest.raises(ValueError, match="at least one row"):
            lbfgsb.minimize(_stack(fg), np.empty((0, x0.size)), bounds=bounds)


class TestScipyVersionCheck:
    def test_installed_scipy_passes(self):
        from scipy.optimize import _lbfgsb

        assert lbfgsb.check_setulb(scipy.__version__, _lbfgsb.setulb) is _lbfgsb.setulb

    def test_old_scipy_named_in_error(self):
        from scipy.optimize import _lbfgsb

        with pytest.raises(ImportError, match=r"scipy>=1\.15.*scipy 1\.14\.1 is installed"):
            lbfgsb.check_setulb("1.14.1", _lbfgsb.setulb)

    def test_changed_signature_rejected(self):
        def setulb(m, x, l, u, nbd, f, g, factr, pgtol, wa, iwa, task, iprint,
                   csave, lsave, isave, dsave, maxls):
            """setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,iprint,csave,lsave,isave,dsave,maxls)"""

        with pytest.raises(ImportError, match="does not have the signature"):
            lbfgsb.check_setulb("1.99.0", setulb)
        with pytest.raises(ImportError, match="does not have the signature"):
            lbfgsb.check_setulb("1.99.0", None)

    def test_import_fails_loudly(self, monkeypatch):
        """The check runs at import: a fresh load under an old version raises."""
        monkeypatch.setattr(scipy, "__version__", "1.11.4")
        spec = importlib.util.spec_from_file_location("_lbfgsb_probe", lbfgsb.__file__)
        with pytest.raises(ImportError, match="1.11.4"):
            spec.loader.exec_module(importlib.util.module_from_spec(spec))


# θ and log-likelihood of three fits, recorded (as float.hex) with the
# ``scipy.optimize.minimize`` wrapper before the driver replaced it, under
# single-threaded OpenBLAS on x86-64.  Multi-threaded BLAS changes the last
# bits, so the fits run in a child process with one BLAS thread.
_RECORDED = {
    "lcm": (
        ["-0x1.4e0bf4408bf5dp+3", "-0x1.221f678fe7bd0p-1", "0x1.35c74bf46deacp-1",
         "-0x1.6ff3cba505aa5p-1", "-0x1.bcb62cce6deb2p+0", "-0x1.bb450df6d346bp+1",
         "-0x1.f3636db627fbdp+1", "-0x1.8b30547113be4p+2", "-0x1.d5e01699977a5p+2",
         "-0x1.d7cbe4745f6dfp+2"],
        "-0x1.91b238df2414ep+4",
    ),
    "sparse": (
        ["-0x1.135e7fc78851bp+0", "0x1.9ab533855d245p-1", "0x1.03217529cf825p+0",
         "-0x1.3c736cc441e3cp-6", "-0x1.832b4d26847e8p-1", "-0x1.7a328ae4cceeap+2",
         "-0x1.7b6830af5afc1p+2"],
        "0x1.3c36053e2ddcep+7",
    ),
    "gp": (
        ["-0x1.e5359985742fap-3", "-0x1.30a992b3ab715p+0", "0x1.6483b5360a697p+3",
         "-0x1.7f6ea4ef1528cp+2"],
        "0x1.0756ac9a36b1ep+4",
    ),
}

_FITS = """
import json, numpy as np
from repro.core.gp import GaussianProcess
from repro.core.lcm import LCM
from repro.core.model import SparseLCM

def data(n, delta, beta, seed):
    rng = np.random.default_rng(seed)
    X = rng.random((n, beta))
    t = np.arange(n) % delta
    y = np.sin(6 * X[:, 0] + t) + 0.3 * t + 0.05 * rng.normal(size=n)
    return X, y, t

def hexed(m):
    return [float(v).hex() for v in m.theta], float(m.log_likelihood_).hex()

out = {}
X, y, t = data(24, 3, 1, 1)
out["lcm"] = hexed(LCM(3, 1, n_latent=1, n_start=3, maxiter=60, seed=7).fit(X, y, t))
X, y, t = data(128, 2, 1, 2)
out["sparse"] = hexed(SparseLCM(2, 1, n_latent=1, n_inducing=128, n_start=2,
                                maxiter=60, seed=3).fit(X, y, t))
X, y, _ = data(20, 1, 2, 3)
out["gp"] = hexed(GaussianProcess(n_start=3, maxiter=100, seed=5).fit(X, y))
print(json.dumps(out))
"""


class TestFitsUnchanged:
    def test_fits_match_recorded_scipy_values(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", _FITS], env=env, check=True,
                             capture_output=True, text=True, timeout=300)
        got = json.loads(out.stdout)
        for name, (theta, ll) in _RECORDED.items():
            assert got[name] == [theta, ll], name

    @pytest.mark.parametrize("n", [30, 48])
    def test_lcm_fit_equals_scipy_path(self, monkeypatch, n):
        """In-process: the same LCM fit through the driver and through
        ``scipy.optimize.minimize`` (swapped in at the ``optimize`` seam)."""
        import repro.core.lcm as lcm_module

        rng = np.random.default_rng(n)
        X = rng.random((n, 1))
        t = np.arange(n) % 6
        y = np.sin(5 * X[:, 0] + t) + 0.05 * rng.normal(size=n)

        def fit():
            return LCM(6, 1, n_latent=3, n_start=3, maxiter=60, seed=1).fit(X, y, t)

        ours = fit()

        class ScipyPath:
            @staticmethod
            def minimize(fun, x0, args, bounds, maxiter):
                return _scipy_rows(fun, x0, args, bounds, maxiter)

        monkeypatch.setattr(lcm_module, "optimize", ScipyPath)
        ref = fit()
        assert ours.theta.tobytes() == ref.theta.tobytes()
        assert ours.log_likelihood_ == ref.log_likelihood_


def _load_tracing():
    path = ROOT / "benchmarks" / "e2e" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_e2e_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestWorkCounters:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_traced_nfev_counts_every_likelihood_evaluation(self, monkeypatch, sparse):
        """The e2e tracer sums ``nfev`` through the ``optimize`` name in
        ``repro.core.lcm``; every optimizer-driven likelihood row (a row of
        a stacked lockstep call) must be counted, and nothing else (the
        one-vector re-evaluations at a restart's final θ)."""
        calls = {"optimizer": 0, "capture": 0}
        real = LCM._nll_and_grad

        def counted(self, theta, *args, **kwargs):
            if theta.ndim == 2:
                calls["optimizer"] += theta.shape[0]
            else:
                calls["capture"] += 1
            return real(self, theta, *args, **kwargs)

        monkeypatch.setattr(LCM, "_nll_and_grad", counted)
        rng = np.random.default_rng(9)
        n = 160 if sparse else 36
        X = rng.random((n, 1))
        t = np.arange(n) % 2
        y = np.sin(6 * X[:, 0]) + 0.4 * t
        model = (SparseLCM(2, 1, n_inducing=64, n_start=2, maxiter=40, seed=0) if sparse
                 else LCM(2, 1, n_start=3, maxiter=40, seed=0))
        with _load_tracing().LayerTrace() as trace:
            model.fit(X, y, t)
        assert trace.nll_evals > 0
        assert trace.nll_evals == calls["optimizer"]

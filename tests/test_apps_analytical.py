"""Tests for the analytical application (Eq. 11)."""

import tracemalloc

import numpy as np
import pytest

from repro.apps.analytical import AnalyticalApp, analytical_function, true_minimum


class TestFunction:
    def test_vectorized_matches_scalar(self):
        xs = np.linspace(0, 1, 7)
        vec = analytical_function(2.0, xs)
        scal = np.array([float(analytical_function(2.0, x)) for x in xs])
        assert np.allclose(vec, scal)

    def test_known_structure(self):
        """y = 1 + damped oscillation; the envelope keeps y within [0, 2]-ish."""
        xs = np.linspace(0, 1, 1001)
        for t in [0.0, 2.0, 6.0, 9.5]:
            ys = analytical_function(t, xs)
            assert np.all(ys > -1.0) and np.all(ys < 3.0)

    def test_larger_t_oscillates_faster(self):
        """Sign changes of dy/dx increase with t (harder tasks)."""
        xs = np.linspace(0, 1, 4001)

        def oscillations(t):
            ys = analytical_function(t, xs)
            return int(np.sum(np.diff(np.sign(np.diff(ys))) != 0))

        assert oscillations(6.0) > oscillations(1.0)

    def test_true_minimum_is_a_minimum(self):
        xstar, ystar = true_minimum(1.5, resolution=50001)
        xs = np.linspace(0, 1, 10001)
        assert ystar <= analytical_function(1.5, xs).min() + 1e-9
        assert 0.0 <= xstar <= 1.0


def _true_minimum_scipy(t, resolution=200_001):
    """The reference minimum as computed through ``scipy.optimize``: one
    full-grid scan, then ``minimize_scalar(method="bounded")`` on the
    best grid cell.  :func:`true_minimum` must return the same bits."""
    from scipy.optimize import minimize_scalar

    xs = np.linspace(0.0, 1.0, resolution)
    ys = analytical_function(t, xs)
    i = int(np.argmin(ys))
    lo = xs[max(0, i - 1)]
    hi = xs[min(resolution - 1, i + 1)]
    res = minimize_scalar(
        lambda x: float(analytical_function(t, x)), bounds=(lo, hi), method="bounded"
    )
    if res.fun < ys[i]:
        return float(res.x), float(res.fun)
    return float(xs[i]), float(ys[i])


#: the paper's tasks t = 0, 0.5, …, 9.5, the mla-lockstep benchmark's
#: seed-0 tasks, and the task range's upper end
PINNED_T = (
    [0.5 * k for k in range(20)]
    + [float(t) for t in np.random.default_rng(0).uniform(0.5, 8.0, 6)]
    + [10.0]
)


class TestTrueMinimum:
    @pytest.mark.parametrize("t", PINNED_T)
    def test_bit_identical_to_scipy(self, t):
        got = true_minimum(t)
        want = _true_minimum_scipy(t)
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("resolution", [2, 3, 4097, 12_289, 50_001])
    def test_bit_identical_at_other_resolutions(self, resolution):
        for t in (0.0, 1.5, 6.5, 9.5):
            assert true_minimum(t, resolution) == _true_minimum_scipy(t, resolution)

    def test_traced_peak_is_bounded(self):
        true_minimum(9.5)  # imports and caches happen outside the trace
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            true_minimum(9.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2_500_000, f"true_minimum peaked at {peak / 1e6:.2f} MB"


class TestMinimizeBounded:
    """The Brent port against ``scipy.optimize.minimize_scalar``."""

    CASES = [
        (np.cos, 0.0, 6.0, {}),
        (lambda x: (x - 2.0) ** 2, 1.0, 3.0, {}),
        (lambda x: x * x, 1.0, 3.0, {}),  # minimum on the lower bound
        (lambda x: -x, 0.0, 1.0, {}),  # ... and on the upper one
        (lambda x: abs(x - 0.3) ** 0.5, 0.0, 1.0, {"xatol": 1e-9}),
        (lambda x: float(analytical_function(7.0, x)), 0.2, 0.6, {}),
        (lambda x: float(analytical_function(3.0, x)), 0.0, 1.0, {"maxfun": 6}),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_bit_identical_to_scipy(self, case):
        from scipy.optimize import minimize_scalar

        from repro.apps.analytical import _minimize_bounded

        f, lo, hi, kw = self.CASES[case]
        x, fx = _minimize_bounded(f, lo, hi, **kw)
        opts = {"xatol": kw.get("xatol", 1e-5), "maxiter": kw.get("maxfun", 500)}
        ref = minimize_scalar(f, bounds=(lo, hi), method="bounded", options=opts)
        assert (float(x).hex(), float(fx).hex()) == (float(ref.x).hex(), float(ref.fun).hex())

    def test_grid_blocks_are_linspace(self):
        from repro.apps.analytical import _SCAN_BLOCK, _grid

        for n in (1, 2, 3, _SCAN_BLOCK + 1, 3 * _SCAN_BLOCK, 200_001):
            full = np.linspace(0.0, 1.0, n)
            blocks = [_grid(j, min(j + _SCAN_BLOCK, n), n) for j in range(0, n, _SCAN_BLOCK)]
            assert np.concatenate(blocks).tobytes() == full.tobytes()


class TestApp:
    def test_problem_shapes(self):
        app = AnalyticalApp()
        prob = app.problem()
        assert prob.task_space.dimension == 1
        assert prob.tuning_space.dimension == 1
        assert prob.n_objectives == 1

    def test_objective_matches_function(self):
        app = AnalyticalApp()
        y = app.objective({"t": 3.0}, {"x": 0.25})
        assert y == pytest.approx(float(analytical_function(3.0, 0.25)))

    def test_noisy_model_close_to_objective(self):
        """The Fig. 4 model ỹ = (1 + 0.1 r)y stays within ~50% of y."""
        app = AnalyticalApp(model_noise=0.1)
        model = app.models()[0]
        for x in [0.1, 0.4, 0.9]:
            y = app.objective({"t": 2.0}, {"x": x})
            ym = model.predict({"t": 2.0}, {"x": x})
            assert abs(ym - y) <= 0.5 * abs(y) + 1e-12

    def test_model_deterministic(self):
        app = AnalyticalApp()
        m = app.models()[0]
        assert m.predict({"t": 1.0}, {"x": 0.5}) == m.predict({"t": 1.0}, {"x": 0.5})

    def test_sample_tasks_within_range(self):
        app = AnalyticalApp(t_range=(0.0, 5.0))
        tasks = app.sample_tasks(10, seed=1)
        assert len(tasks) == 10
        assert all(0.0 <= t["t"] <= 5.0 for t in tasks)

"""The analytical test function of Eq. (11).

.. math::

    y(t, x) = 1 + e^{-(x+1)^{t+1}} \\cos(2\\pi x)
              \\sum_{i=1}^{5} \\sin(2\\pi x (t+2)^i)

with task parameter ``t`` and tuning parameter ``x``, both real.  The paper
uses it for the parallel-speedup study (Fig. 3, δ = 20 tasks) and the
performance-model study (Fig. 4 left, with the noisy model
``ỹ = (1 + 0.1 r(x)) y``).  The function is highly non-convex — larger ``t``
adds faster oscillation — making it a hard 1-D black-box benchmark whose true
minimum we can still find by dense scanning.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Mapping, Tuple

import numpy as np

from ..core.params import Real
from ..core.perfmodel import CallableModel
from ..core.space import Space
from .base import Application, noise_rng

__all__ = ["analytical_function", "AnalyticalApp", "true_minimum"]


def analytical_function(t: float, x) -> np.ndarray:
    """Vectorized Eq. (11); ``x`` may be scalar or array, ``t`` scalar."""
    x = np.asarray(x, dtype=float)
    t = float(t)
    s = np.zeros_like(x)
    for i in range(1, 6):
        s += np.sin(2.0 * np.pi * x * (t + 2.0) ** i)
    return 1.0 + np.exp(-((x + 1.0) ** (t + 1.0))) * np.cos(2.0 * np.pi * x) * s


#: grid points per block of the :func:`true_minimum` scan (a multiple of
#: the SIMD width, so every block splits into vectors like the whole grid)
_SCAN_BLOCK = 4096


def _grid(j0: int, j1: int, resolution: int) -> np.ndarray:
    """Points ``j0 … j1-1`` of ``np.linspace(0.0, 1.0, resolution)``, bitwise.

    ``linspace`` computes point ``j`` as ``j * (1/(resolution-1)) + 0.0``
    and then sets the last point to exactly ``1.0``; so does this.
    """
    xs = np.arange(j0, j1, dtype=float)
    if resolution > 1:
        xs *= 1.0 / (resolution - 1)
        if j1 == resolution:
            xs[-1] = 1.0
    return xs


def _minimize_bounded(func, x1: float, x2: float, xatol: float = 1e-5, maxfun: int = 500):
    """Brent's bounded minimization of a scalar ``func`` on ``[x1, x2]``.

    A port of ``scipy.optimize._optimize._minimize_scalar_bounded`` (scipy,
    BSD-3-Clause; Copyright (c) 2001-2002 Enthought, Inc. and 2003-2024
    SciPy Developers): golden-section steps plus parabolic interpolation,
    with the same operations in the same order, so it returns the bits
    ``minimize_scalar(func, bounds=(x1, x2), method="bounded")`` does.
    Returns ``(x, f(x))`` of the best point found.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # check for a parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            # is the parabola acceptable?
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, fx


def true_minimum(t: float, resolution: int = 200_001) -> Tuple[float, float]:
    """Global minimum of Eq. (11) on ``x ∈ [0, 1]`` by dense scan.

    Returns ``(x*, y*)``.  The scan evaluates ``np.linspace(0, 1,
    resolution)`` in blocks of :data:`_SCAN_BLOCK` points, keeping the first
    grid point of least value, so its memory does not grow with
    ``resolution``.  Brent's bounded method (:func:`_minimize_bounded`,
    ``xatol = 1e-5``) then refines between that point's two neighbours,
    and the better of the two points is returned.  The default 2·10⁵-point
    grid resolves the oscillation of the paper's tasks (``t ≤ 9.5``).
    """
    best_j, best_y = 0, math.inf
    for j0 in range(0, resolution, _SCAN_BLOCK):
        ys = analytical_function(t, _grid(j0, min(j0 + _SCAN_BLOCK, resolution), resolution))
        k = int(np.argmin(ys))
        if ys[k] < best_y:
            best_j, best_y = j0 + k, float(ys[k])

    def point(j: int) -> float:
        return float(_grid(j, j + 1, resolution)[0])

    lo = point(max(0, best_j - 1))
    hi = point(min(resolution - 1, best_j + 1))
    x, fx = _minimize_bounded(lambda x: float(analytical_function(t, x)), lo, hi)
    if fx < best_y:
        return float(x), float(fx)
    return point(best_j), best_y


class AnalyticalApp(Application):
    """Eq. (11) wrapped as a (sequential, noise-free) application.

    Parameters
    ----------
    t_range:
        Bounds of the task parameter (paper tasks: ``t = 0, 0.5, …, 9.5``).
    model_noise:
        Amplitude of the noisy performance model ``ỹ = (1 + a·r(x))·y``
        used in Fig. 4 left (paper: ``a = 0.1``).
    """

    name = "analytical"
    n_objectives = 1
    objective_names = ("value",)

    def __init__(self, t_range=(0.0, 10.0), model_noise: float = 0.1, **kw):
        super().__init__(**kw)
        self.t_range = (float(t_range[0]), float(t_range[1]))
        self.model_noise = float(model_noise)

    def task_space(self) -> Space:
        return Space([Real("t", self.t_range[0], self.t_range[1])])

    def tuning_space(self) -> Space:
        return Space([Real("x", 0.0, 1.0)])

    def default_config(self, task: Mapping[str, Any]) -> Dict[str, Any]:
        return {"x": 0.5}

    def run(self, task: Mapping[str, Any], config: Mapping[str, Any], repeat: int) -> float:
        return float(analytical_function(task["t"], config["x"]))

    def models(self):
        """The Fig. 4 noisy model: the objective scaled by ``1 + a·r(x)``."""

        def noisy_model(task: Mapping[str, Any], config: Mapping[str, Any]) -> float:
            r = noise_rng(self.seed + 7, task, config).normal()
            return float(
                (1.0 + self.model_noise * r) * analytical_function(task["t"], config["x"])
            )

        return [CallableModel(noisy_model)]

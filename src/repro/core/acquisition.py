"""Acquisition functions for the search phase.

The search phase of Algorithm 1 maximizes *Expected Improvement* (EI) over
the posterior of the LCM, task by task.  For minimization with incumbent
``y_best``,

.. math::

    EI(x) = (y_{best} - \\mu(x))\\,\\Phi(z) + \\sigma(x)\\,\\phi(z),
    \\qquad z = (y_{best} - \\mu(x)) / \\sigma(x),

which balances exploitation (low predicted mean) and exploration (high
predicted variance).  A small helper also provides the scalarized
Pareto-improvement score used to rank candidates in multi-objective mode.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np
from scipy import special

__all__ = ["expected_improvement", "EIAcquisition", "BatchedEIAcquisition"]

#: scipy.stats' own normalization constant for the standard normal pdf
_SQRT_2PI = np.sqrt(2.0 * np.pi)


def expected_improvement(mu: np.ndarray, var: np.ndarray, y_best) -> np.ndarray:
    """Vectorized EI for minimization (any shape, float64 output).

    Parameters
    ----------
    mu, var:
        Posterior mean and variance at the candidate points; arrays of any
        matching shape (the batched search path passes ``(n_tasks, N*)``).
    y_best:
        Incumbent (best observed) objective value — a scalar, or an array
        broadcastable against ``mu`` (e.g. ``(n_tasks, 1)`` per-task
        incumbents).

    Points with (numerically) zero variance get the deterministic
    improvement ``max(y_best - mu, 0)``; a batch whose variances are all
    zero returns that directly without touching the normal CDF/PDF.

    The normal CDF and PDF are ``scipy.special.ndtr`` and the explicit
    density — exactly what ``scipy.stats.norm.cdf/pdf`` dispatch to, so the
    values are bit-identical without the distribution-object overhead on
    every optimizer step.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.sqrt(np.maximum(np.asarray(var, dtype=float), 0.0))
    imp = np.asarray(y_best, dtype=float) - mu
    out = np.maximum(imp, 0.0)
    pos = sigma > 1e-12
    if not pos.any():
        return out
    z = imp[pos] / sigma[pos]
    out[pos] = imp[pos] * special.ndtr(z) + sigma[pos] * (np.exp(-(z**2) / 2.0) / _SQRT_2PI)
    return np.maximum(out, 0.0, out=out)


class BatchedEIAcquisition:
    """EI over a task axis: every task's candidate block in one posterior call.

    The lockstep search phase advances all active tasks' swarms together and
    scores them with a single cross-task posterior evaluation
    (:meth:`repro.core.lcm.LCM.predict_tasks`) instead of ``n_tasks``
    separate one-task calls per optimizer step; :class:`EIAcquisition` is
    its one-task view.

    Parameters
    ----------
    predict_tasks:
        Callable ``(n_tasks, N*, β) -> (mu, var)`` with both outputs shaped
        ``(n_tasks, N*)`` — e.g. ``lambda X: lcm.predict_tasks(tasks, X)``.
    y_best:
        ``(n_tasks,)`` per-task incumbent objective values (in the
        surrogate's transformed units), aligned with ``predict_tasks``'s
        task order.
    feasibility:
        Optional sequence of per-task vectorized predicates over normalized
        points (``None`` entries mean unconstrained); infeasible candidates
        get EI = -inf.
    """

    def __init__(
        self,
        predict_tasks: Callable[[np.ndarray], tuple],
        y_best: np.ndarray,
        feasibility: Optional[Sequence[Optional[Callable]]] = None,
    ):
        self.predict_tasks = predict_tasks
        self.y_best = np.asarray(y_best, dtype=float).ravel()
        self.feasibility = feasibility

    def __call__(self, Xunit: np.ndarray) -> np.ndarray:
        """EI at ``(n_tasks, N*, β)`` blocks → ``(n_tasks, N*)`` scores."""
        Xunit = np.asarray(Xunit, dtype=float)
        if Xunit.ndim != 3 or Xunit.shape[0] != self.y_best.shape[0]:
            raise ValueError("expected (n_tasks, n_points, dim) candidate blocks")
        mu, var = self.predict_tasks(Xunit)
        ei = expected_improvement(mu, var, self.y_best[:, None])
        if self.feasibility is not None:
            for t, feas in enumerate(self.feasibility):
                if feas is None:
                    continue
                ok = np.asarray(feas(Xunit[t]), dtype=bool)
                ei[t] = np.where(ok, ei[t], -np.inf)
        return ei


class EIAcquisition(BatchedEIAcquisition):
    """EI bound to one task of a fitted surrogate: the one-task view of
    :class:`BatchedEIAcquisition` (bitwise the same scores).

    Parameters
    ----------
    predict:
        Callable ``(N*, β) -> (mu, var)`` — e.g.
        ``functools.partial(lcm.predict, task)``.
    y_best:
        Incumbent objective value (in the surrogate's transformed units).
    feasibility:
        Optional vectorized predicate over normalized points; infeasible
        candidates are assigned EI = -inf so optimizers avoid them.
    """

    def __init__(
        self,
        predict: Callable[[np.ndarray], tuple],
        y_best: float,
        feasibility: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ):
        super().__init__(self._predict_block, [float(y_best)], [feasibility])
        self.predict = predict

    def _predict_block(self, Xunit: np.ndarray) -> tuple:
        mu, var = self.predict(Xunit[0])
        return np.asarray(mu)[None], np.asarray(var)[None]

    def __call__(self, Xunit: np.ndarray) -> np.ndarray:
        """EI at a batch of normalized points ``(N*, β)`` (higher is better)."""
        return super().__call__(np.atleast_2d(np.asarray(Xunit, dtype=float))[None])[0]

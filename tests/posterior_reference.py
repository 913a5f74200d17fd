"""Dense reference posteriors, independent of the surrogates' ``predict_tasks``.

Each surrogate computes its posterior in one kernel, ``predict_tasks``
(``predict`` is a one-task view of it), so comparing the two checks a
function against itself.  These functions rebuild the posterior of one task
the textbook way instead — explicit cross-covariance assembly, triangular
solves on the fitted factors — from the pieces the fit and ``extend`` paths
already use:

* :func:`lcm_posterior` — Eqs. 5–6 of the exact LCM, with the cross
  covariance from ``LCMParams.cov`` (the block-append update's own
  assembly) over the per-dimension squared differences, and the fitted
  ``_L``/``_alpha``;
* :func:`sparse_posterior` — the DTC mean and variance of ``SparseLCM``
  from ``SparseLCM._cov`` against the inducing rows and the fitted
  ``_Lm``/``_La``/``_c``.

The search-phase tests and ``benchmarks/bench_ablation_search.py --check``
hold ``predict_tasks`` to these within 1e-10.
"""

import numpy as np
from scipy import linalg as sla

from repro.core.kernels import pairwise_sq_diffs


def _prior(cov, x: np.ndarray, task: np.ndarray) -> float:
    # k(x, x) of the task: the covariance of one point with itself
    return float(cov(x[:1], task[:1], x[:1], task[:1])[0, 0])


def lcm_posterior(model, task: int, Xstar: np.ndarray):
    """``(mu, var)`` of ``task`` at ``Xstar (N*, β)`` for a fitted :class:`LCM`."""
    Xs = np.atleast_2d(np.asarray(Xstar, dtype=float))
    rows = np.full(Xs.shape[0], int(task))

    def cov(Xa, ta, Xb, tb):
        return model.params.cov(model.theta, pairwise_sq_diffs(Xa, Xb), ta, tb)

    Kstar = cov(Xs, rows, model.X, model.task_index)  # (N*, N)
    mu = Kstar @ model._alpha
    v = sla.solve_triangular(model._L, Kstar.T, lower=True)
    var = _prior(cov, Xs, rows) - np.sum(v * v, axis=0)
    return mu, np.maximum(var, 0.0)


def sparse_posterior(model, task: int, Xstar: np.ndarray):
    """``(mu, var)`` of ``task`` at ``Xstar (N*, β)`` for a fitted ``SparseLCM``."""
    Xs = np.atleast_2d(np.asarray(Xstar, dtype=float))
    rows = np.full(Xs.shape[0], int(task))
    Ksm = model._cov(Xs, rows, model.Z, model.z_index)  # (N*, M)
    mu = Ksm @ model._c
    v1 = sla.solve_triangular(model._Lm, Ksm.T, lower=True)
    v2 = sla.solve_triangular(model._La, Ksm.T, lower=True)
    var = _prior(model._cov, Xs, rows) - np.sum(v1 * v1, axis=0) + np.sum(v2 * v2, axis=0)
    return mu, np.maximum(var, 0.0)

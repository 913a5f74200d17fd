"""Single-task Gaussian-process regression.

This is the ``δ = 1`` surrogate used by GPTune's single-task mode (the
baseline the paper compares MLA against in Sec. 6.5) and a building block the
LCM generalizes.  A zero-mean GP with ARD squared-exponential kernel,

.. math::  f(x) \\sim GP(0, \\sigma_f^2 k(x, x') + \\sigma_n^2 \\delta_{x,x'}),

is fitted by maximizing the log marginal likelihood over
``(log σ_f, log l_1..l_β, log σ_n)`` with multi-start L-BFGS-B and analytic
gradients (Sec. 3.1, modeling phase).  Each restart runs through the direct
``setulb`` driver :func:`repro.core.lbfgsb.minimize`, which reproduces
scipy's L-BFGS-B ``minimize`` bit for bit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy import linalg as sla

from . import lbfgsb
from .kernels import gaussian_kernel, gaussian_kernel_with_grad, pairwise_sq_diffs

__all__ = ["GaussianProcess"]


def _chol_with_jitter(A: np.ndarray, jitter: float) -> Tuple[np.ndarray, float]:
    """Cholesky factor of ``A + jitter*I``, escalating jitter on failure."""
    n = A.shape[0]
    j = jitter
    for _ in range(8):
        try:
            return sla.cholesky(A + j * np.eye(n), lower=True), j
        except sla.LinAlgError:
            j = max(j, 1e-12) * 10.0
    raise sla.LinAlgError("covariance not positive definite even with jitter")


class GaussianProcess:
    """Exact GP regression with MLE hyperparameters.

    Parameters
    ----------
    jitter:
        Base diagonal regularization.
    n_start:
        Random restarts of the likelihood optimization.
    maxiter:
        L-BFGS-B iteration cap per restart.
    seed:
        Seed for the restart initializations.
    """

    def __init__(
        self,
        jitter: float = 1e-8,
        n_start: int = 3,
        maxiter: int = 200,
        seed: Optional[int] = None,
    ):
        self.jitter = float(jitter)
        self.n_start, self.maxiter = lbfgsb.check_restarts(n_start, maxiter)
        self.rng = np.random.default_rng(seed)
        # fitted state
        self.X: Optional[np.ndarray] = None
        self.y: Optional[np.ndarray] = None
        self.theta: Optional[np.ndarray] = None  # log [σ_f², l_1..l_β, σ_n²]
        self._L: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self.log_likelihood_: float = -np.inf

    # -- likelihood ------------------------------------------------------
    def _nll_and_grad(
        self, theta: np.ndarray, sqd: np.ndarray, y: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Negative log marginal likelihood and gradient in log-parameters."""
        n = y.shape[0]
        sf2 = np.exp(theta[0])
        ls = np.exp(theta[1:-1])
        sn2 = np.exp(theta[-1])
        K, dK_dlogl = gaussian_kernel_with_grad(sqd, ls, variance=1.0)
        Ky = sf2 * K + (sn2 + self.jitter) * np.eye(n)
        try:
            L = sla.cholesky(Ky, lower=True)
        except sla.LinAlgError:
            return 1e25, np.zeros_like(theta)
        alpha = sla.cho_solve((L, True), y)
        nll = 0.5 * float(y @ alpha) + float(np.log(np.diag(L)).sum()) + 0.5 * n * np.log(2 * np.pi)
        # M = αα^T - K^{-1};  dNLL/dθ = -0.5 tr(M dK/dθ)
        Kinv = sla.cho_solve((L, True), np.eye(n))
        M = np.outer(alpha, alpha) - Kinv
        grad = np.empty_like(theta)
        grad[0] = -0.5 * float(np.sum(M * (sf2 * K)))  # ∂K/∂log σ_f² = σ_f² K
        for j in range(ls.shape[0]):
            grad[1 + j] = -0.5 * float(np.sum(M * (sf2 * dK_dlogl[j])))
        grad[-1] = -0.5 * sn2 * float(np.trace(M))
        return nll, grad

    # -- fitting -----------------------------------------------------------
    def fit(
        self, X: np.ndarray, y: np.ndarray, theta0: Optional[np.ndarray] = None
    ) -> "GaussianProcess":
        """Fit hyperparameters to ``(X, y)`` (X normalized, y centered or raw).

        ``theta0`` optionally warm-starts the first restart from a known-good
        hyperparameter vector (e.g. the previous MLA iteration's fit for the
        same task), mirroring :meth:`repro.core.lcm.LCM.fit`; with
        ``n_start=1`` the multi-start search reduces to one L-BFGS run.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y row counts differ")
        if X.shape[0] < 1:
            raise ValueError("need at least one observation")
        beta = X.shape[1]
        sqd = pairwise_sq_diffs(X)
        yvar = max(float(np.var(y)), 1e-12)
        if theta0 is not None:
            theta0 = np.asarray(theta0, dtype=float).ravel()
            if theta0.shape != (beta + 2,):
                raise ValueError(
                    f"theta0 has {theta0.shape[0]} entries, expected {beta + 2}"
                )
        warm = theta0
        bounds = (np.full(beta + 2, -20.0), np.full(beta + 2, 20.0))

        best_nll, best_theta = np.inf, None
        for s in range(self.n_start):
            if s == 0 and warm is not None:
                theta0 = warm
            elif s == 0:
                theta0 = np.concatenate(
                    [[np.log(yvar)], np.log(np.full(beta, 0.3)), [np.log(yvar * 1e-4 + 1e-10)]]
                )
            else:
                theta0 = np.concatenate(
                    [
                        [np.log(yvar) + self.rng.normal(0, 1)],
                        self.rng.normal(np.log(0.3), 0.7, beta),
                        [np.log(yvar * 1e-4 + 1e-10) + self.rng.normal(0, 1)],
                    ]
                )
            res = lbfgsb.minimize(
                self._nll_and_grad, theta0, args=(sqd, y), bounds=bounds, maxiter=self.maxiter
            )
            if res.fun < best_nll:
                best_nll, best_theta = res.fun, res.x

        assert best_theta is not None
        self.X, self.y, self.theta = X, y, best_theta
        self.log_likelihood_ = -best_nll
        sf2 = np.exp(best_theta[0])
        ls = np.exp(best_theta[1:-1])
        sn2 = np.exp(best_theta[-1])
        Ky = sf2 * gaussian_kernel(sqd, ls) + (sn2 + self.jitter) * np.eye(X.shape[0])
        self._L, _ = _chol_with_jitter(Ky, 0.0)
        self._alpha = sla.cho_solve((self._L, True), y)
        return self

    # -- prediction -----------------------------------------------------------
    def predict(self, Xstar: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance (Eqs. 5–6 with δ = 1).

        Returns ``(mu, var)`` each of shape ``(N*,)``; variances are clipped
        at zero.
        """
        if self.theta is None or self.X is None:
            raise RuntimeError("predict() before fit()")
        Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
        sf2 = np.exp(self.theta[0])
        ls = np.exp(self.theta[1:-1])
        Ks = sf2 * gaussian_kernel(pairwise_sq_diffs(Xstar, self.X), ls)
        mu = Ks @ self._alpha
        v = sla.solve_triangular(self._L, Ks.T, lower=True)
        var = sf2 - np.einsum("ij,ij->j", v, v)
        return mu, np.maximum(var, 0.0)

    @property
    def lengthscales(self) -> np.ndarray:
        """Fitted ARD lengthscales."""
        if self.theta is None:
            raise RuntimeError("not fitted")
        return np.exp(self.theta[1:-1])

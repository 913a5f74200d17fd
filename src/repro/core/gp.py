"""Single-task Gaussian-process regression: the LCM at δ = 1.

This is the ``δ = 1`` surrogate used by GPTune's single-task mode (the
baseline the paper compares MLA against in Sec. 6.5).  A zero-mean GP with
an ARD squared-exponential kernel and noise is exactly the LCM of Eq. 4
with one task and one latent GP (Sid-Lakhdar et al., arXiv 1908.05792):
the signal variance is ``a² + b`` and the noise ``d``.  So
:class:`GaussianProcess` is a thin one-task view over
:class:`~repro.core.lcm.LCM` ``(1, β, n_latent=1)``: the likelihood, its
gradient, the lockstep multi-start L-BFGS, the jittered Cholesky and the
posterior are the LCM's.  Its θ has the
:class:`~repro.core.posterior.LCMParams` ``(1, β, 1)`` layout, ``β + 3``
entries: ``log l_1..l_β``, ``a``, ``log b``, ``log d``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .lbfgsb import check_restarts
from .lcm import LCM

__all__ = ["GaussianProcess"]


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
        Seed for the restart initializations; successive fits of one
        instance keep drawing from the same stream.

    Attributes
    ----------
    lcm:
        The fitted one-task :class:`~repro.core.lcm.LCM` (``None`` before
        :meth:`fit` or :meth:`refit_at`).
    """

    def __init__(
        self,
        jitter: float = 1e-8,
        n_start: int = 3,
        maxiter: int = 200,
        seed: Optional[int] = None,
    ):
        self.jitter = float(jitter)
        self.n_start, self.maxiter = check_restarts(n_start, maxiter)
        self.rng = np.random.default_rng(seed)
        self.lcm: Optional[LCM] = None

    def _model(self, X: np.ndarray) -> Tuple[LCM, np.ndarray, np.ndarray]:
        """A fresh one-task LCM for inputs ``X``, and ``(X, task_index)``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        # seeded with this instance's Generator, which default_rng passes
        # through: successive fits draw their restarts from one stream
        lcm = LCM(1, X.shape[1], n_latent=1, jitter=self.jitter,
                  n_start=self.n_start, maxiter=self.maxiter, seed=self.rng)
        return lcm, X, np.zeros(X.shape[0], dtype=int)

    def fit(
        self, X: np.ndarray, y: np.ndarray, theta0: Optional[np.ndarray] = None
    ) -> "GaussianProcess":
        """Fit hyperparameters to ``(X, y)`` (X normalized, y centered or raw).

        ``theta0`` optionally warm-starts the first restart from a known-good
        hyperparameter vector (e.g. the previous MLA iteration's fit for the
        same task), as in :meth:`repro.core.lcm.LCM.fit`; with
        ``n_start=1`` the multi-start search reduces to one L-BFGS run.
        """
        lcm, X, tidx = self._model(X)
        self.lcm = lcm.fit(X, y, tidx, theta0=theta0)
        return self

    def refit_at(self, X: np.ndarray, y: np.ndarray, theta: np.ndarray) -> "GaussianProcess":
        """The posterior of ``(X, y)`` at a known θ (:meth:`LCM.refit_at`)."""
        lcm, X, tidx = self._model(X)
        self.lcm = lcm.refit_at(X, y, tidx, theta)
        return self

    def extend(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Append observations without refitting θ (:meth:`LCM.extend`)."""
        if self.lcm is None:
            raise RuntimeError("extend() before fit()")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        self.lcm.extend(X, y, np.zeros(X.shape[0], dtype=int))
        return self

    def predict(self, Xstar: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance (Eqs. 5–6 with δ = 1).

        Returns ``(mu, var)`` each of shape ``(N*,)``; variances are clipped
        at zero.
        """
        if self.lcm is None:
            raise RuntimeError("predict() before fit()")
        return self.lcm.predict(0, Xstar)

    @property
    def theta(self) -> Optional[np.ndarray]:
        """Fitted θ in the ``LCMParams(1, β, 1)`` layout, or ``None``."""
        return None if self.lcm is None else self.lcm.theta

    @property
    def log_likelihood_(self) -> float:
        """Log marginal likelihood of the fitted posterior (``-inf`` unfitted)."""
        return -np.inf if self.lcm is None else self.lcm.log_likelihood_

    @property
    def lengthscales(self) -> np.ndarray:
        """Fitted ARD lengthscales."""
        if self.lcm is None:
            raise RuntimeError("not fitted")
        return self.lcm.params.unpack(self.lcm.theta)[0][0]

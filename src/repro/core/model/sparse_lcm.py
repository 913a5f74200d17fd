"""Sparse inducing-point approximation of the LCM posterior.

The exact :class:`~repro.core.lcm.LCM` costs O(N³) per fit and O(N) memory
per prediction column; ``model.fit`` is ~98% of the modeling phase once a
campaign (or a crowd-tuning archive feeding it) accumulates a few hundred
observations.  :class:`SparseLCM` breaks that wall with the classic
**subset-of-regressors / deterministic-training-conditional (SoR/DTC)**
construction over a shared inducing set of ``M ≪ N`` stacked rows:

* the inducing rows ``Z`` (configuration + task id) are picked from the
  data by deterministic greedy max-min selection
  (:func:`~repro.core.model.inducing.select_inducing`);
* hyperparameters θ of the same :class:`~repro.core.posterior.LCMParams`
  model as the exact solver's (θ, its bounds, the covariance blocks and
  :meth:`task_correlation` are one code path) are estimated by an
  **inner exact LCM fit on the inducing subset** — O(M³), reusing the
  vectorized likelihood, multi-start machinery, warm starts and
  scheduler-mapped restart groups of the exact path unchanged;
* the posterior over all N observations uses the Nyström approximation
  ``Σ ≈ K_nm K_mm⁻¹ K_mn + Λ`` with ``Λ = diag(d_{t_n})``, giving

  .. math::

      A = K_{mm} + K_{nm}^T \\Lambda^{-1} K_{nm}, \\qquad
      \\mu_* = K_{*m} A^{-1} K_{nm}^T \\Lambda^{-1} y,

  and the DTC predictive variance
  ``σ²_* = prior − ‖L_m⁻¹ k_*‖² + ‖L_A⁻¹ k_*‖²`` — an **O(N·M²) fit** (one
  GEMM to build ``A``) and **O(M²) per prediction point**, independent of N.

All cross-covariances are :meth:`LCMParams.cov
<repro.core.posterior.LCMParams.cov>` blocks, the assembly the exact
model's block-append :meth:`LCM.extend` uses.  The class is
interface-compatible with :class:`LCM` where the MLA driver cares:
``fit/extend/predict/predict_tasks``, the
``params``/``theta``/``log_likelihood_`` attributes (θ is transferable
between exact and sparse fits, so warm starts survive backend
escalation), deep-copyability for the constant-liar pending penalty, and
pickling for checkpoints.

:meth:`extend` implements streaming absorption for the async engine with
the inducing set held fixed: appending ``n_new`` rows is a rank-M update
``A += K_new,m^T Λ_new^{-1} K_new,m`` plus one M×M refactorization —
O(n_new·M² + M³), no L-BFGS — the sparse analogue of
:meth:`LCM.extend`'s block-Cholesky update.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import linalg as sla

from ..kernels import pairwise_sq_diffs
from ..lbfgsb import check_restarts
from ..lcm import LCM
from ..posterior import LCMParams, chol_escalate, observations, task_block, task_weights
from ...observability.spans import maybe_span
from .inducing import select_inducing

__all__ = ["SparseLCM", "jitter_ceiling"]


def jitter_ceiling(A: np.ndarray) -> float:
    """Give-up point ``max(1, 1e-6·max|A_ii|)`` of the sparse solver's
    escalating Cholesky jitter.

    Round-off in ``A = K_mm + K_nmᵀΛ⁻¹K_nm`` scales with its entries, so an
    absolute ceiling cannot repair an ``A`` whose diagonal reaches 1e17,
    while a millionth of the largest diagonal entry is still a small
    relative perturbation.  Below 1.0 this is the exact solver's ceiling.
    """
    return max(1.0, 1e-6 * float(np.abs(A.diagonal()).max(initial=0.0)))


class SparseLCM:
    """Multitask GP surrogate: shared-inducing-set Nyström/SoR LCM.

    Parameters mirror :class:`~repro.core.lcm.LCM` (the inner subset fit
    receives them unchanged) plus:

    n_inducing:
        M — inducing-set size cap; fits on ``N ≤ M`` observations collapse
        to the exact subset fit on all rows.

    Attributes
    ----------
    Z, z_index:
        The inducing rows ``(M, β)`` and their task ids ``(M,)``.
    log_likelihood_:
        The DTC log marginal likelihood of *all* N observations under the
        sparse posterior (not the inner subset fit's) — comparable across
        extends and usable by the driver's divergence check.
    """

    def __init__(
        self,
        n_tasks: int,
        n_dims: int,
        n_latent: Optional[int] = None,
        n_inducing: int = 128,
        jitter: float = 1e-8,
        n_start: int = 3,
        maxiter: int = 200,
        seed: Optional[int] = None,
        executor=None,
        restart_offset: int = 0,
    ):
        self.params = LCMParams(n_tasks, n_dims, n_latent)
        if int(n_inducing) < 2:
            raise ValueError("need n_inducing >= 2")
        self.n_inducing = int(n_inducing)
        self.jitter = float(jitter)
        self.n_start, self.maxiter = check_restarts(n_start, maxiter)
        self.seed = seed
        self.executor = executor
        self.restart_offset = max(0, int(restart_offset))
        # fitted state
        self.X: Optional[np.ndarray] = None
        self.y: Optional[np.ndarray] = None
        self.task_index: Optional[np.ndarray] = None
        self.theta: Optional[np.ndarray] = None
        self.Z: Optional[np.ndarray] = None
        self.z_index: Optional[np.ndarray] = None
        self._Lm: Optional[np.ndarray] = None  # chol(K_mm + jitter I)
        self._La: Optional[np.ndarray] = None  # chol(A)
        self._c: Optional[np.ndarray] = None  # A^{-1} K_nm^T Λ^{-1} y
        self._A: Optional[np.ndarray] = None
        self._rhs: Optional[np.ndarray] = None
        self._lam_floor = 0.0  # conditioning floor on Λ, set per fit
        self._yly = 0.0  # y^T Λ^{-1} y accumulator
        self._loglam = 0.0  # Σ log Λ accumulator
        self._logdet_mm = 0.0  # log|K_mm + jitter I|
        self.log_likelihood_: float = -np.inf
        self.jitter_used_: float = float(jitter)
        # caches (never pickled; rebuilt on demand)
        self._pred_cache: dict = {}
        self._batch_cache: dict = {}

    def __getstate__(self):
        # schedulers hold process-local pools; prediction caches are droppable
        state = self.__dict__.copy()
        state["executor"] = None
        state["_pred_cache"] = {}
        state["_batch_cache"] = {}
        return state

    # -- covariance assembly ------------------------------------------------
    def _cov(self, Xa: np.ndarray, ta: np.ndarray, Xb: np.ndarray, tb: np.ndarray) -> np.ndarray:
        """Noise-free :meth:`LCMParams.cov` block (the noise enters Λ only)."""
        return self.params.cov(self.theta, pairwise_sq_diffs(Xa, Xb), ta, tb)

    # -- public API ---------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        task_index: Sequence[int],
        theta0: Optional[np.ndarray] = None,
    ) -> "SparseLCM":
        """Select inducing rows, fit θ on the subset, assemble the posterior.

        Arguments are exactly :meth:`LCM.fit`'s; ``theta0`` warm-starts the
        inner subset fit (a θ from a previous exact *or* sparse fit — the
        flat layout is shared).
        """
        X, y, tidx = observations(X, y, task_index, self.params.delta, self.params.beta)

        # Λ floor: the inner subset fit often drives the per-task noise d_i
        # to ~0 (M points are easy to interpolate), which makes Λ⁻¹ — and
        # with it A = K_mm + K_nmᵀΛ⁻¹K_nm — blow up and the posterior
        # solve lose most of its digits.  Flooring Λ at a small fraction of
        # the observed variance costs negligible bias and keeps A's
        # condition number bounded.
        self._lam_floor = 1e-3 * float(np.var(y)) if y.shape[0] > 1 else 0.0

        sel = select_inducing(X, tidx, min(self.n_inducing, X.shape[0]))
        inner = LCM(
            n_tasks=self.params.delta,
            n_dims=self.params.beta,
            n_latent=self.params.Q,
            jitter=self.jitter,
            n_start=self.n_start,
            maxiter=self.maxiter,
            seed=self.seed,
            executor=self.executor,
            restart_offset=self.restart_offset,
        )
        inner.fit(X[sel], y[sel], tidx[sel], theta0=theta0)

        self.theta = inner.theta
        self.X, self.y, self.task_index = X, y, tidx
        self.Z, self.z_index = X[sel].copy(), tidx[sel].copy()
        self._pred_cache = {}
        self._batch_cache = {}
        with maybe_span(
            "model.sparse_assemble", n=int(X.shape[0]), m=int(sel.shape[0])
        ):
            self._assemble()
        return self

    def _assemble(self) -> None:
        """Build the SoR posterior factors from scratch (O(N·M²))."""
        _, _, _, dn = self.params.unpack(self.theta)
        M = self.Z.shape[0]
        Kmm = self._cov(self.Z, self.z_index, self.Z, self.z_index)
        Kmm[np.diag_indices(M)] += self.jitter
        self._Lm, jm = chol_escalate(Kmm, self.jitter, jitter_ceiling(Kmm))
        self.jitter_used_ = max(self.jitter, jm)
        self._logdet_mm = 2.0 * float(np.log(np.diag(self._Lm)).sum())

        Knm = self._cov(self.X, self.task_index, self.Z, self.z_index)
        lam = np.maximum(dn[self.task_index], self._lam_floor) + self.jitter_used_
        self._A = Kmm + Knm.T @ (Knm / lam[:, None])
        self._rhs = Knm.T @ (self.y / lam)
        self._yly = float(self.y @ (self.y / lam))
        self._loglam = float(np.log(lam).sum())
        self._factorize()

    def _factorize(self) -> None:
        """Refactorize A, refresh the weight vector and the DTC likelihood."""
        self._La, _ = chol_escalate(self._A, self.jitter, jitter_ceiling(self._A))
        self._c = sla.cho_solve((self._La, True), self._rhs)
        N = self.y.shape[0]
        quad = self._yly - float(self._rhs @ self._c)
        logdet = (
            2.0 * float(np.log(np.diag(self._La)).sum())
            - self._logdet_mm
            + self._loglam
        )
        self.log_likelihood_ = -0.5 * quad - 0.5 * logdet - 0.5 * N * np.log(2 * np.pi)

    def extend(
        self, Xnew: np.ndarray, ynew: np.ndarray, tidx_new: Sequence[int]
    ) -> "SparseLCM":
        """Absorb new observations with θ and the inducing set held fixed.

        A rank-M information update: ``A += K_new,m^T Λ_new^{-1} K_new,m``,
        ``rhs += K_new,m^T Λ_new^{-1} y_new``, then one M×M refactorization
        — O(n_new·M² + M³), the streaming analogue of :meth:`LCM.extend`.
        """
        if self.theta is None or self._A is None:
            raise RuntimeError("extend() before fit()")
        p = self.params
        Xnew, ynew, tnew = observations(Xnew, ynew, tidx_new, p.delta, p.beta, extend=True)
        if Xnew.shape[0] == 0:
            return self
        with maybe_span(
            "model.extend", n_old=int(self.X.shape[0]), n_new=int(Xnew.shape[0])
        ):
            _, _, _, dn = self.params.unpack(self.theta)
            Knew = self._cov(Xnew, tnew, self.Z, self.z_index)
            lam = np.maximum(dn[tnew], self._lam_floor) + self.jitter_used_
            self._A += Knew.T @ (Knew / lam[:, None])
            self._rhs += Knew.T @ (ynew / lam)
            self._yly += float(ynew @ (ynew / lam))
            self._loglam += float(np.log(lam).sum())
            self.X = np.vstack([self.X, Xnew])
            self.y = np.concatenate([self.y, ynew])
            self.task_index = np.concatenate([self.task_index, tnew])
            self._factorize()
            self._pred_cache = {}
            self._batch_cache = {}
        return self

    def _cross_kernels(self, flat: np.ndarray) -> np.ndarray:
        """``exp(−Σ_b sqd_b / 2ℓ²)`` base kernels ``(Q, n, M)`` vs inducing."""
        ls = self.params.unpack(self.theta)[0]
        inv2 = 0.5 / (ls * ls)
        sqd = pairwise_sq_diffs(flat, self.Z)
        n, M = flat.shape[0], self.Z.shape[0]
        E = np.matmul(inv2, sqd.reshape(n * M, self.params.beta).T)
        np.negative(E, out=E)
        np.exp(E, out=E)
        return E.reshape(self.params.Q, n, M)

    def predict(self, task: int, Xstar: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """DTC posterior mean and variance for one task — O(M²) per point;
        a one-task view of :meth:`predict_tasks`."""
        mu, var = self.predict_tasks([task], np.atleast_2d(Xstar))
        return mu[0], var[0]

    def predict_tasks(
        self, tasks: Sequence[int], Xstar: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Cross-task DTC posterior, same contract as
        :meth:`LCM.predict_tasks` — one kernel evaluation against the M
        inducing rows serves every task (shared ``(N*, β)`` block or
        per-task ``(n_tasks, N*, β)`` blocks).  The model's only posterior
        kernel: :meth:`predict` is its one-task view.
        """
        if self.theta is None or self._c is None:
            raise RuntimeError("predict_tasks() before fit()")
        task_ids, Xs = task_block(tasks, Xstar, self.params.delta)
        per_task_blocks = Xs.ndim == 3
        T, ns, M = len(task_ids), Xs.shape[-2], self.Z.shape[0]
        flat = Xs.reshape(-1, Xs.shape[-1])
        with maybe_span("model.predict_tasks", aggregate=True):
            cached = self._batch_cache.get(tuple(task_ids))
            if cached is None:
                weights = [task_weights(self, self.z_index, t) for t in task_ids]
                W = np.stack([w for _, w, _ in weights])  # (T, Q, M)
                prior = np.array([p for _, _, p in weights])  # (T,)
                self._batch_cache[tuple(task_ids)] = (W, prior)
            else:
                W, prior = cached
            E = self._cross_kernels(flat)  # (Q, T*ns or ns, M)
            if per_task_blocks:
                Kstar = np.einsum(
                    "qtsm,tqm->tsm", E.reshape(self.params.Q, T, ns, M), W
                )
            else:
                Kstar = np.einsum("qsm,tqm->tsm", E, W)
            mu = Kstar @ self._c  # (T, ns)
            Kflat = Kstar.reshape(T * ns, M).T
            v1, info1 = sla.lapack.dtrtrs(self._Lm, Kflat, lower=1)
            v2, info2 = sla.lapack.dtrtrs(self._La, Kflat, lower=1)
            if info1 != 0 or info2 != 0:
                raise np.linalg.LinAlgError("triangular solve failed")
            var = (
                prior[:, None]
                - np.einsum("ij,ij->j", v1, v1).reshape(T, ns)
                + np.einsum("ij,ij->j", v2, v2).reshape(T, ns)
            )
        return mu, np.maximum(var, 0.0)

    def task_correlation(self) -> np.ndarray:
        """Fitted between-task correlation matrix (:meth:`LCMParams.correlation`)."""
        if self.theta is None:
            raise RuntimeError("not fitted")
        return self.params.correlation(self.theta)

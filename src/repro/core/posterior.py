"""The coregionalization model and the checks every surrogate backend shares.

The paper's Sec. 3.1 defines one multitask model, the LCM covariance of
Eq. 4 with ``B_q = a_q a_qᵀ + diag(b_q)``.  The exact
:class:`~repro.core.lcm.LCM` and the inducing-point
:class:`~repro.core.model.sparse_lcm.SparseLCM` are two solvers for it, so
the model itself lives here once, as :class:`LCMParams`: the shape
``(δ, β, Q)`` and its checks, the flat θ layout and its bounds, the
noise-free covariance block :meth:`LCMParams.cov` and the task-correlation
diagnostic.  Both solvers hold one as ``self.params``.

Every backend (the two above and
:class:`~repro.core.model.gp_backend.PerTaskGP`) validates its fit and
extend arguments through :func:`observations` and its posterior call,
``predict_tasks(tasks, Xstar)``, through :func:`task_block`;
:func:`task_weights` caches the per-task coregionalization weights of the
two LCM solvers, and :func:`chol_escalate` is their jittered Cholesky.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import linalg as sla

from .kernels import gaussian_kernel_batch

__all__ = ["LCMParams", "chol_escalate", "observations", "task_block", "task_weights"]


class LCMParams:
    """The LCM of Eq. 4 over ``δ`` tasks, ``β`` input dimensions and ``Q``
    latent GPs, and its flat hyperparameter vector θ.

    ``Q`` defaults to ``min(δ, 3)``; the constructor raises ``ValueError``
    unless ``δ, β ≥ 1`` and ``1 ≤ Q ≤ δ``.

    Layout of ``theta`` (all optimizer variables are unconstrained):

    * ``theta[0 : Q*β]``             — ``log l_j^q`` (latent-major),
    * ``theta[Q*β : Q*β + δ*Q]``     — ``a_{i,q}`` (task-major),
    * ``theta[… : … + δ*Q]``         — ``log b_{i,q}``,
    * ``theta[-δ:]``                 — ``log d_i``.

    :meth:`unpack` and :meth:`pack_grad` also take ``R`` stacked rows
    ``(R, P)``, putting a leading ``R`` axis on every block.
    """

    def __init__(self, n_tasks: int, n_dims: int, n_latent: Optional[int] = None):
        if n_tasks < 1 or n_dims < 1:
            raise ValueError("need n_tasks >= 1 and n_dims >= 1")
        Q = min(n_tasks, 3) if n_latent is None else int(n_latent)
        if Q < 1 or Q > n_tasks:
            raise ValueError(f"need 1 <= Q <= δ, got Q={Q}, δ={n_tasks}")
        self.delta, self.beta, self.Q = int(n_tasks), int(n_dims), Q

    @property
    def size(self) -> int:
        """Total number of scalar hyperparameters."""
        return self.Q * self.beta + 2 * self.delta * self.Q + self.delta

    def vector(self, theta, name: str = "theta") -> np.ndarray:
        """``theta`` as a float vector of :attr:`size` entries; ``ValueError``
        (naming the argument ``name``) when it has another length."""
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.shape != (self.size,):
            raise ValueError(f"{name} has {theta.shape[0]} entries, expected {self.size}")
        return theta

    def unpack(self, theta: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Split ``theta`` into ``(lengthscales (Q,β), a (δ,Q), b (δ,Q), d (δ,))``."""
        q, b, d = self.Q, self.beta, self.delta
        lead = theta.shape[:-1]
        i0 = q * b
        ls = np.exp(theta[..., :i0]).reshape(lead + (q, b))
        a = theta[..., i0 : i0 + d * q].reshape(lead + (d, q))
        bw = np.exp(theta[..., i0 + d * q : i0 + 2 * d * q]).reshape(lead + (d, q))
        dn = np.exp(theta[..., i0 + 2 * d * q :])
        return ls, a, bw, dn

    def pack(self, ls: np.ndarray, a: np.ndarray, bw: np.ndarray, dn: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`unpack` (takes natural-scale values)."""
        return self.pack_grad(np.log(ls), a, np.log(bw), np.log(dn))

    def pack_grad(
        self, g_ls: np.ndarray, g_a: np.ndarray, g_b: np.ndarray, g_d: np.ndarray
    ) -> np.ndarray:
        """Pack per-block values (gradients, bounds) into the flat layout."""
        lead = g_d.shape[:-1]
        return np.concatenate([g.reshape(lead + (-1,)) for g in (g_ls, g_a, g_b, g_d)], axis=-1)

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` for θ: ``±1e3`` on the loadings ``a_{i,q}``,
        ``[-20, 12]`` on the log-scale variables."""

        def flat(log_value: float, a_value: float) -> np.ndarray:
            dq = (self.delta, self.Q)
            return self.pack_grad(
                np.full((self.Q, self.beta), log_value), np.full(dq, a_value),
                np.full(dq, log_value), np.full(self.delta, log_value),
            )

        return flat(-20.0, -1e3), flat(12.0, 1e3)

    def cov(self, theta: np.ndarray, sqd: np.ndarray, ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
        """Noise-free Eq. 4 covariance between two stacked sample sets.

        ``sqd`` is their :func:`~repro.core.kernels.pairwise_sq_diffs`,
        ``ta``/``tb`` their task ids.  The per-sample noise ``d_i`` applies
        to the exact diagonal only, so callers add it where it belongs.
        """
        ls, a, bw, _ = self.unpack(theta)
        same = ta[:, None] == tb[None, :]
        Kall = gaussian_kernel_batch(sqd, ls)
        out = np.zeros(same.shape)
        for q in range(self.Q):
            Aq = np.outer(a[ta, q], a[tb, q])
            Aq += np.where(same, bw[ta, q][:, None], 0.0)
            out += Aq * Kall[q]
        return out

    def correlation(self, theta: np.ndarray) -> np.ndarray:
        """Between-task correlation matrix ``B / sqrt(diag ⊗ diag)``.

        ``B = A A^T + diag(Σ_q b)`` is the coregionalization matrix summed over
        latents; its normalized form shows how much knowledge the model shares
        between tasks (a diagnostic the multitask-learning literature uses).
        """
        _, a, bw, _ = self.unpack(theta)
        B = a @ a.T + np.diag(bw.sum(axis=1))
        dd = np.sqrt(np.clip(np.diag(B), 1e-300, None))
        return B / np.outer(dd, dd)


def observations(
    X: np.ndarray,
    y: np.ndarray,
    task_index: Sequence[int],
    n_tasks: int,
    n_dims: int,
    extend: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated ``(X (N, β), y (N,), task_index (N,))`` of a fit or extend call.

    Raises ``ValueError`` when the row counts differ, when ``X`` does not
    have ``n_dims`` columns, when a task id is outside ``[0, n_tasks)``, or
    on zero rows — which an ``extend`` call accepts (a no-op), a fit not.
    Every backend's ``fit``, ``extend`` and ``refit_at`` validate through
    this one function.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    tidx = np.asarray(task_index, dtype=int).ravel()
    if not (X.shape[0] == y.shape[0] == tidx.shape[0]):
        raise ValueError("X, y and task_index row counts differ")
    if X.shape[0] == 0:
        if extend:
            return X, y, tidx
        raise ValueError("no observations")
    if X.shape[1] != n_dims:
        raise ValueError(f"X has {X.shape[1]} columns, the model has n_dims={n_dims}")
    if tidx.min() < 0 or tidx.max() >= n_tasks:
        raise ValueError("task_index out of range")
    return X, y, tidx


def chol_escalate(A: np.ndarray, jitter: float, ceiling: float) -> Tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``A`` with escalating — not compounding —
    diagonal jitter; returns ``(L, j)``.

    ``j`` is 0 when ``A`` factorizes as given.  Otherwise each retry sets
    ``A``'s diagonal (in place) to its *base* values plus
    ``j = 10·max(j, jitter, 1e-10)``, so the factor holds exactly the
    returned ``j``; ``LinAlgError`` propagates once ``j`` passes ``ceiling``.
    """
    di = np.diag_indices(A.shape[0])
    base = A[di].copy()
    j = 0.0
    while True:
        try:
            return sla.cholesky(A, lower=True), j
        except sla.LinAlgError:
            j = max(j, jitter, 1e-10) * 10.0
            if j > ceiling:
                raise
            A[di] = base + j


def task_block(
    tasks: Sequence[int], Xstar: np.ndarray, n_tasks: int
) -> Tuple[List[int], np.ndarray]:
    """Validated ``(task_ids, Xs)`` of a ``predict_tasks(tasks, Xstar)`` call.

    ``Xs`` is ``Xstar`` as floats: one shared ``(N*, β)`` block, or one
    block per task ``(len(tasks), N*, β)``.  Raises ``ValueError`` on an
    empty task list, a task outside ``[0, n_tasks)``, a block count that
    differs from the task count, or any other shape.  Every backend's
    ``predict_tasks`` validates through this one function.
    """
    task_ids = [int(t) for t in tasks]
    if not task_ids:
        raise ValueError("need at least one task")
    for t in task_ids:
        if not 0 <= t < n_tasks:
            raise ValueError("task out of range")
    Xs = np.asarray(Xstar, dtype=float)
    if Xs.ndim == 3 and Xs.shape[0] != len(task_ids):
        raise ValueError(
            f"got {Xs.shape[0]} candidate blocks for {len(task_ids)} task(s)"
        )
    if Xs.ndim not in (2, 3):
        raise ValueError("Xstar must be (N*, beta) or (n_tasks, N*, beta)")
    return task_ids, Xs


def task_weights(
    model, rows: np.ndarray, task: int
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Cached per-(task, θ) prediction constants of an LCM-layout surrogate.

    Returns ``(inv2ls (Q,β), w (Q,n), prior)`` where
    ``w[q,m] = a_{task,q} a_{r_m,q} + b_{task,q} δ_{r_m,task}`` is the
    cross-kernel weight vector of Eq. 5 over the ``n`` rows whose task ids
    are ``rows`` (the training set of :class:`~repro.core.lcm.LCM`, the
    inducing set of :class:`~repro.core.model.sparse_lcm.SparseLCM`) and
    ``prior`` the task's prior variance.  Cached in ``model._pred_cache``, which the
    model's ``fit`` and ``extend`` reset, so the search phase's posterior
    calls stop re-unpacking θ and re-deriving the weights.
    """
    cached = model._pred_cache.get(task)
    if cached is None:
        ls, a, bw, _ = model.params.unpack(model.theta)
        inv2 = 0.5 / (ls * ls)
        w = (a[task][None, :] * a[rows]).T.copy()  # (Q, n)
        w[:, rows == task] += bw[task][:, None]
        prior = float(np.sum(a[task] ** 2 + bw[task]))
        cached = (inv2, w, prior)
        model._pred_cache[task] = cached
    return cached

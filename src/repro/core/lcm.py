"""Linear Coregionalization Model — the multitask GP at the heart of MLA.

Implements Sec. 3.1 (modeling phase) of the paper.  With ``δ`` tasks and
``Q ≤ δ`` independent latent GPs ``u_q`` (ARD Gaussian kernels ``k_q``,
Eq. 3), the model of task ``i`` is ``f(t_i, x) = Σ_q a_{i,q} u_q(x)``
(Eq. 1), giving the joint covariance over all stacked samples (Eq. 4):

.. math::

    \\Sigma(x_{i,j}, x_{i',j'}) = \\sum_{q=1}^{Q}
        (a_{i,q} a_{i',q} + b_{i,q}\\,\\delta_{i,i'})\\, k_q(x_{i,j}, x_{i',j'})
        + d_i\\,\\delta_{i,i'}\\delta_{j,j'}

Hyperparameters — per-latent ARD lengthscales ``l_j^q``, task loadings
``a_{i,q}``, task-specific kernel weights ``b_{i,q} ≥ 0`` and diagonal noise
``d_i > 0`` (``σ_q`` fixed at 1) — are found by maximizing the log marginal
likelihood with multi-start L-BFGS and *analytic* gradients, matching the
reference implementation.  The model itself — its shape, the θ layout and
bounds, the Eq. 4 block and the task correlation — is
:class:`~repro.core.posterior.LCMParams`, which the inducing-point
:class:`~repro.core.model.sparse_lcm.SparseLCM` shares; this module is the
exact solver for it.  The restarts run in lockstep: one L-BFGS driver
advances all of them and evaluates, each round, the rows that ask for a new
``(f, g)`` in one stacked likelihood call.  With an executor — one of the
:mod:`repro.runtime.async_engine` schedulers (Sec. 4.3, level-1
parallelism) — ``min(n_start, n_workers)`` contiguous groups of restarts
are mapped over it with :func:`~repro.runtime.async_engine.run_all`, each
group in lockstep.  Threads do not overlap this work; processes do (the
measured fit-time ratios are in ``docs/PERFORMANCE.md``).

The likelihood/gradient evaluation is the dominant tuner cost (Sec. 4.3
devotes the whole parallel-modeling design to it), so it runs through a
vectorized fast path:

* every elementwise, broadcast or batched step — the coupling factors,
  gathered from a ``(δ, δ)`` task table through one cached pair index, the
  ``Q`` latent kernels (one batched contraction, or one broadcast product
  when β = 1), Σ assembly and every gradient product, contraction and
  scatter — runs once over all ``R`` stacked rows; the factorizations and
  the nll run per row,
* lengthscale gradients are a single matrix contraction of ``M∘A_q∘K_q``
  against the cached squared-difference tensor — the ``(β, N, N)``
  per-dimension gradient stack of :func:`gaussian_kernel_with_grad` is never
  materialized,
* ``Σ⁻¹`` comes from LAPACK ``potri`` on the existing Cholesky factor
  instead of an explicit ``cho_solve(L, eye(N))`` triangular solve sweep,
* large scratch arrays live in a per-thread workspace reused across L-BFGS
  iterations,
* everything that depends only on the task layout (the task-pair index, the
  one-hot task matrix, the diagonal and strict-upper index sets) is built
  once per fit and cached on the ``tidx`` object, and the LAPACK
  ``potrf``/``potrs``/``potri`` handles are fetched once at import — at the
  small N of autotuning these fixed per-call costs, not the O(N³) algebra,
  dominate an evaluation,
* :meth:`fit` reuses the Cholesky factor and ``α`` captured during the
  winning restart's final likelihood evaluation instead of re-assembling Σ
  and refactorizing, and
* each group of restarts runs L-BFGS-B through :mod:`repro.core.lbfgsb`,
  a direct lockstep loop over scipy's ``setulb`` that reproduces scipy's
  L-BFGS-B ``minimize`` bit for bit, restart by restart, without its
  per-evaluation wrapper, over bound arrays built once per fit.  The module
  is bound here under the name ``optimize``: the end-to-end benchmark's
  tracer swaps that name for a proxy that sums ``minimize(...).nfev`` (the
  total over a group's restarts) into its likelihood-evaluation counter,
  so restart groups must keep calling ``optimize.minimize``.

Each stacked row is bitwise the one-vector evaluation, so a fit gives the
same bits whatever its restart groups.

The original loop-based implementation is retained verbatim as
:meth:`LCM._nll_and_grad_reference`; the benchmark harness
(``benchmarks/bench_lcm_hotpath.py``) pins the fast path against it.

For cheap cross-iteration updates, :meth:`extend` appends new observations
to a fitted posterior with an ``O(N²·n_new)`` block Cholesky update (no
hyperparameter re-optimization).  The posterior has one kernel,
:meth:`predict_tasks`, over a block of tasks; :meth:`predict` is its
one-task view, and :func:`~repro.core.posterior.task_weights` caches the
per-task cross-kernel weight vectors so an acquisition search's thousands
of calls stop re-unpacking θ.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import linalg as sla

from . import lbfgsb as optimize
from .lbfgsb import check_restarts
from .kernels import gaussian_kernel_with_grad, pairwise_sq_diffs
from .posterior import LCMParams, chol_escalate, observations, task_block, task_weights
from ..observability.spans import maybe_span
from ..runtime.async_engine import run_all

__all__ = ["LCMParams", "LCM"]

#: NLL sentinel returned when the covariance is not positive definite.
_DIVERGED = 1e25

# float64 LAPACK handles for the likelihood hot path, fetched once instead of
# through scipy's per-call ``get_lapack_funcs`` lookup and wrapper checks
_POTRF, _POTRS, _POTRI = sla.get_lapack_funcs(
    ("potrf", "potrs", "potri"), (np.empty((1, 1), dtype=np.float64),)
)


class _Workspace:
    """Preallocated scratch for the stacked likelihood, one per thread.

    The L-BFGS optimizer evaluates the likelihood hundreds of times on
    identically-shaped data; allocating the ``(R, Q, N, N)`` intermediates
    fresh each call dominates small-N evaluations.  The buffers are sized
    for the widest lockstep round seen at this ``(Q, N)``; a narrower round
    uses their leading ``R`` rows.  One workspace per thread keeps
    scheduler-mapped restart groups race-free.
    """

    def __init__(self, R: int, Q: int, N: int):
        self.R, self.Q, self.N = R, Q, N
        self.Kall = np.empty((R, Q, N, N))  # latent kernels, then M∘K_q
        self.Aall = np.empty((R, Q, N, N))  # task-coupling factors, then M∘A_q∘K_q
        self.Sigma = np.empty((R, N, N))  # Σ, then M = αα^T − Σ⁻¹
        self.tmp = np.empty((R, N, N))


class _Layout:
    """Task-layout constants of one stacked sample set, shared by every
    likelihood evaluation of a fit.

    Depends only on ``tidx`` (never on θ), so it is built once per fit and
    read-only afterwards — concurrent restarts may share it.
    """

    def __init__(self, tidx: np.ndarray, n_tasks: int):
        N = tidx.shape[0]
        self.tidx = tidx  # held so the identity check in LCM._layout stays sound
        self.onehot = np.zeros((n_tasks, N))
        self.onehot[tidx, np.arange(N)] = 1.0
        # the same-task mask of the (δ, δ) coupling table, 0/1 in float64:
        # multiplying by it matches a boolean mask bitwise and skips the
        # mixed-dtype ufunc loop
        self.eye = np.eye(n_tasks)
        # flat (task_n, task_m) pair of every sample pair, for gathering the
        # (δ, δ) coupling table into the (N, N) coupling factors
        self.pair = (tidx[:, None] * n_tasks + tidx[None, :]).ravel()
        self.rows = np.arange(N)
        self.diag = np.diag_indices(N)
        self.upper = np.triu(np.ones((N, N), dtype=bool), 1)


class LCM:
    """Multitask GP surrogate with LCM covariance.

    Parameters
    ----------
    n_tasks:
        δ — number of tasks sharing the model.
    n_dims:
        β — dimension of the (normalized, possibly model-enriched) inputs.
    n_latent:
        Q — number of latent GPs; defaults to ``min(δ, 3)``.
    jitter:
        Diagonal regularization added before Cholesky factorization.
    n_start:
        Random restarts of the likelihood optimization; the best wins.
    maxiter:
        Per-restart L-BFGS-B iteration cap.
    seed:
        Seed for restart initialization.
    executor:
        Optional scheduler with an ``n_workers`` count (1 when absent) — a
        :class:`~repro.runtime.async_engine.ThreadScheduler` or
        :class:`~repro.runtime.async_engine.ProcessScheduler`, or any object
        with the scheduler protocol; when given, the restarts run through it
        (:func:`~repro.runtime.async_engine.run_all`) as
        ``min(n_start, n_workers)`` contiguous lockstep groups.  It must have
        nothing else in flight during the fit.
    restart_offset:
        First restart index; restart 0 uses a deterministic heuristic
        initialization, higher indices draw random ones.  Distributed-memory
        deployments give each rank a distinct offset so their single local
        restarts differ (Sec. 4.3 level-1 parallelism).
    chol_ranks:
        When set (> 1), the fitted posterior's covariance factorization runs
        through the simulated distributed Cholesky
        (:func:`~repro.runtime.distributed_linalg.distributed_cholesky`,
        Sec. 4.3's ScaLAPACK level) on this many virtual MPI ranks.  The
        factor is numerically identical to the serial one; the simulated
        parallel wall time of the last factorization is exposed as
        ``chol_makespan_``.

    Attributes
    ----------
    jitter_used_:
        The diagonal jitter actually present in the fitted factorization —
        equals ``jitter`` unless Cholesky breakdown forced an escalation
        (each escalation retries from the *base* diagonal with a 10× larger
        jitter, so the final factorization uses exactly this known value).
    """

    def __init__(
        self,
        n_tasks: int,
        n_dims: int,
        n_latent: Optional[int] = None,
        jitter: float = 1e-8,
        n_start: int = 3,
        maxiter: int = 200,
        seed: Optional[int] = None,
        executor=None,
        restart_offset: int = 0,
        chol_ranks: Optional[int] = None,
    ):
        self.params = LCMParams(n_tasks, n_dims, n_latent)
        if chol_ranks is not None and int(chol_ranks) < 1:
            raise ValueError("need chol_ranks >= 1")
        self.jitter = float(jitter)
        self.n_start, self.maxiter = check_restarts(n_start, maxiter)
        self.rng = np.random.default_rng(seed)
        self.executor = executor
        self.restart_offset = max(0, int(restart_offset))
        # fitted state
        self.X: Optional[np.ndarray] = None
        self.y: Optional[np.ndarray] = None
        self.task_index: Optional[np.ndarray] = None
        self.theta: Optional[np.ndarray] = None
        self._L: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self.log_likelihood_: float = -np.inf
        self.jitter_used_: float = float(jitter)
        self.chol_ranks = None if chol_ranks is None else int(chol_ranks)
        self.chol_makespan_: float = 0.0
        # caches (never pickled; rebuilt on demand)
        self._tls = threading.local()
        self._layout_cache: Optional[_Layout] = None
        self._pred_cache: dict = {}
        self._batch_cache: dict = {}

    def __getstate__(self):
        # Schedulers hold process-local pools (locks, pipes) that cannot cross
        # a pickle boundary; a worker-side copy runs its restarts inline.
        # Scratch workspaces and caches are droppable and thread-local.
        state = self.__dict__.copy()
        state["executor"] = None
        state["_tls"] = None
        state["_layout_cache"] = None
        state["_pred_cache"] = {}
        state["_batch_cache"] = {}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._tls = threading.local()
        # checkpoints written by older versions predate the batch and
        # layout caches and the distributed-Cholesky wiring
        self.__dict__.setdefault("_batch_cache", {})
        self.__dict__.setdefault("chol_ranks", None)
        self.__dict__.setdefault("chol_makespan_", 0.0)
        self._layout_cache = None

    # -- covariance assembly ------------------------------------------------
    def _covariance(self, theta: np.ndarray, sqd: np.ndarray, tidx: np.ndarray) -> np.ndarray:
        """Σ of Eq. 4 over the stacked samples: :meth:`LCMParams.cov` plus
        the noise ``d_i`` on the diagonal (no jitter)."""
        Sigma = self.params.cov(theta, sqd, tidx, tidx)
        Sigma[np.diag_indices(tidx.shape[0])] += self.params.unpack(theta)[3][tidx]
        return Sigma

    # -- likelihood ----------------------------------------------------------
    def _workspace(self, R: int, N: int) -> _Workspace:
        ws = getattr(self._tls, "ws", None)
        if ws is None or (ws.Q, ws.N) != (self.params.Q, N) or ws.R < R:
            ws = _Workspace(R, self.params.Q, N)
            self._tls.ws = ws
        return ws

    def _layout(self, tidx: np.ndarray) -> _Layout:
        # One fit passes the identical tidx object to every likelihood call;
        # the record holds the reference, which keeps the identity check sound.
        cached = self._layout_cache
        if cached is not None and cached.tidx is tidx:
            return cached
        layout = _Layout(tidx, self.params.delta)
        self._layout_cache = layout
        return layout

    def _nll_and_grad(
        self,
        theta: np.ndarray,
        sqd: np.ndarray,
        y: np.ndarray,
        tidx: np.ndarray,
        capture=None,
    ):
        """Negative log marginal likelihood and its gradient in ``theta``.

        ``theta`` is one ``(P,)`` hyperparameter vector, giving ``(nll,
        grad)``, or ``R`` stacked rows ``(R, P)``, giving ``(nll (R,), grad
        (R, P))``; each row's result is bitwise the one-vector result.  When
        ``capture`` is a dict (one vector) or a list of ``R`` dicts (stacked
        rows), each successful evaluation's ``(θ, L, α, nll)`` is stored in
        its dict so :meth:`fit` can adopt the winning restart's final
        factorization without re-assembling Σ.
        """
        if theta.ndim == 1:
            nll, grad = self._nll_and_grad_rows(
                theta[None], sqd, y, tidx, None if capture is None else [capture]
            )
            return nll[0], grad[0]
        return self._nll_and_grad_rows(theta, sqd, y, tidx, capture)

    def _nll_and_grad_rows(self, theta, sqd, y, tidx, captures):
        """Stacked hot path of :meth:`_nll_and_grad` (see the module
        docstring): everything elementwise, broadcast or batched runs once
        over ``(R, Q, N, N)``; the factorizations run per row."""
        p = self.params
        Q, beta, delta = p.Q, p.beta, p.delta
        R, N = theta.shape[0], y.shape[0]
        ws = self._workspace(R, N)
        lay = self._layout(tidx)
        ls, a, bw, dn = p.unpack(theta)  # (R, Q, β), (R, δ, Q) ×2, (R, δ)
        inv2 = 0.5 / (ls * ls)

        Aall = ws.Aall[:R]
        Kall = ws.Kall[:R]
        Sigma = ws.Sigma[:R]
        # A_q = a_q a_qᵀ + b_q δ_{t_n t_m}, gathered from its (δ, δ) task table
        aT = a.transpose(0, 2, 1)  # (R, Q, δ)
        table = aT[:, :, :, None] * aT[:, :, None, :]
        table += lay.eye * bw.transpose(0, 2, 1)[:, :, :, None]
        table.reshape(R, Q, delta * delta).take(lay.pair, axis=2, out=Aall.reshape(R, Q, N * N))
        # latent kernels exp(-Σ_j sqd_j / 2l_j²), the exponent's negation
        # folded into its coefficient (exact); for β = 1 the exponent is one
        # product per entry, which is exactly what a K=1 GEMM computes
        coef = np.negative(inv2)
        if beta == 1:
            np.multiply(coef[:, :, :, None], sqd[None, None, :, :, 0], out=Kall)
        else:
            np.matmul(coef, sqd.reshape(N * N, beta).T, out=Kall.reshape(R, Q, N * N))
        np.exp(Kall, out=Kall)
        np.multiply(Aall[:, 0], Kall[:, 0], out=Sigma)
        for q in range(1, Q):
            tmp = np.multiply(Aall[:, q], Kall[:, q], out=ws.tmp[:R])
            Sigma += tmp
        Sigma.reshape(R, N * N)[:, :: N + 1] += dn[:, tidx] + self.jitter

        nll = np.empty(R)
        g_d = np.zeros((R, delta))
        bad = []
        half_n_log_2pi = 0.5 * N * np.log(2 * np.pi)
        for r in range(R):
            L, info = _POTRF(Sigma[r], lower=1, overwrite_a=0, clean=1)
            if info > 0:
                nll[r] = _DIVERGED
                bad.append(r)
                Sigma[r].fill(0.0)  # its M: keeps the stacked gradient ops finite
                continue
            if info < 0:
                raise ValueError(f"illegal value in argument {-info} of potrf")
            alpha, info = _POTRS(L, y, lower=1, overwrite_b=0)
            if info != 0:
                raise ValueError(f"illegal value in argument {-info} of potrs")
            nll[r] = 0.5 * float(y @ alpha) + float(np.log(L.diagonal()).sum()) + half_n_log_2pi
            if captures is not None:
                captures[r].update(
                    theta=np.array(theta[r], copy=True), L=L, alpha=alpha, nll=nll[r]
                )
            # Σ⁻¹ from the Cholesky factor via LAPACK potri (half the flops
            # of the cho_solve(L, eye(N)) sweep, and no N×N identity).
            Sinv, info = _POTRI(L, lower=1)
            if info != 0:  # potri failing after a good potrf
                Sinv = sla.cho_solve((L, True), np.eye(N), check_finite=False)
            else:
                np.copyto(Sinv, Sinv.T, where=lay.upper)
            # M = αα^T (np.outer's product) over Σ, whose content is no longer needed
            M = np.multiply(alpha[:, None], alpha[None, :], out=Sigma[r])
            M -= Sinv  # dLL/dθ = 0.5 tr(M ∂Σ/∂θ)
            g_d[r] = np.bincount(tidx, weights=M.diagonal(), minlength=delta)
        if len(bad) == R:
            return nll, np.zeros((R, p.size))
        M = Sigma

        # GK[q] = M∘K_q (in place on Kall); W[q] = M∘A_q∘K_q (in place on Aall)
        GK = Kall
        GK *= M[:, None]
        W = Aall
        W *= GK

        # lengthscale gradients: one contraction of W against the cached
        # squared-diff tensor replaces the (β, N, N) per-dimension stack
        g_ls = np.matmul(W.reshape(R, Q, N * N), sqd.reshape(N * N, beta))
        g_ls *= inv2

        # task-loading gradients: g_a[i,q] = Σ_{n∈i} (GK[q] @ a[tidx,·q])_n;
        # a C-contiguous a[tidx] keeps einsum on the one-vector summation
        # order (the strided a[:, tidx] view moves it when Q = 1)
        at = a.take(tidx, axis=1)  # (R, N, Q)
        tm = np.einsum("rqnm,rmq->rnq", GK, at)
        g_a = np.zeros((R, delta, Q))
        np.add.at(g_a, (slice(None), tidx), tm)

        # b gradients: per-task block sums of GK[q] over same-task pairs (the
        # transposed one-hot view keeps the GEMM on its original BLAS path)
        rs = np.matmul(GK, lay.onehot.T)  # (R, Q, N, δ)
        sel = rs[:, :, lay.rows, tidx]  # (R, Q, N): Σ_{m∈task(n)} GK[q,n,m]
        g_b = np.zeros((R, delta, Q))
        np.add.at(g_b, (slice(None), tidx), 0.5 * sel.transpose(0, 2, 1))

        g_d *= 0.5

        # chain rule to log-parameters for ls, b, d; negate for NLL
        grad = p.pack_grad(g_ls, g_a, g_b * bw, g_d * dn)
        np.negative(grad, out=grad)
        if bad:
            grad[bad] = 0.0
        return nll, grad

    def _nll_and_grad_reference(
        self, theta: np.ndarray, sqd: np.ndarray, y: np.ndarray, tidx: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Loop-based reference likelihood (the pre-vectorization code).

        Retained verbatim so tests and ``benchmarks/bench_lcm_hotpath.py``
        can pin the fast path's numerics against it; not used by :meth:`fit`.
        """
        p = self.params
        N = y.shape[0]
        ls, a, bw, dn = p.unpack(theta)
        same = tidx[:, None] == tidx[None, :]
        Sigma = np.diag(dn[tidx]).astype(float)
        Ks, dKs, As = [], [], []
        for q in range(p.Q):
            Kq, dKq = gaussian_kernel_with_grad(sqd, ls[q])
            aq = a[tidx, q]
            Aq = np.outer(aq, aq) + np.where(same, bw[tidx, q][:, None], 0.0)
            Sigma += Aq * Kq
            Ks.append(Kq)
            dKs.append(dKq)
            As.append(Aq)
        Sigma[np.diag_indices(N)] += self.jitter
        try:
            L = sla.cholesky(Sigma, lower=True)
        except sla.LinAlgError:
            return _DIVERGED, np.zeros_like(theta)
        alpha = sla.cho_solve((L, True), y)
        nll = 0.5 * float(y @ alpha) + float(np.log(np.diag(L)).sum()) + 0.5 * N * np.log(2 * np.pi)
        Sinv = sla.cho_solve((L, True), np.eye(N))
        M = np.outer(alpha, alpha) - Sinv  # dLL/dθ = 0.5 tr(M ∂Σ/∂θ)

        onehot = np.zeros((p.delta, N))
        onehot[tidx, np.arange(N)] = 1.0

        g_ls = np.empty((p.Q, p.beta))
        g_a = np.empty((p.delta, p.Q))
        g_b = np.empty((p.delta, p.Q))
        for q in range(p.Q):
            Gq = M * Ks[q]
            MA = M * As[q]
            for j in range(p.beta):
                g_ls[q, j] = 0.5 * float(np.sum(MA * dKs[q][j]))
            aq = a[tidx, q]
            g_a[:, q] = onehot @ (Gq @ aq)
            # block sums of Gq over same-task index pairs
            g_b[:, q] = 0.5 * np.einsum("in,nm,im->i", onehot, Gq, onehot)
        g_d = 0.5 * (onehot @ np.diag(M))

        # chain rule to log-parameters for ls, b, d; negate for NLL
        grad = -self.params.pack_grad(g_ls, g_a, g_b * bw, g_d * dn)
        return nll, grad

    # -- restart machinery ---------------------------------------------------
    def _initial_theta(self, y: np.ndarray, restart: int) -> np.ndarray:
        p = self.params
        yvar = max(float(np.var(y)), 1e-10)
        if restart == 0:
            ls = np.full((p.Q, p.beta), 0.3)
            a = np.ones((p.delta, p.Q)) * np.sqrt(yvar / p.Q)
            bw = np.full((p.delta, p.Q), 0.05 * yvar)
            dn = np.full(p.delta, 1e-3 * yvar + 1e-8)
        else:
            ls = np.exp(self.rng.normal(np.log(0.3), 0.7, (p.Q, p.beta)))
            a = self.rng.normal(0.0, np.sqrt(yvar), (p.delta, p.Q))
            bw = np.exp(self.rng.normal(np.log(0.05 * yvar + 1e-10), 1.0, (p.delta, p.Q)))
            dn = np.exp(self.rng.normal(np.log(1e-3 * yvar + 1e-8), 1.0, p.delta))
        return p.pack(ls, a, bw, dn)

    def _group_nll(self, theta, rows, sqd, y, tidx, captures):
        """The lockstep objective: stacked rows of restarts ``rows``."""
        return self._nll_and_grad(theta, sqd, y, tidx, capture=[captures[r] for r in rows])

    def _optimize_group(self, args):
        """One group of L-BFGS restarts run in lockstep; returns one
        ``(nll, θ, L, α)`` per start.

        ``L`` and ``α`` come from the final successful likelihood evaluation
        at the returned ``θ`` (usually the optimizer's last step; otherwise
        one extra evaluation), so :meth:`fit` can adopt the winner's
        factorization directly.  They are ``None`` when even the final point
        is not factorizable.
        """
        starts, sqd, y, tidx, bounds = args
        caps = [{} for _ in starts]
        res = optimize.minimize(
            self._group_nll,
            np.stack(starts),
            args=(sqd, y, tidx, caps),
            bounds=bounds,
            maxiter=self.maxiter,
        )
        out = []
        for x, fun, cap in zip(res.x, res.fun, caps):
            x = x.copy()
            if cap.get("theta") is None or not np.array_equal(cap["theta"], x):
                cap = {}
                self._nll_and_grad(x, sqd, y, tidx, capture=cap)
            if cap.get("theta") is None:
                out.append((float(fun), x, None, None))
            else:
                out.append((float(cap["nll"]), x, cap["L"], cap["alpha"]))
        return out

    # -- public API ------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        task_index: Sequence[int],
        theta0: Optional[np.ndarray] = None,
    ) -> "LCM":
        """Fit the LCM to stacked samples.

        Parameters
        ----------
        X:
            ``(N, β)`` normalized inputs, all tasks concatenated.
        y:
            ``(N,)`` objective values (typically transformed upstream).
        task_index:
            ``(N,)`` integer task id in ``[0, δ)`` per row.
        theta0:
            Optional warm-start hyperparameter vector (e.g. from the
            surrogate-model cache or the previous MLA iteration's fit): it
            replaces the first restart's initialization, so ``n_start=1``
            reduces the multi-start search to one L-BFGS run from a
            known-good optimum.
        """
        p = self.params
        X, y, tidx = observations(X, y, task_index, p.delta, p.beta)
        sqd = pairwise_sq_diffs(X)

        if theta0 is not None:
            theta0 = p.vector(theta0, "theta0")
        starts = [
            theta0 if s == 0 and theta0 is not None
            else self._initial_theta(y, s + self.restart_offset)
            for s in range(self.n_start)
        ]
        bounds = p.bounds()
        # one lockstep group, or one contiguous group per scheduler worker
        n_groups = 1
        if self.executor is not None:
            n_groups = min(self.n_start, int(getattr(self.executor, "n_workers", 1)))
        jobs = [
            ([starts[i] for i in group], sqd, y, tidx, bounds)
            for group in np.array_split(np.arange(self.n_start), n_groups)
        ]
        with maybe_span(
            "model.fit", n=int(X.shape[0]), n_starts=self.n_start, warm=theta0 is not None
        ):
            if self.executor is not None:
                groups = run_all(self.executor, self._optimize_group, jobs)
            else:
                groups = [self._optimize_group(jobs[0])]
        results = [r for group in groups for r in group]
        # a non-finite nll (a NaN restart) ranks last: plain min() keeps a
        # NaN in position 0 because every comparison against it is False
        best_nll, best_theta, bestL, best_alpha = min(
            results, key=lambda r: r[0] if np.isfinite(r[0]) else np.inf
        )

        self.X, self.y, self.task_index, self.theta = X, y, tidx, best_theta
        self.log_likelihood_ = -best_nll
        self._pred_cache = {}
        self._batch_cache = {}
        if bestL is not None and not (self.chol_ranks and self.chol_ranks > 1):
            # the winning restart's final evaluation already factorized Σ
            self._L, self._alpha = bestL, best_alpha
            self.jitter_used_ = self.jitter
        else:
            # with chol_ranks the posterior factorization always goes
            # through the distributed path so its parallel time is metered
            self._refactorize(sqd)
        return self

    def refit_at(
        self,
        X: np.ndarray,
        y: np.ndarray,
        task_index: Sequence[int],
        theta: np.ndarray,
    ) -> "LCM":
        """Rebuild the fitted posterior at a known hyperparameter optimum.

        Checkpoint resume uses this to reconstruct an extendable posterior
        from ``(X, y, task_index, θ)`` without re-running L-BFGS.  The
        factorization goes through exactly the code path :meth:`fit` ends
        on — one likelihood evaluation at ``θ`` with factor capture, falling
        back to :meth:`_refactorize` — so given the same inputs the rebuilt
        ``(L, α)`` is bitwise identical to the fit that produced ``θ``,
        which keeps subsequent :meth:`extend` chains bit-identical too.
        """
        p = self.params
        X, y, tidx = observations(X, y, task_index, p.delta, p.beta)
        theta = p.vector(theta, "theta")
        sqd = pairwise_sq_diffs(X)
        cap: dict = {}
        nll, _ = self._nll_and_grad(theta, sqd, y, tidx, capture=cap)
        self.X, self.y, self.task_index, self.theta = X, y, tidx, theta
        self.log_likelihood_ = -float(nll)
        self._pred_cache = {}
        self._batch_cache = {}
        if cap.get("theta") is not None and not (self.chol_ranks and self.chol_ranks > 1):
            self._L, self._alpha = cap["L"], cap["alpha"]
            self.jitter_used_ = self.jitter
        else:
            self._refactorize(sqd)
        return self

    def _refactorize(self, sqd: np.ndarray) -> None:
        """Assemble and factorize Σ(θ) with escalating — not compounding — jitter.

        Each retry restores the base diagonal before adding the escalated
        jitter, so the final factorization uses exactly ``jitter_used_``
        rather than the sum of every previous attempt's additions.
        """
        assert self.theta is not None and self.X is not None
        Sigma = self._covariance(self.theta, sqd, self.task_index)
        di = np.diag_indices(Sigma.shape[0])
        base = Sigma[di].copy()
        j = self.jitter
        while True:
            Sigma[di] = base + j
            try:
                self._L = self._posterior_chol(Sigma)
                break
            except sla.LinAlgError:
                j = max(j, 1e-10) * 10.0
                if j > 1.0:
                    raise
        self.jitter_used_ = j
        self._alpha = sla.cho_solve((self._L, True), self.y)

    def _posterior_chol(self, Sigma: np.ndarray) -> np.ndarray:
        """Factorize Σ serially, or on the simulated MPI ranks when configured."""
        if self.chol_ranks and self.chol_ranks > 1:
            from ..runtime.distributed_linalg import distributed_cholesky

            L, makespan = distributed_cholesky(Sigma, self.chol_ranks)
            self.chol_makespan_ = float(makespan)
            return L
        return sla.cholesky(Sigma, lower=True)

    def extend(
        self, Xnew: np.ndarray, ynew: np.ndarray, tidx_new: Sequence[int]
    ) -> "LCM":
        """Append observations to the fitted posterior without refitting θ.

        An ``O(N²·n_new)`` block Cholesky update: with the existing factor
        ``L₁₁`` of Σ₁₁, the extended factor is

        .. math::

            L = \\begin{pmatrix} L_{11} & 0 \\\\
                S_{12}^T L_{11}^{-T} & L_{22} \\end{pmatrix},
            \\qquad
            L_{22} L_{22}^T = S_{22} - L_{21} L_{21}^T

        so only the ``n_new × n_new`` trailing block is factorized from
        scratch.  Hyperparameters stay at the last :meth:`fit` optimum — the
        cross-iteration ``refit_interval`` mode of the MLA driver uses this
        to skip intermediate refits entirely.
        """
        if self.theta is None or self.X is None or self._L is None:
            raise RuntimeError("extend() before fit()")
        p = self.params
        Xnew, ynew, tnew = observations(Xnew, ynew, tidx_new, p.delta, p.beta, extend=True)
        if Xnew.shape[0] == 0:
            return self
        with maybe_span(
            "model.extend", n_old=int(self.X.shape[0]), n_new=int(Xnew.shape[0])
        ):
            return self._extend_impl(Xnew, ynew, tnew)

    def _extend_impl(self, Xnew: np.ndarray, ynew: np.ndarray, tnew: np.ndarray) -> "LCM":
        """Validated body of :meth:`extend` (split out for span scoping)."""
        _, _, _, dn = self.params.unpack(self.theta)
        n_old, n_new = self.X.shape[0], Xnew.shape[0]

        cov = self.params.cov
        S12 = cov(self.theta, pairwise_sq_diffs(self.X, Xnew), self.task_index, tnew)
        S22 = cov(self.theta, pairwise_sq_diffs(Xnew), tnew, tnew)
        S22[np.diag_indices(n_new)] += dn[tnew] + self.jitter_used_

        B = sla.solve_triangular(self._L, S12, lower=True)  # (n_old, n_new)
        L22, _ = chol_escalate(S22 - B.T @ B, self.jitter, 1.0)

        L = np.zeros((n_old + n_new, n_old + n_new))
        L[:n_old, :n_old] = self._L
        L[n_old:, :n_old] = B.T
        L[n_old:, n_old:] = L22
        self.X = np.vstack([self.X, Xnew])
        self.y = np.concatenate([self.y, ynew])
        self.task_index = np.concatenate([self.task_index, tnew])
        self._L = L
        self._alpha = sla.cho_solve((L, True), self.y)
        N = self.y.shape[0]
        self.log_likelihood_ = -(
            0.5 * float(self.y @ self._alpha)
            + float(np.log(np.diag(L)).sum())
            + 0.5 * N * np.log(2 * np.pi)
        )
        self._pred_cache = {}
        self._batch_cache = {}
        self._layout_cache = None
        return self

    def predict(self, task: int, Xstar: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance for one task at new points (Eqs. 5–6).

        A one-task view of :meth:`predict_tasks`, the model's only
        posterior kernel.

        Parameters
        ----------
        task:
            Task id in ``[0, δ)``.
        Xstar:
            ``(N*, β)`` normalized query points.
        """
        mu, var = self.predict_tasks([task], np.atleast_2d(Xstar))
        return mu[0], var[0]

    def predict_tasks(
        self, tasks: Sequence[int], Xstar: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance (Eqs. 5–6) of many tasks, one kernel
        evaluation — the model's only posterior kernel (:meth:`predict` is
        its one-task view).

        The ARD lengthscales of the Q latent kernels are shared across
        tasks (Eq. 1 couples tasks only through the coregionalization
        weights), so the exponential base-kernel tensor ``exp(-Σ sqd/2ℓ²)``
        is identical for every task and needs computing once per candidate
        block.  One call is a handful of GEMMs: one
        ``(Q, N*, β+2)·(β+2, N)`` batched contraction producing the weighted
        squared distances by expansion (no ``(N*, N, β)`` broadcast
        temporary), one stacked ``einsum`` against the cached per-task
        weights, and a single triangular solve for all tasks' variances.

        Parameters
        ----------
        tasks:
            Task ids to evaluate (any subset, in any order).
        Xstar:
            Either one shared block ``(N*, β)`` scored for every task, or
            per-task candidate blocks ``(n_tasks, N*, β)`` — the layout the
            lockstep swarm optimizers use.

        Returns
        -------
        ``(mu, var)`` — each ``(n_tasks, N*)``, row ``t`` the posterior of
        ``tasks[t]`` on its block.
        """
        if self.theta is None or self.X is None:
            raise RuntimeError("predict_tasks() before fit()")
        task_ids, Xs = task_block(tasks, Xstar, self.params.delta)
        per_task_blocks = Xs.ndim == 3
        T, ns, n = len(task_ids), Xs.shape[-2], self.X.shape[0]
        flat = Xs.reshape(-1, Xs.shape[-1])
        with maybe_span("model.predict_tasks", aggregate=True):
            weights = [task_weights(self, self.task_index, t) for t in task_ids]
            inv2 = weights[0][0]
            beta = self.params.beta
            cached = self._batch_cache.get(tuple(task_ids))
            if cached is None:
                W = np.stack([w for _, w, _ in weights])  # (T, Q, N)
                prior = np.array([p for _, _, p in weights])  # (T,)
                # centering shrinks the squared terms of the expansion below,
                # cutting its cancellation error by the same factor
                center = self.X.mean(axis=0)
                Xc = self.X - center
                # right operand of the augmented distance GEMM (see below):
                # [Xcᵀ; 1; Xc²·w_q] per latent
                Baug = np.empty((self.params.Q, beta + 2, n))
                Baug[:, :beta, :] = Xc.T
                Baug[:, beta, :] = 1.0
                Baug[:, beta + 1, :] = ((Xc * Xc) @ inv2.T).T
                self._batch_cache[tuple(task_ids)] = (W, prior, center, Baug)
            else:
                W, prior, center, Baug = cached
            # Weighted squared distances by expansion instead of the
            # (m, n, beta) broadcast temporary:  -Σ_b w_b (x_b - X_b)^2 =
            # 2 (x∘w)·Xᵀ - x²·w - X²·w  (on centered coordinates).
            # Augmenting the operands with the two rank-1 terms
            # ([2 x∘w, -x²·w, -1] x [Xᵀ; 1; X²·w]) folds the whole thing into
            # one (Q, N*, β+2)x(β+2, N) batched GEMM plus a single exp pass;
            # the cancellation error is O(eps), far below the 1e-10 agreement
            # with the dense Eqs. 5–6 the tests hold it to (exp of a +O(eps)
            # argument is harmless).
            m = flat.shape[0]
            flatc = flat - center
            A = np.empty((self.params.Q, m, beta + 2))
            np.multiply(flatc, (2.0 * inv2)[:, None, :], out=A[:, :, :beta])
            A[:, :, beta] = -((flatc * flatc) @ inv2.T).T
            A[:, :, beta + 1] = -1.0
            E = np.matmul(A, Baug)  # (Q, m, n)
            np.exp(E, out=E)
            if per_task_blocks:
                Kstar = np.einsum(
                    "qtsm,tqm->tsm", E.reshape(self.params.Q, T, ns, n), W
                )
            else:
                Kstar = np.einsum(
                    "qsm,tqm->tsm", E.reshape(self.params.Q, ns, n), W
                )
            mu = Kstar @ self._alpha  # (T, ns)
            # One triangular solve for every task's variance — dtrtrs is the
            # routine solve_triangular wraps, minus the per-call wrapper
            # overhead.
            v, info = sla.lapack.dtrtrs(
                self._L, Kstar.reshape(T * ns, n).T, lower=1
            )
            if info != 0:
                raise np.linalg.LinAlgError(f"triangular solve failed (info={info})")
            var = prior[:, None] - np.einsum("ij,ij->j", v, v).reshape(T, ns)
        return mu, np.maximum(var, 0.0)

    def task_correlation(self) -> np.ndarray:
        """Fitted between-task correlation matrix (:meth:`LCMParams.correlation`)."""
        if self.theta is None:
            raise RuntimeError("not fitted")
        return self.params.correlation(self.theta)

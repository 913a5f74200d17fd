"""Tuner options.

:class:`Options` gathers every knob of the MLA machinery with the defaults
used throughout the paper's experiments.  It is a plain value object with
validation; modules read from it rather than taking long argument lists.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

__all__ = ["Options"]


@dataclasses.dataclass
class Options:
    """Configuration for :class:`repro.core.mla.GPTune`.

    Attributes
    ----------
    n_latent:
        Q — number of latent functions in the LCM (Eq. 1).  ``None`` selects
        ``min(δ, 3)`` at model-build time; the paper requires ``Q <= δ``.
    n_start:
        Number of random L-BFGS restarts when maximizing the log-likelihood
        (Sec. 4.3); the best restart wins.
    lbfgs_maxiter:
        Iteration cap per L-BFGS run.
    jitter:
        Diagonal regularization added to the covariance before factorization.
    y_transform:
        ``"standardize"`` (per-objective z-score over all tasks), ``"log"``
        (log then z-score; right for runtimes spanning decades) or ``"none"``.
    ei_candidates:
        Population size of the PSO swarm maximizing Expected Improvement.
    pso_iters:
        PSO generations per search phase.
    nsga_pop, nsga_gens:
        NSGA-II population / generations for multi-objective search
        (each >= 1).
    pareto_batch:
        k — number of new configurations evaluated per multi-objective
        iteration (Algorithm 2, line 5).
    batch_evals:
        q — single-objective configurations evaluated per task per
        iteration.  q > 1 proposes diverse top EI candidates and runs them
        concurrently through the evaluation scheduler of ``backend``
        (Sec. 4.2: GPTune "supports calling multiple function evaluations
        concurrently").
    initial_fraction:
        Fraction of ``ε_tot`` used for the initial LHS design (paper: 1/2).
    backend:
        Backend for the tuner's own parallelism: ``"serial"``, ``"thread"``
        or ``"process"``.  Each campaign builds two schedulers of this kind,
        one for evaluations and one for the L-BFGS restart groups of its
        fits (Sec. 4.3 level-1 parallelism); ``"serial"`` runs the restarts
        inline as one lockstep group.
    n_workers:
        Worker count for the thread/process backends.
    async_eval:
        Choose the *streaming* policy of the campaign loop instead of the
        lockstep *barrier* policy.  Every campaign runs its evaluations
        through the asynchronous evaluation queue
        (:mod:`repro.runtime.async_engine`); the barrier policy fits, then
        proposes for every active task and drains the queue to empty before
        the next fit.  Streaming submits evaluations as proposals are made
        (up to ``max_inflight`` outstanding), absorbs each drained batch
        incrementally (``refit_interval`` controls extend-vs-refit as in
        lockstep), and proposes continuously against the freshest
        posterior with a ``pending_penalty`` so in-flight configurations
        are never re-proposed.  One straggling evaluation no longer stalls
        the other tasks.  Every campaign shape streams: single- and
        multi-objective, with or without performance models.  See
        ``docs/ASYNC.md`` for the ordering/determinism contract.
    max_inflight:
        Cap on concurrently outstanding evaluations (a barrier round
        submits up to the cap, drains, and tops up until its proposals are
        done).  ``None`` → ``max(2, n_workers)``.
    async_refit_secs:
        Minimum seconds between modeling phases in async mode (the
        periodic-refit cadence).  By default the async driver refits or
        extends the posterior before every proposal round; at very high
        completion rates that makes modeling the bottleneck.  With this
        set, drained completions are still absorbed into the dataset
        immediately, but the posterior is only refreshed once the interval
        has elapsed since the last modeling phase (the first fit always
        runs).  Under :class:`~repro.runtime.async_engine.SimScheduler`
        the interval is measured on the virtual clock, so campaigns stay
        deterministic.  Requires ``async_eval=True``.
    pending_penalty:
        How async proposals avoid in-flight points: ``"cl"`` (constant
        liar — the posterior copy is extended with incumbent-valued lies at
        pending points; the default), ``"lp"`` (local penalization — EI is
        multiplied by a compactly supported distance factor), or ``"none"``.
        See :mod:`repro.core.search.penalty`.
    penalty_radius:
        Unit-cube radius of the ``"lp"`` penalty (also the fallback when
        the constant-liar extension fails).
    seed:
        Master seed; all randomness (sampling, PSO, NSGA-II, restarts)
        derives from it, making runs reproducible.
    max_seconds:
        Optional wall-clock budget for one :meth:`~repro.core.mla.GPTune.tune`
        call; iteration stops once exceeded (the *anytime* usage mode —
        "the best performance so-far when tuning is terminated early",
        Sec. 1).  The evaluation budget ``ε_tot`` still caps the run.
    retry_attempts:
        Attempts per objective evaluation (1 = no retry).  Crashes, NaN/inf
        results and timeouts are retried before the failure penalty applies
        (see :mod:`repro.runtime.resilience`).
    retry_backoff:
        Base delay in seconds before the first retry (0 = immediate).
    retry_backoff_factor:
        Exponential growth factor of the retry delay.
    retry_jitter:
        Fractional deterministic jitter added to each delay (seeded from
        ``seed``, so replayed campaigns sleep the same schedule).
    eval_timeout:
        Per-attempt wall-clock cap in seconds for one objective evaluation;
        a hung objective counts as a retryable ``"timeout"`` failure.
    checkpoint_path:
        When set, a resumable :class:`~repro.runtime.resilience.RunCheckpoint`
        is written (atomically) to this path after the sampling phase and
        after each MLA iteration; a killed campaign continues exactly where
        it stopped via :meth:`~repro.core.mla.GPTune.resume`.
    checkpoint_every:
        Write the checkpoint every k-th iteration (the post-sampling snapshot
        is always written).
    model_backend:
        Surrogate backend for the modeling phase (see
        :mod:`repro.core.model.registry`): ``"auto"`` (the default) uses
        the exact LCM while the stacked observation count is at most
        ``sparse_threshold`` and escalates to the sparse inducing-point
        backend beyond it; ``"exact-lcm"``, ``"sparse-lcm"`` and ``"gp"``
        force one backend.  Validated against the registry at construction.
    sparse_threshold:
        Observation count past which ``model_backend="auto"`` switches from
        the exact O(N³) LCM to the O(N·M²) sparse backend.
    n_inducing:
        M — inducing-set size of the sparse backend (≥ 2).  Fits on
        ``N ≤ M`` observations collapse to the exact subset fit.
    chol_ranks:
        When set (> 1), the exact backend's posterior factorization runs on
        this many simulated MPI ranks via the distributed Cholesky
        (Sec. 4.3's ScaLAPACK level); results are numerically identical,
        and the simulated parallel time is exposed on the model.
    model_cache_path:
        When set, a :class:`~repro.service.modelcache.SurrogateCache` at this
        path is consulted before every modeling phase and fed after it: a
        campaign whose data is a subset/superset of a cached fit warm-starts
        L-BFGS from the cached hyperparameters with a single start instead of
        ``n_start`` cold multi-starts.  Share one path between campaigns (the
        file is lock-guarded) to skip redundant modeling across restarts and
        neighboring crowd-tuning runs.
    model_fallback:
        Degrade gracefully when the LCM fit fails (Cholesky breakdown, all
        multi-starts diverging): fall back to independent per-task GPs (the
        ``gp`` backend), then to random search, recording a
        ``"model-downgrade"`` event per step; a failing ``gp`` backend goes
        straight to random search.
        When False, a failed fit aborts the run as before.
    refit_warm_start:
        Keep each objective's fitted hyperparameters between MLA iterations
        and refit with ``theta0 = θ_prev`` and ``refit_warm_n_start`` starts
        instead of ``n_start`` cold multi-starts.  The likelihood landscape
        barely moves when one batch of points is added, so the previous
        optimum is an excellent initial iterate; the first iteration (and
        any iteration whose model shape changed) still fits cold.  The
        ``gp`` backend warm-starts the same way, each task's GP from its own
        previous θ, whether it is chosen explicitly
        (``model_backend="gp"``) or reached by the degradation ladder.
    refit_warm_n_start:
        L-BFGS start count for warm refits (default 1 — a single run from
        the previous optimum).
    refit_interval:
        Full hyperparameter refit every k-th modeling phase; intermediate
        iterations *extend* the fitted posterior with the new observations
        via an O(N²·n_new) block Cholesky update
        (:meth:`repro.core.lcm.LCM.extend`) — no L-BFGS at all, recorded as
        a ``"model-extend"`` event.  1 (default) refits every iteration;
        larger values trade hyperparameter freshness for modeling time.
        With performance models attached, the campaign's one featurizer is
        re-estimated at every full refit and frozen during extend phases,
        so model-enriched campaigns extend too.
    telemetry:
        Record timestamped phase/model/backoff spans into the campaign log
        while tuning (see :mod:`repro.observability.spans`): the four driver
        phases (sampling, modeling, search, evaluation), every LCM fit /
        extend plus aggregated predict totals, and retry-backoff waits, all
        with wall-clock and monotonic stamps.  Off (the default) costs
        nothing measurable.  The CLI's ``--telemetry out.jsonl`` turns this
        on and streams the log to a JSONL file that ``repro report`` renders
        into the Table-3-style phase breakdown.
    verbose:
        Print per-iteration progress.
    """

    n_latent: Optional[int] = None
    n_start: int = 3
    lbfgs_maxiter: int = 200
    jitter: float = 1e-8
    y_transform: str = "standardize"
    ei_candidates: int = 40
    pso_iters: int = 30
    nsga_pop: int = 40
    nsga_gens: int = 25
    pareto_batch: int = 4
    batch_evals: int = 1
    initial_fraction: float = 0.5
    backend: str = "serial"
    n_workers: int = 2
    async_eval: bool = False
    max_inflight: Optional[int] = None
    async_refit_secs: Optional[float] = None
    pending_penalty: str = "cl"
    penalty_radius: float = 0.15
    seed: Optional[int] = None
    max_seconds: Optional[float] = None
    retry_attempts: int = 1
    retry_backoff: float = 0.0
    retry_backoff_factor: float = 2.0
    retry_jitter: float = 0.0
    eval_timeout: Optional[float] = None
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 1
    model_backend: str = "auto"
    sparse_threshold: int = 512
    n_inducing: int = 128
    chol_ranks: Optional[int] = None
    model_cache_path: Optional[str] = None
    model_fallback: bool = True
    refit_warm_start: bool = False
    refit_warm_n_start: int = 1
    refit_interval: int = 1
    telemetry: bool = False
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.n_latent is not None and self.n_latent < 1:
            raise ValueError("n_latent must be >= 1")
        if self.n_start < 1:
            raise ValueError("n_start must be >= 1")
        if self.lbfgs_maxiter < 1:
            raise ValueError("lbfgs_maxiter must be >= 1")
        if self.ei_candidates < 1:
            raise ValueError("ei_candidates must be >= 1")
        if self.pso_iters < 1:
            raise ValueError("pso_iters must be >= 1")
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.model_backend != "auto":
            from .model.registry import available_backends

            if self.model_backend not in available_backends():
                known = ", ".join(("auto",) + available_backends())
                raise ValueError(
                    f"unknown model_backend {self.model_backend!r}; known: {known}"
                )
        if self.sparse_threshold < 1:
            raise ValueError("sparse_threshold must be >= 1")
        if self.n_inducing < 2:
            raise ValueError("n_inducing must be >= 2")
        if self.chol_ranks is not None and self.chol_ranks < 1:
            raise ValueError("chol_ranks must be >= 1")
        if not 0.0 < self.initial_fraction < 1.0:
            raise ValueError("initial_fraction must be in (0, 1)")
        if self.y_transform not in ("standardize", "log", "none"):
            raise ValueError(f"unknown y_transform {self.y_transform!r}")
        if self.backend not in ("serial", "thread", "process"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.async_refit_secs is not None:
            if self.async_refit_secs <= 0:
                raise ValueError("async_refit_secs must be positive")
            if not self.async_eval:
                raise ValueError("async_refit_secs requires async_eval=True")
        if self.pending_penalty not in ("cl", "lp", "none"):
            raise ValueError(f"unknown pending_penalty {self.pending_penalty!r}")
        if self.penalty_radius <= 0:
            raise ValueError("penalty_radius must be positive")
        if self.nsga_pop < 1:
            raise ValueError(f"nsga_pop must be >= 1, got {self.nsga_pop!r}")
        if self.nsga_gens < 1:
            raise ValueError(f"nsga_gens must be >= 1, got {self.nsga_gens!r}")
        if self.pareto_batch < 1:
            raise ValueError("pareto_batch must be >= 1")
        if self.batch_evals < 1:
            raise ValueError("batch_evals must be >= 1")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError("max_seconds must be positive")
        if self.retry_attempts < 1:
            raise ValueError("retry_attempts must be >= 1")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if self.retry_backoff_factor < 1:
            raise ValueError("retry_backoff_factor must be >= 1")
        if self.retry_jitter < 0:
            raise ValueError("retry_jitter must be >= 0")
        if self.eval_timeout is not None and self.eval_timeout <= 0:
            raise ValueError("eval_timeout must be positive")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.refit_warm_n_start < 1:
            raise ValueError("refit_warm_n_start must be >= 1")
        if self.refit_interval < 1:
            raise ValueError("refit_interval must be >= 1")

    def replace(self, **kw) -> "Options":
        """Return a copy with the given fields overridden."""
        return dataclasses.replace(self, **kw)

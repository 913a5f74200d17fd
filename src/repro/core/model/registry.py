"""Surrogate-backend registry and budget-aware selection policy.

The modeling phase used to hard-code the exact LCM.  This module turns the
surrogate into a pluggable **backend**: a named factory producing a model
with the driver's fit/predict contract —

* ``fit(X, y, task_index, theta0=None)`` on stacked normalized samples,
* ``predict_tasks(tasks, Xstar) -> (mu, var)`` over a shared ``(N*, β)``
  block or per-task ``(n_tasks, N*, β)`` blocks, each output
  ``(n_tasks, N*)`` — the search phase's only posterior call, under the
  barrier and the streaming policy alike; validate its arguments with
  :func:`~repro.core.posterior.task_block`,
* ``predict(task, Xstar) -> (mu, var)`` for one task, each ``(N*,)``, for
  library callers such as :mod:`~repro.core.sensitivity`.  Where tasks
  share a kernel it is the one-task view of ``predict_tasks`` (the
  ``LCM``/``SparseLCM`` backends); where they do not it is the primitive
  ``predict_tasks`` loops over (``PerTaskGP``);
* optionally ``extend`` (enables refit-interval/async streaming
  absorption), ``refit_at`` (the fitter checkpoints
  the warm posterior and rebuilds it on resume), a flat ``theta`` in the
  :class:`~repro.core.posterior.LCMParams` layout (enables warm starts and
  the surrogate cache), and ``log_likelihood_`` (the driver's divergence
  check).

Three backends ship registered:

``exact-lcm``
    The reference O(N³) :class:`~repro.core.lcm.LCM`.
``sparse-lcm``
    The O(N·M²) inducing-point :class:`~repro.core.model.sparse_lcm.SparseLCM`.
``gp``
    Independent per-task GPs (:class:`~repro.core.model.gp_backend.PerTaskGP`)
    — the degradation rung as an explicit choice.  Each task's GP is the
    exact LCM at ``δ = 1``, so it has ``extend`` and ``refit_at`` too.  It
    carries no flat θ; :class:`~repro.core.model.fitter.SurrogateFitter`
    warm-starts and checkpoints it with per-task θ instead, the same
    whether it was chosen or reached by the ladder.

:func:`select_backend` implements the budget-aware policy:
``model_backend="auto"`` (the default) keeps today's exact path while the
observation count is at most ``sparse_threshold`` and **escalates to the
sparse backend** beyond it, so long campaigns and big-archive transfer
stay O(N·M²) without user intervention.  The shared θ layout makes the
escalation seamless: warm starts carry over from the last exact fit.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Tuple

__all__ = [
    "BackendSpec",
    "available_backends",
    "get_backend",
    "register_backend",
    "select_backend",
]


@dataclasses.dataclass(frozen=True)
class BackendSpec:
    """One registered surrogate backend.

    Attributes
    ----------
    name:
        Registry key (also the ``Options.model_backend`` value).
    factory:
        ``factory(n_tasks, n_dims, n_latent, n_start, seed, executor,
        options) -> model``; ``executor`` is the scheduler the fit maps
        its restart groups over (``None``: inline), ``options`` the
        campaign's :class:`~repro.core.options.Options` for
        backend-specific knobs.
    supports_theta:
        The model carries a flat θ in the shared :class:`LCMParams` layout
        — warm-startable across iterations *and* backends, and cacheable in
        the :class:`~repro.service.modelcache.SurrogateCache`.
    description:
        One-line summary for ``--help`` and docs.
    """

    name: str
    factory: Callable[..., Any]
    supports_theta: bool = False
    description: str = ""


_REGISTRY: Dict[str, BackendSpec] = {}


def register_backend(spec: BackendSpec, replace: bool = False) -> None:
    """Register a backend; re-registering a name requires ``replace=True``."""
    if spec.name == "auto":
        raise ValueError('"auto" is the selection policy, not a backend name')
    if spec.name in _REGISTRY and not replace:
        raise ValueError(f"backend {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec


def get_backend(name: str) -> BackendSpec:
    """The registered spec for ``name``; raises with the known names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown model backend {name!r}; known: {known}") from None


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, registration order."""
    return tuple(_REGISTRY)


def select_backend(preference: str, n_obs: int, sparse_threshold: int) -> str:
    """Resolve ``Options.model_backend`` to a concrete backend name.

    ``"auto"`` escalates from ``"exact-lcm"`` to ``"sparse-lcm"`` once the
    stacked observation count exceeds ``sparse_threshold``; any other value
    is passed through after validation.
    """
    if preference == "auto":
        return "sparse-lcm" if int(n_obs) > int(sparse_threshold) else "exact-lcm"
    get_backend(preference)  # raises on unknown names
    return preference


# -- built-in backends ---------------------------------------------------------


def _make_exact(n_tasks, n_dims, n_latent, n_start, seed, executor, options):
    from ..lcm import LCM

    return LCM(
        n_tasks=n_tasks,
        n_dims=n_dims,
        n_latent=n_latent,
        jitter=options.jitter,
        n_start=n_start,
        maxiter=options.lbfgs_maxiter,
        seed=seed,
        executor=executor,
    )


def _make_sparse(n_tasks, n_dims, n_latent, n_start, seed, executor, options):
    from .sparse_lcm import SparseLCM

    return SparseLCM(
        n_tasks=n_tasks,
        n_dims=n_dims,
        n_latent=n_latent,
        n_inducing=options.n_inducing,
        jitter=options.jitter,
        n_start=n_start,
        maxiter=options.lbfgs_maxiter,
        seed=seed,
        executor=executor,
    )


def _make_gp(n_tasks, n_dims, n_latent, n_start, seed, executor, options):
    from .gp_backend import PerTaskGP

    return PerTaskGP(
        n_tasks=n_tasks,
        n_dims=n_dims,
        jitter=options.jitter,
        n_start=n_start,
        maxiter=options.lbfgs_maxiter,
        seed=seed,
    )


register_backend(
    BackendSpec(
        "exact-lcm",
        _make_exact,
        supports_theta=True,
        description="reference O(N³) multitask LCM (one Cholesky factorization)",
    )
)
register_backend(
    BackendSpec(
        "sparse-lcm",
        _make_sparse,
        supports_theta=True,
        description="O(N·M²) shared-inducing-set Nyström/SoR LCM approximation",
    )
)
register_backend(
    BackendSpec(
        "gp",
        _make_gp,
        supports_theta=False,
        description="independent per-task GPs (no task coupling)",
    )
)

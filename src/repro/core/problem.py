"""Tuning-problem definition shared by GPTune and the baseline tuners.

A :class:`TuningProblem` carries the three spaces of Table 1 — task space
``IS``, tuning space ``PS`` and output space ``OS`` — plus the black-box
objective and (optionally) coarse performance models (Sec. 3.3).  The
objective is invoked as ``objective(task_dict, config_dict)`` and must return
a scalar for γ = 1 or a length-γ sequence otherwise.  All tuners in this
package consume this interface, which mirrors GPTune's "autotune" problem
description.
"""

from __future__ import annotations

from typing import Any, Callable, List, Mapping, Optional, Sequence

import numpy as np

from ..runtime.resilience import (
    EvalOutcome,
    EvalTimeoutError,
    FatalEvaluationError,
    RetryPolicy,
    run_with_retries,
)
from .space import Space

__all__ = ["TuningProblem"]

Objective = Callable[[Mapping[str, Any], Mapping[str, Any]], Any]
ModelFn = Callable[[Mapping[str, Any], Mapping[str, Any]], float]


class TuningProblem:
    """Black-box autotuning problem over (IS, PS, OS).

    Parameters
    ----------
    task_space:
        ``IS`` — the task parameters (e.g. matrix dimensions).
    tuning_space:
        ``PS`` — the parameters to optimize; its constraints may reference
        task parameter names (they are bound at feasibility checks).
    objective:
        The expensive black box ``y(t, x)``; scalar for γ = 1, length-γ
        sequence otherwise.  Minimized.
    n_objectives:
        γ — output dimension.
    models:
        Optional coarse performance models ``ỹ_s(t, x)``; see
        :mod:`repro.core.perfmodel`.  Either plain callables or
        :class:`repro.core.perfmodel.PerformanceModel` instances (which carry
        fittable hyperparameters).
    objective_names:
        Names of the γ outputs (defaults to ``y0, y1, …``).
    name:
        Problem label used in logs and history records.
    failure_value:
        Real application runs crash, time out, or return NaN.  When set,
        evaluations that raise, time out or return non-finite values after
        their last retry are replaced by this penalty vector (scalar
        broadcast over γ) instead of aborting the tuning run; the surrogate
        then learns to avoid the failing region.  The problem keeps no
        count: a penalized evaluation is one whose
        :class:`~repro.runtime.resilience.EvalOutcome` is ``failed``, and a
        campaign counts them in ``stats["n_eval_failures"]``.  ``None``
        (default) re-raises, for problems that must not fail.
    """

    def __init__(
        self,
        task_space: Space,
        tuning_space: Space,
        objective: Objective,
        n_objectives: int = 1,
        models: Optional[Sequence[ModelFn]] = None,
        objective_names: Optional[Sequence[str]] = None,
        name: str = "problem",
        failure_value: Optional[Any] = None,
    ):
        self.task_space = task_space
        self.tuning_space = tuning_space
        self.objective = objective
        self.n_objectives = int(n_objectives)
        if self.n_objectives < 1:
            raise ValueError("n_objectives must be >= 1")
        self.models: List[ModelFn] = list(models or [])
        names = list(objective_names or [f"y{i}" for i in range(self.n_objectives)])
        if len(names) != self.n_objectives:
            raise ValueError("objective_names length must equal n_objectives")
        self.objective_names = names
        self.name = str(name)
        if failure_value is None:
            self.failure_value: Optional[np.ndarray] = None
        else:
            fv = np.atleast_1d(np.asarray(failure_value, dtype=float))
            if fv.shape == (1,) and self.n_objectives > 1:
                fv = np.repeat(fv, self.n_objectives)
            if fv.shape != (self.n_objectives,):
                raise ValueError(
                    f"failure_value must broadcast to ({self.n_objectives},), got {fv.shape}"
                )
            if not np.all(np.isfinite(fv)):
                raise ValueError("failure_value must be finite")
            self.failure_value = fv

    # -- evaluation -----------------------------------------------------
    def evaluate_outcome(
        self,
        task: Mapping[str, Any],
        config: Mapping[str, Any],
        retry: Optional[RetryPolicy] = None,
    ) -> EvalOutcome:
        """Run the black box under a retry policy; returns the full record.

        Every objective call is routed through
        :func:`repro.runtime.resilience.run_with_retries`: crashes, NaN/inf
        results and timeouts are retried up to ``retry.max_attempts`` with the
        policy's deterministic backoff.  When all attempts fail, the outcome's
        value becomes :attr:`failure_value` and ``outcome.failed`` stays true —
        or, with no failure value configured, the last error is re-raised.

        The configuration is round-tripped through the tuning space first so
        integers/categoricals are exactly representable, matching what the
        surrogate saw.  A wrong-shaped objective result is a programming
        error and raises immediately, never retried or penalized.
        """
        t = self.task_space.to_dict(task)
        x = self.tuning_space.round_trip(config)
        objective, n_obj = self.objective, self.n_objectives

        def call() -> np.ndarray:
            y = np.atleast_1d(np.asarray(objective(t, x), dtype=float))
            if y.shape != (n_obj,):
                raise FatalEvaluationError(
                    f"objective returned shape {y.shape}, expected ({n_obj},)"
                )
            return y

        outcome = run_with_retries(call, retry)
        if outcome.failed:
            if self.failure_value is None:
                if outcome.error is not None:
                    raise outcome.error
                if outcome.failure_kind == "timeout":
                    raise EvalTimeoutError(outcome.message)
                raise ValueError(f"objective returned non-finite value at {x}")
            outcome.value = self.failure_value.copy()
        return outcome

    def evaluate(self, task: Mapping[str, Any], config: Mapping[str, Any]) -> np.ndarray:
        """Run the black box once; returns a ``(γ,)`` float vector.

        Thin wrapper over :meth:`evaluate_outcome` with the default (single
        attempt, no timeout) policy.
        """
        return self.evaluate_outcome(task, config).value

    def is_feasible(self, task: Mapping[str, Any], config: Mapping[str, Any]) -> bool:
        """Joint feasibility of a configuration for a given task."""
        return self.tuning_space.is_feasible(config, extra=self.task_space.to_dict(task))

    def feasibility_on_unit(self, task: Mapping[str, Any]) -> Callable[[np.ndarray], np.ndarray]:
        """Vectorized feasibility predicate over *normalized* points.

        Returned callable maps ``(n, β)`` unit points to a boolean mask; used
        to confine acquisition optimizers to the feasible region.  It
        evaluates whole candidate blocks at once via
        :meth:`repro.core.space.Space.feasible_mask`.
        """
        tdict = self.task_space.to_dict(task)
        space = self.tuning_space

        def check(Xunit: np.ndarray) -> np.ndarray:
            return space.feasible_mask(Xunit, extra=tdict)

        return check

    @property
    def has_models(self) -> bool:
        """Whether coarse performance models were supplied."""
        return bool(self.models)

    def __repr__(self) -> str:
        return (
            f"TuningProblem({self.name!r}, α={self.task_space.dimension}, "
            f"β={self.tuning_space.dimension}, γ={self.n_objectives}, "
            f"γ̃={len(self.models)})"
        )

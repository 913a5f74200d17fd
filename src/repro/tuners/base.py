"""Common interface for single-task baseline tuners.

The paper compares GPTune against OpenTuner and HpBandSter, which "do not
support multitask learning", so they are run separately on each task
(Sec. 6.6).  Every baseline here implements

``tune(problem, task, n_samples, seed) -> TuneResult``

over the same :class:`~repro.core.problem.TuningProblem` the MLA driver
consumes, and returns the driver's own :class:`~repro.core.mla.TuneResult`
over a one-task :class:`~repro.core.data.TuningData`, so one
post-processing serves every tuner (``result.best(0)``,
``result.data.Y[0]``).  Each evaluation runs through
:meth:`~repro.core.problem.TuningProblem.evaluate_outcome` and
:func:`~repro.core.mla.absorb_outcome`, as in a GPTune campaign.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional

import numpy as np

from ..core.data import TuningData
from ..core.mla import TuneResult, absorb_outcome
from ..core.problem import TuningProblem
from ..observability import CampaignLog, MetricsRegistry

__all__ = ["Tuner"]

#: ``evaluate(config, task=None, add=True) -> first objective value``: runs
#: one configuration (on ``task``, default the tuned task) and absorbs it,
#: adding it to the run's data unless ``add`` is false
Evaluate = Callable[..., float]


class Tuner:
    """Base class: the one evaluation path and record for every baseline.

    A subclass implements :meth:`_loop`, its proposal loop, which sees only
    the run's data and its ``evaluate``; :meth:`tune` owns the rest.
    """

    name = "tuner"

    def tune(
        self,
        problem: TuningProblem,
        task: Mapping[str, Any],
        n_samples: int,
        seed: Optional[int] = None,
    ) -> TuneResult:
        """Tune one task with a budget of ``n_samples`` evaluations.

        The run's one generator is ``np.random.default_rng(seed)``.  The
        result's ``stats`` hold only what the absorbed evaluations write,
        and its ``models`` are empty.
        """
        data = TuningData(
            problem.task_space, problem.tuning_space, [task],
            n_objectives=problem.n_objectives,
        )
        stats = dict.fromkeys(
            ("objective_time", "objective_wall_time", "n_retries", "n_eval_failures"), 0.0
        )
        events, metrics = CampaignLog(), MetricsRegistry()

        def evaluate(cfg: Mapping[str, Any], task=None, add: bool = True) -> float:
            outcome = problem.evaluate_outcome(data.tasks[0] if task is None else task, cfg)
            cfg = problem.tuning_space.round_trip(cfg)
            absorb_outcome(data, 0, cfg, outcome, stats, events, metrics, add=add)
            return float(outcome.value[0])

        self._loop(data, evaluate, int(n_samples), np.random.default_rng(seed))
        return TuneResult(data, stats, [], events=events, metrics=metrics)

    def _loop(
        self,
        data: TuningData,
        evaluate: Evaluate,
        n_samples: int,
        rng: np.random.Generator,
    ) -> None:
        """Propose and ``evaluate`` configurations for ``data.tasks[0]``."""
        raise NotImplementedError

"""Adapter exposing GPTune through the single-task baseline interface.

The Fig. 6 / Tab. 4 comparisons run every tuner per task with equal budgets.
:class:`GPTuneTuner` wraps the MLA driver so it is interchangeable with the
baselines; with ``tasks=None`` it tunes the single requested task (the
δ = 1 single-task GP mode), and given a task list it runs true MLA with the
requested task first — letting the harness measure exactly the multitask
advantage the paper reports.  Either way :meth:`GPTuneTuner.tune` returns
GPTune's own :class:`~repro.core.mla.TuneResult`, whose task 0 is the
requested one, so ``result.best(0)`` reads as for every baseline.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from ..core.mla import GPTune, TuneResult
from ..core.options import Options
from ..core.problem import TuningProblem
from .base import Tuner

__all__ = ["GPTuneTuner"]


class GPTuneTuner(Tuner):
    """GPTune (single- or multitask) behind the baseline interface.

    Parameters
    ----------
    options:
        Base options; the per-call ``seed`` overrides ``options.seed``.
    tasks:
        Optional co-tuned task list.  When given, :meth:`tune` runs MLA over
        ``tasks ∪ {task}``, the requested task first (index 0 of the result).
    """

    name = "gptune"

    def __init__(self, options: Optional[Options] = None, tasks: Optional[Sequence[Any]] = None):
        self.options = options or Options()
        self.tasks = list(tasks) if tasks is not None else None

    def tune(
        self,
        problem: TuningProblem,
        task: Mapping[str, Any],
        n_samples: int,
        seed: Optional[int] = None,
    ) -> TuneResult:
        opts = self.options.replace(seed=seed) if seed is not None else self.options
        tdict = problem.task_space.to_dict(task)
        task_list = [tdict]
        if self.tasks:
            key = repr(sorted(tdict.items()))
            for t in self.tasks:
                td = problem.task_space.to_dict(t)
                if repr(sorted(td.items())) != key:
                    task_list.append(td)
        return GPTune(problem, opts).tune(task_list, int(n_samples))

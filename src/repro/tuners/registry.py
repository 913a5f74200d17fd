"""Tuner registry — GPTune's "invoke other tuners" interface.

Sec. 6.1: "To make it easier for users to try different autotuners, our
interface allows the user to invoke them as well.  So far, OpenTuner,
HpBandSter, and ytopt are supported."  :func:`run_tuner` is that interface:
one call signature for every tuner in this package, keyed by name, and one
result: a :class:`~repro.core.mla.TuneResult` whose task 0 is the requested
task.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional

from ..core.mla import TuneResult
from ..core.options import Options
from ..core.problem import TuningProblem
from .gptune_adapter import GPTuneTuner
from .grid_search import GridSearchTuner
from .hpbandster import HpBandSterTuner
from .opentuner import OpenTunerTuner
from .random_search import RandomSearchTuner
from .ytopt import YtoptTuner

__all__ = ["TUNERS", "make_tuner", "run_tuner"]

TUNERS: Dict[str, Callable[[], Any]] = {
    "gptune": lambda: GPTuneTuner(Options(n_start=2)),
    "opentuner": OpenTunerTuner,
    "hpbandster": HpBandSterTuner,
    "ytopt": YtoptTuner,
    "random": RandomSearchTuner,
    "grid": GridSearchTuner,
}


def make_tuner(name: str):
    """Instantiate a tuner by registry name."""
    try:
        return TUNERS[name]()
    except KeyError:
        raise ValueError(f"unknown tuner {name!r}; known: {sorted(TUNERS)}") from None


def run_tuner(
    name: str,
    problem: TuningProblem,
    task: Mapping[str, Any],
    n_samples: int,
    seed: Optional[int] = None,
) -> TuneResult:
    """Tune one task with the named tuner (uniform invocation interface)."""
    return make_tuner(name).tune(problem, task, int(n_samples), seed=seed)

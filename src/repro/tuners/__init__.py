"""Baseline tuners: random/grid search, OpenTuner-, HpBandSter- and
ytopt-style, plus the uniform invocation registry (Sec. 6.1)."""

from .base import Tuner
from .gptune_adapter import GPTuneTuner
from .grid_search import GridSearchTuner
from .hpbandster import HpBandSterTuner, ProductKDE
from .opentuner import OpenTunerTuner
from .random_search import RandomSearchTuner
from .registry import TUNERS, make_tuner, run_tuner
from .ytopt import RandomForestRegressor, YtoptTuner

__all__ = [
    "GPTuneTuner",
    "GridSearchTuner",
    "HpBandSterTuner",
    "OpenTunerTuner",
    "ProductKDE",
    "RandomForestRegressor",
    "RandomSearchTuner",
    "TUNERS",
    "Tuner",
    "YtoptTuner",
    "make_tuner",
    "run_tuner",
]

"""repro — a from-scratch reproduction of GPTune (PPoPP 2021).

GPTune is a multitask-learning Bayesian-optimization autotuner for exascale
applications.  This package implements the full system described in the
paper — the Linear Coregionalization Model surrogate, the MLA driver
(single- and multi-objective), coarse performance-model incorporation, a
(simulated) distributed-memory parallel runtime, the evaluated HPC
application substrates, and the OpenTuner/HpBandSter baseline tuners.

Quickstart::

    from repro import GPTune, Options
    from repro.apps.analytical import AnalyticalApp

    app = AnalyticalApp()
    tuner = GPTune(app.problem(), Options(seed=0))
    result = tuner.tune(tasks=[{"t": 2.0}], n_samples=20)
    print(result.best(0))

The public names below resolve on first use (PEP 562): ``import repro``
alone loads no subpackage, so a process that only serves or queries the
tuning-history service never imports the tuner.  ``from repro import
GPTune`` imports all of :mod:`repro.core` at that line.
"""

import importlib

__version__ = "1.0.0"

_CORE = (
    "Categorical",
    "Constraint",
    "GaussianProcess",
    "GPTune",
    "HistoryDB",
    "Integer",
    "LCM",
    "Options",
    "Real",
    "Space",
    "TransferLearner",
    "TuneResult",
    "TuningData",
    "TuningProblem",
    "surrogate_sensitivity",
)
_SERVICE = ("ServiceClient", "ShardedStore", "SurrogateCache")

__all__ = [*_SERVICE, *_CORE, "__version__"]


def __getattr__(name):
    """Import a public name's subpackage on first access (PEP 562)."""
    if name in _CORE:
        module = ".core"
    elif name in _SERVICE:
        module = ".service"
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    """Module attributes plus the not yet resolved public names."""
    return sorted(set(globals()) | set(__all__))

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

The public names below, and those of the subpackages :mod:`repro.core`,
:mod:`repro.apps`, :mod:`repro.runtime` and :mod:`repro.service`, resolve
on first use (PEP 562, :mod:`repro._lazy`).  ``import repro`` alone loads
no subpackage, so a process that only serves or queries the tuning-history
service never imports the tuner, and ``from repro import GPTune`` loads
the modules the driver runs rather than every module of :mod:`repro.core`.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".service": ("ServiceClient", "ShardedStore", "SurrogateCache"),
    ".core": (
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
    ),
})
__all__.append("__version__")

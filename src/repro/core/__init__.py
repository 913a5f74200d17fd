"""GPTune core: spaces, surrogates, acquisition, and the MLA driver.

The names below resolve on first use (PEP 562): ``from repro.core import
GPTune`` loads the driver and what it runs, not transfer learning,
sensitivity analysis or validation.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".acquisition": ("BatchedEIAcquisition", "EIAcquisition", "expected_improvement"),
    ".data": ("TuningData",),
    ".gp": ("GaussianProcess",),
    ".history": ("HistoryDB",),
    ".lcm": ("LCM",),
    ".metrics": (
        "dominates",
        "hypervolume_2d",
        "mean_stability",
        "pareto_mask",
        "stability",
        "win_task",
    ),
    "..runtime.resilience": (
        "EvalOutcome",
        "EvalTimeoutError",
        "FatalEvaluationError",
        "RetryPolicy",
        "RunCheckpoint",
    ),
    ".mla": ("GPTune", "TuneResult"),
    ".model": (
        "BackendSpec",
        "PerTaskGP",
        "SparseLCM",
        "available_backends",
        "get_backend",
        "register_backend",
        "select_backend",
    ),
    ".options": ("Options",),
    ".params": ("Categorical", "Integer", "Parameter", "Real"),
    ".perfmodel": (
        "CallableModel",
        "LinearPerformanceModel",
        "ModelFeaturizer",
        "PerformanceModel",
    ),
    ".posterior": ("LCMParams",),
    ".problem": ("TuningProblem",),
    ".sampling": ("LHSSampler", "RandomSampler", "lhs_unit", "sample_feasible"),
    ".search": ("NSGA2", "BatchedParticleSwarm", "ParticleSwarm"),
    ".sensitivity": ("sobol_indices", "surrogate_sensitivity"),
    ".space": ("Constraint", "Space"),
    ".tla": ("TransferLearner",),
    ".validation": ("loo_diagnostics", "loo_residuals"),
})

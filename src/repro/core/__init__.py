"""GPTune core: spaces, surrogates, acquisition, and the MLA driver."""

from .acquisition import BatchedEIAcquisition, EIAcquisition, expected_improvement
from .data import TuningData
from .gp import GaussianProcess
from .history import HistoryDB
from .lcm import LCM, LCMParams
from .metrics import (
    dominates,
    hypervolume_2d,
    mean_stability,
    pareto_mask,
    stability,
    win_task,
)
from ..runtime.resilience import (
    EvalOutcome,
    EvalTimeoutError,
    FatalEvaluationError,
    RetryPolicy,
    RunCheckpoint,
)
from .mla import GPTune, TuneResult
from .model import (
    BackendSpec,
    PerTaskGP,
    SparseLCM,
    available_backends,
    get_backend,
    register_backend,
    select_backend,
)
from .options import Options
from .params import Categorical, Integer, Parameter, Real
from .perfmodel import (
    CallableModel,
    LinearPerformanceModel,
    ModelFeaturizer,
    PerformanceModel,
)
from .problem import TuningProblem
from .sampling import LHSSampler, RandomSampler, lhs_unit, sample_feasible
from .search import NSGA2, BatchedParticleSwarm, ParticleSwarm
from .sensitivity import sobol_indices, surrogate_sensitivity
from .space import Constraint, Space
from .tla import TransferLearner
from .validation import loo_diagnostics, loo_residuals

__all__ = [
    "BackendSpec",
    "Categorical",
    "CallableModel",
    "Constraint",
    "BatchedEIAcquisition",
    "EIAcquisition",
    "EvalOutcome",
    "EvalTimeoutError",
    "FatalEvaluationError",
    "GaussianProcess",
    "GPTune",
    "HistoryDB",
    "Integer",
    "LCM",
    "LCMParams",
    "LHSSampler",
    "LinearPerformanceModel",
    "ModelFeaturizer",
    "NSGA2",
    "Options",
    "Parameter",
    "BatchedParticleSwarm",
    "ParticleSwarm",
    "PerformanceModel",
    "PerTaskGP",
    "RandomSampler",
    "Real",
    "RetryPolicy",
    "RunCheckpoint",
    "Space",
    "SparseLCM",
    "TransferLearner",
    "TuneResult",
    "TuningData",
    "TuningProblem",
    "sobol_indices",
    "surrogate_sensitivity",
    "available_backends",
    "dominates",
    "get_backend",
    "register_backend",
    "select_backend",
    "expected_improvement",
    "hypervolume_2d",
    "lhs_unit",
    "loo_diagnostics",
    "loo_residuals",
    "mean_stability",
    "pareto_mask",
    "sample_feasible",
    "stability",
    "win_task",
]

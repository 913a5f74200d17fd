"""Parallel runtime substrate: machine models, simulated MPI, schedulers."""

from .async_engine import WorkerError
from .distributed_linalg import (
    cholesky_spmd,
    distributed_cholesky,
    distributed_forward_solve,
    forward_substitution_spmd,
)
from .machine import Machine, cori_haswell, laptop
from .mpi import InterComm, Request, SimComm, SimJob, run_spmd
from .resilience import (
    EvalOutcome,
    EvalTimeoutError,
    FatalEvaluationError,
    RetryPolicy,
    RunCheckpoint,
    atomic_write_json,
    run_with_retries,
)
from .simclock import SimClock
from .trace import CampaignEvent, CampaignLog, JsonlEventWriter, TraceEvent, Tracer, traced

__all__ = [
    "CampaignEvent",
    "CampaignLog",
    "EvalOutcome",
    "JsonlEventWriter",
    "EvalTimeoutError",
    "FatalEvaluationError",
    "InterComm",
    "Machine",
    "Request",
    "RetryPolicy",
    "RunCheckpoint",
    "SimClock",
    "SimComm",
    "SimJob",
    "TraceEvent",
    "Tracer",
    "WorkerError",
    "atomic_write_json",
    "run_with_retries",
    "cholesky_spmd",
    "cori_haswell",
    "distributed_cholesky",
    "distributed_forward_solve",
    "forward_substitution_spmd",
    "traced",
    "laptop",
    "run_spmd",
]

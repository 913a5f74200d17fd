"""Parallel runtime substrate: machine models, simulated MPI, schedulers.

The names below resolve on first use (PEP 562): a process that needs one
runtime module (the history service needs only ``resilience``) does not
import the schedulers, simulated MPI or distributed linear algebra.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".async_engine": ("WorkerError",),
    ".distributed_linalg": (
        "cholesky_spmd",
        "distributed_cholesky",
        "distributed_forward_solve",
        "forward_substitution_spmd",
    ),
    ".machine": ("Machine", "cori_haswell", "laptop"),
    ".mpi": ("InterComm", "Request", "SimComm", "SimJob", "run_spmd"),
    ".resilience": (
        "EvalOutcome",
        "EvalTimeoutError",
        "FatalEvaluationError",
        "RetryPolicy",
        "RunCheckpoint",
        "atomic_write_json",
        "run_with_retries",
    ),
    ".simclock": ("SimClock",),
    ".trace": ("TraceEvent", "Tracer", "traced"),
})

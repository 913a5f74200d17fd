"""Surrogate-backend subsystem: registry, selection policy, and backends.

See :mod:`repro.core.model.registry` for the backend contract and the
budget-aware ``auto`` escalation policy, :mod:`repro.core.model.fitter` for
the modeling-phase policy (warm starts, extension, degradation ladder,
checkpoint state), :mod:`repro.core.model.sparse_lcm` for the O(N·M²)
inducing-point LCM, and docs/ALGORITHMS.md §7 for the math.
"""

from .fitter import SurrogateFitter
from .gp_backend import PerTaskGP
from .inducing import max_min_indices, select_inducing
from .registry import (
    BackendSpec,
    available_backends,
    get_backend,
    register_backend,
    select_backend,
)
from .sparse_lcm import SparseLCM

__all__ = [
    "BackendSpec",
    "PerTaskGP",
    "SparseLCM",
    "SurrogateFitter",
    "available_backends",
    "get_backend",
    "max_min_indices",
    "register_backend",
    "select_backend",
    "select_inducing",
]

"""Search-phase optimizers: PSO for single-objective EI (Sec. 3.1), its
cross-task lockstep variant, NSGA-II for multi-objective candidate
selection (Sec. 3.2), and the pending-point penalty for the asynchronous
streaming search."""

from .pso import ParticleSwarm
from .pso_batched import BatchedParticleSwarm
from .nsga2 import NSGA2, fast_non_dominated_sort, crowding_distance
from .penalty import local_penalty

__all__ = [
    "ParticleSwarm",
    "BatchedParticleSwarm",
    "NSGA2",
    "fast_non_dominated_sort",
    "crowding_distance",
    "local_penalty",
]

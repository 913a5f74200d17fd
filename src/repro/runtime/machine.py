"""Machine models.

The paper's experiments ran on NERSC Cori (Cray XC40; 2388 Haswell nodes of
two 16-core Xeon E5-2698v3 and 128 GB DDR4).  Since this reproduction has no
supercomputer, the machine is an explicit parameter: every application
simulator and the simulated-MPI cost model price their work against a
:class:`Machine`.  Keeping the machine a value object also lets benchmarks
ask "what would change on a fatter-node system" — the kind of what-if the
original authors could not run cheaply.
"""

from __future__ import annotations

import dataclasses

__all__ = ["Machine", "cori_haswell", "laptop"]


@dataclasses.dataclass(frozen=True)
class Machine:
    """A homogeneous cluster description.

    Attributes
    ----------
    name:
        Label used in logs.
    nodes:
        Node count available to the job.
    cores_per_node:
        Physical cores per node.
    flops_per_core:
        Peak double-precision flop/s of one core.
    mem_per_node:
        Usable memory per node, bytes.
    latency:
        Network point-to-point latency α, seconds.
    inv_bandwidth:
        Inverse network bandwidth β, seconds per byte.
    mem_bandwidth:
        Per-node memory bandwidth, bytes/s (used by bandwidth-bound kernels
        such as sparse mat-vec and AMG smoothing).
    blas_efficiency:
        Fraction of peak a well-blocked dense kernel achieves.
    """

    name: str = "generic"
    nodes: int = 1
    cores_per_node: int = 32
    flops_per_core: float = 36.8e9
    mem_per_node: float = 128e9
    latency: float = 1.5e-6
    inv_bandwidth: float = 1.0 / 8e9
    mem_bandwidth: float = 120e9
    blas_efficiency: float = 0.85

    def __post_init__(self):
        if self.nodes < 1 or self.cores_per_node < 1:
            raise ValueError("need at least one node and one core")
        if min(self.flops_per_core, self.mem_per_node, self.mem_bandwidth) <= 0:
            raise ValueError("rates and capacities must be positive")
        if self.latency < 0 or self.inv_bandwidth < 0:
            raise ValueError("latency/inv_bandwidth must be non-negative")

    @property
    def total_cores(self) -> int:
        """Total core count of the allocation."""
        return self.nodes * self.cores_per_node

    def flops_rate(self, cores: int, efficiency: float = 1.0) -> float:
        """Aggregate flop/s of ``cores`` cores at a given efficiency."""
        cores = max(1, min(int(cores), self.total_cores))
        return cores * self.flops_per_core * self.blas_efficiency * efficiency

    def time_flops(self, flops: float, cores: int = 1, efficiency: float = 1.0) -> float:
        """Seconds to execute ``flops`` floating-point operations."""
        return float(flops) / self.flops_rate(cores, efficiency)

    def time_message(self, nbytes: float) -> float:
        """Seconds for one point-to-point message of ``nbytes`` (α-β model)."""
        return self.latency + float(nbytes) * self.inv_bandwidth


def cori_haswell(nodes: int = 1) -> Machine:
    """The Cori Haswell partition used throughout Sec. 6.

    Two 16-core Intel Xeon E5-2698v3 (2.3 GHz, 16 dp flops/cycle) per node,
    128 GB DDR4-2133, Cray Aries interconnect.
    """
    return Machine(
        name=f"cori-haswell-{nodes}",
        nodes=nodes,
        cores_per_node=32,
        flops_per_core=36.8e9,
        mem_per_node=128e9,
        latency=1.5e-6,
        inv_bandwidth=1.0 / 8e9,
        mem_bandwidth=120e9,
        blas_efficiency=0.85,
    )


def laptop() -> Machine:
    """A 4-core laptop, the artifact-appendix fallback machine."""
    return Machine(
        name="laptop",
        nodes=1,
        cores_per_node=4,
        flops_per_core=20e9,
        mem_per_node=16e9,
        latency=0.5e-6,
        inv_bandwidth=1.0 / 12e9,
        mem_bandwidth=40e9,
        blas_efficiency=0.7,
    )

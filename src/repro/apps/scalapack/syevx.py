"""PDSYEVX — dense symmetric eigensolver simulator (ScaLAPACK).

Computes eigenvalues/eigenvectors of a real symmetric ``m × m`` matrix.
Per Sec. 6.2 the task enforces ``m = n`` and the blocks ``b_r = b_c``, so
``t = [m]`` and ``x = [b, p, p_r]`` with the ``p_r ≤ p`` grid constraint.

The runtime model reflects PDSYEVX's structure: Householder
*tridiagonalization* (``4m³/3`` flops, roughly half of them BLAS-2
matrix-vector products that run at memory bandwidth, which is why the
routine is notoriously less block-friendly than QR), bisection + inverse
iteration on the tridiagonal (``O(m²)``), and the BLAS-3
*back-transformation* of eigenvectors (``2m³``).  Communication follows the
same panel-broadcast pattern as QR.  The best runtime scales as ``O(m³)``,
matching the Fig. 5 (right) observation.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Mapping

from ...core.params import Integer
from ...core.space import Space
from ..base import Application, noise_rng
from . import costs
from .blockcyclic import factorization_imbalance

__all__ = ["PDSYEVX"]


class PDSYEVX(Application):
    """ScaLAPACK symmetric eigenvalue runtime simulator.

    Parameters
    ----------
    m_max:
        Upper bound of the task range (paper: 3000 ≤ m ≤ 7000 on one node).
    noise:
        σ of the lognormal run-to-run noise.
    """

    name = "pdsyevx"
    n_objectives = 1
    objective_names = ("runtime",)

    def __init__(self, m_max: int = 8000, noise: float = 0.05, **kw):
        kw.setdefault("repeats", 3)
        super().__init__(**kw)
        self.m_max = int(m_max)
        self.noise = float(noise)
        self.p_max = self.machine.total_cores

    def task_space(self) -> Space:
        return Space([Integer("m", 256, self.m_max)])

    def tuning_space(self) -> Space:
        return Space(
            [
                Integer("b", 4, 256, transform="log"),
                Integer("p", 2, self.p_max, transform="log"),
                Integer("p_r", 1, self.p_max, transform="log"),
            ],
            constraints=["p_r <= p"],
        )

    def default_config(self, task: Mapping[str, Any]) -> Dict[str, Any]:
        p = self.p_max
        return {"b": 32, "p": p, "p_r": max(1, int(math.sqrt(p)))}

    def run(self, task: Mapping[str, Any], config: Mapping[str, Any], repeat: int) -> float:
        m = int(task["m"])
        b, p, p_r = int(config["b"]), int(config["p"]), int(config["p_r"])
        p_c = costs.grid_cols(p, p_r)
        p_used = p_r * p_c
        nthreads = max(1, min(self.p_max // p, self.machine.cores_per_node))
        mach = self.machine

        # tridiagonalization: half BLAS-3 (symmetric update), half BLAS-2
        flops_tri = 4.0 / 3.0 * m**3 / p_used
        blas3_rate = (
            mach.flops_per_core
            * mach.blas_efficiency
            * nthreads
            * (b / (b + 16.0))
            / (1.0 + (b / 256.0) ** 1.5)
            / (1.0 + 0.03 * (nthreads - 1))
        )
        # BLAS-2 half runs at memory bandwidth shared by on-node processes
        procs_per_node = max(1, p_used // max(1, mach.nodes))
        bw_per_proc = mach.mem_bandwidth / procs_per_node * nthreads / max(
            1, mach.cores_per_node // procs_per_node
        )
        blas2_rate = max(bw_per_proc / 8.0, 1e6)  # one flop per word streamed
        t_tri = 0.5 * flops_tri / blas3_rate + 0.5 * flops_tri / blas2_rate

        # bisection + inverse iteration on the tridiagonal (sequential-ish)
        t_tridiag_solve = 40.0 * m * m / (mach.flops_per_core * nthreads) / p_c

        # eigenvector back-transformation: pure BLAS-3
        t_back = 2.0 * m**3 / p_used / blas3_rate

        # panel-broadcast communication, QR-like counts with n = m
        msgs = costs.qr_messages(m, p_used, p_r, b)
        words = costs.qr_volume(m, m, p_used, p_r, b)
        t_comm = msgs * mach.latency + 8.0 * words * mach.inv_bandwidth

        # imbalance from the actual block-cyclic layout of the m × m matrix
        imbalance = factorization_imbalance(m, m, b, p_r, p_c)
        base = (t_tri + t_tridiag_solve + t_back) * imbalance + t_comm + 1e-4

        rng = noise_rng(self.seed + repeat, task, config)
        return float(base * math.exp(rng.normal(0.0, self.noise)))

"""PDGEQRF — dense QR factorization simulator (ScaLAPACK).

The tuning setup follows Sec. 2 / 6.2 of the paper: task ``t = [m, n]``,
tuning parameters ``x = [b, p, p_r]`` with ``b = b_r = b_c`` (β = 3 per
Table 2; the cost formulas of Sec. 3.3 already assume square blocks),
``p_c = ⌊p / p_r⌋``, ``nthreads = ⌊p_max / p⌋`` BLAS threads per process,
and the constraint ``p_r ≤ p``.

The simulated runtime prices the Eq. (8)–(10) counts on the machine model
and layers on the *structured residual* a coarse model misses on real
hardware — the effects an autotuner actually has to discover:

* **block-size efficiency** — small blocks keep the panel factorization
  BLAS-2 bound; oversized blocks serialize the panel and hurt load balance;
* **grid-aspect imbalance** — the process grid should roughly match the
  matrix aspect ratio ``m/n``;
* **wasted processes** — only ``p_r · p_c ≤ p`` processes do work;
* **thread efficiency** — per-process BLAS threads scale sublinearly;
* seeded lognormal **run-to-run noise**, with best-of-``repeats`` selection
  as in the paper's measurement protocol.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping

from ...core.params import Integer
from ...core.perfmodel import LinearPerformanceModel
from ...core.space import Space
from ..base import Application, noise_rng
from . import costs
from .blockcyclic import factorization_imbalance

__all__ = ["PDGEQRF"]


class PDGEQRF(Application):
    """ScaLAPACK dense QR runtime simulator.

    Parameters
    ----------
    machine:
        Machine model (the paper uses 16–64 Cori Haswell nodes).
    mn_max:
        Upper bound of the ``m``/``n`` task ranges (paper: 20000–40000).
    noise:
        σ of the lognormal run-to-run noise (3 % default).
    """

    name = "pdgeqrf"
    n_objectives = 1
    objective_names = ("runtime",)

    def __init__(self, mn_max: int = 40000, noise: float = 0.03, **kw):
        kw.setdefault("repeats", 3)
        super().__init__(**kw)
        self.mn_max = int(mn_max)
        self.noise = float(noise)
        self.p_max = self.machine.total_cores

    # -- spaces -----------------------------------------------------------
    def task_space(self) -> Space:
        return Space(
            [
                Integer("m", 128, self.mn_max),
                Integer("n", 128, self.mn_max),
            ]
        )

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
        """ScaLAPACK-ish defaults: 64-block, all processes, near-square grid."""
        p = self.p_max
        return {"b": 64, "p": p, "p_r": max(1, int(math.sqrt(p)))}

    # -- simulator ---------------------------------------------------------
    def _efficiency(self, b: int, nthreads: int) -> float:
        """BLAS-3 efficiency as a function of block size and threads."""
        b = float(b)
        block_eff = (b / (b + 24.0)) / (1.0 + (b / 384.0) ** 1.5)
        thread_eff = 1.0 / (1.0 + 0.03 * (nthreads - 1))
        return block_eff * thread_eff

    def _imbalance(self, m: int, n: int, b: int, p_r: int, p_c: int) -> float:
        """Load imbalance computed from the actual block-cyclic layout."""
        return factorization_imbalance(m, n, b, p_r, p_c)

    def run(self, task: Mapping[str, Any], config: Mapping[str, Any], repeat: int) -> float:
        m, n = int(task["m"]), int(task["n"])
        if m < n:
            m, n = n, m  # QR needs m >= n; ScaLAPACK factors the tall side
        b, p, p_r = int(config["b"]), int(config["p"]), int(config["p_r"])
        p_c = costs.grid_cols(p, p_r)
        p_used = p_r * p_c
        nthreads = max(1, min(self.p_max // p, self.machine.cores_per_node))

        flops = costs.qr_flops(m, n, p_used, p_r, b)
        msgs = costs.qr_messages(n, p_used, p_r, b)
        words = costs.qr_volume(m, n, p_used, p_r, b)

        core_rate = (
            self.machine.flops_per_core
            * self.machine.blas_efficiency
            * nthreads
            * self._efficiency(b, nthreads)
        )
        # panel factorizations serialize part of every step; the resulting
        # pipeline bubbles grow with the process count (calibrated so the
        # tuned 2048-core run lands near the paper's 3.6 TFLOPS)
        sync_overhead = 1.0 + 0.25 * math.log2(max(p_used, 2))
        t_comp = flops / core_rate * self._imbalance(m, n, b, p_r, p_c) * sync_overhead
        t_comm = msgs * self.machine.latency + words * 8.0 * self.machine.inv_bandwidth
        base = t_comp + t_comm + 1e-4  # launch overhead floor

        rng = noise_rng(self.seed + repeat, task, config)
        return float(base * math.exp(rng.normal(0.0, self.noise)))

    # -- coarse model (Sec. 3.3 / Fig. 4 right) ------------------------------
    def models(self) -> List[LinearPerformanceModel]:
        """Eq. (7) with fittable machine coefficients t_flop/t_msg/t_vol."""

        def c_flop(task, config):
            m, n = sorted((int(task["m"]), int(task["n"])), reverse=True)
            p_c = costs.grid_cols(int(config["p"]), int(config["p_r"]))
            return costs.qr_flops(m, n, int(config["p_r"]) * p_c, int(config["p_r"]), int(config["b"]))

        def c_msg(task, config):
            _, n = sorted((int(task["m"]), int(task["n"])), reverse=True)
            p_c = costs.grid_cols(int(config["p"]), int(config["p_r"]))
            return costs.qr_messages(n, int(config["p_r"]) * p_c, int(config["p_r"]), int(config["b"]))

        def c_vol(task, config):
            m, n = sorted((int(task["m"]), int(task["n"])), reverse=True)
            p_c = costs.grid_cols(int(config["p"]), int(config["p_r"]))
            return costs.qr_volume(m, n, int(config["p_r"]) * p_c, int(config["p_r"]), int(config["b"]))

        rate = self.machine.flops_per_core * self.machine.blas_efficiency
        return [
            LinearPerformanceModel(
                [c_flop, c_msg, c_vol],
                initial_coefficients=[1.0 / rate, self.machine.latency, 8.0 * self.machine.inv_bandwidth],
            )
        ]

    def flop_count(self, task: Mapping[str, Any]) -> float:
        """Total QR flops ``2n²(m − n/3)`` of a task (Fig. 5 sorts tasks by this)."""
        m, n = sorted((int(task["m"]), int(task["n"])), reverse=True)
        return 2.0 * n * n * (m - n / 3.0)

#!/usr/bin/env python
"""Executing Sec. 4.3's parallel covariance factorization, end to end.

Builds a real LCM covariance over δ = 6 analytical tasks and factorizes it
with the 1-D block-cyclic distributed Cholesky running on simulated MPI
ranks — the "factorization of the covariance matrix … parallelized using
ScaLAPACK" of the paper, reproduced as executable code whose virtual clocks
yield the parallel times.  A traced run renders the rank timelines.

Run:  python examples/distributed_cholesky.py
"""

import numpy as np

from repro.apps.analytical import analytical_function
from repro.core import LCM
from repro.core.kernels import pairwise_sq_diffs
from repro.runtime import cori_haswell
from repro.runtime.distributed_linalg import cholesky_spmd, distributed_cholesky
from repro.runtime.mpi import run_spmd
from repro.runtime.trace import Tracer, traced


def build_covariance(delta=6, eps=96, seed=0):
    rng = np.random.default_rng(seed)
    X, y, tid = [], [], []
    for i in range(delta):
        xs = rng.random(eps)
        X.append(xs[:, None])
        y.append(analytical_function(0.5 * i, xs))
        tid.extend([i] * eps)
    X, y, tid = np.vstack(X), np.concatenate(y), np.array(tid)
    lcm = LCM(delta, 1, n_latent=2, seed=seed, n_start=1)
    theta = lcm._initial_theta(y, restart=0)
    Sigma = lcm._covariance(theta, pairwise_sq_diffs(X), tid)
    Sigma[np.diag_indices(Sigma.shape[0])] += 1e-4
    return Sigma


def main():
    Sigma = build_covariance()
    n = Sigma.shape[0]
    print(f"LCM covariance: {n} x {n} (N = εδ samples)\n")

    times = {}
    for p in (1, 2, 4):
        L, t = distributed_cholesky(Sigma, p, block=64, machine=cori_haswell(1))
        times[p] = t
        resid = np.abs(L @ L.T - Sigma).max()
        print(f"p={p}: simulated {t*1e3:8.3f} ms   speedup {times[1]/t:4.2f}x   "
              f"max residual {resid:.2e}")

    print("\nper-rank timeline at p=4 ('#' compute, '~' communication):")
    tracer = Tracer()

    def traced_job(comm):
        cholesky_spmd(traced(comm, tracer), Sigma, block=64)

    run_spmd(4, traced_job, machine=cori_haswell(1))
    print(tracer.gantt(width=56))
    summary = tracer.rank_summary()
    for r, s in sorted(summary.items()):
        print(f"rank {r}: compute {s['compute']*1e3:.3f} ms, comm {s['comm']*1e3:.3f} ms")


if __name__ == "__main__":
    main()

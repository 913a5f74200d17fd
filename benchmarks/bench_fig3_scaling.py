"""Fig. 3 — modeling and search time, 1 vs 32 MPI processes.

The paper fits one LCM over δ = 20 tasks of the analytical function and
plots modeling/search phase time against the total sample count ε_tot,
observing O(ε³δ³) / O(ε²δ²) serial scaling and 32×/11× speedups at 32 MPI.

Here (single-core box) the experiment is reproduced in two halves:

1. **real measurement** — the serial LCM fit (the fastest of three
   identical fits) and PSO search are timed at growing sample counts
   (δ = 6, downscaled) and the empirical scaling exponents are checked
   against the paper's asymptotics;
2. **machine-model projection** — the Sec. 4.3 parallelization (restart
   distribution + ScaLAPACK covariance factorization; per-task search
   distribution) is priced by :mod:`repro.runtime.costmodel` at 1 and 32
   ranks on the Cori model, reproducing the speedup curves.
"""

import time

import numpy as np

from harness import fmt, print_table, save_results
from repro.apps.analytical import analytical_function
from repro.core import LCM, EIAcquisition, ParticleSwarm
from repro.runtime import cori_haswell
from repro.runtime import costmodel as cm

DELTA = 6
EPS = [8, 16, 32]
N_HYPER = 40


def _dataset(eps_per_task: int, rng):
    X, y, tidx = [], [], []
    for i in range(DELTA):
        t = i * 0.5
        xs = rng.random(eps_per_task)
        X.append(xs[:, None])
        y.append(analytical_function(t, xs))
        tidx.extend([i] * eps_per_task)
    return np.vstack(X), np.concatenate(y), np.array(tidx)


def test_fig3_serial_scaling_and_projected_speedup(benchmark):
    rng = np.random.default_rng(0)
    mach = cori_haswell(1)
    rows, record = [], {"measured": [], "projected": []}

    measured = []
    for eps in EPS:
        X, y, tidx = _dataset(eps, rng)
        N = X.shape[0]
        # the fastest of three identical fits, so a one-time stall (first
        # call into a library, a page fault storm) cannot land in one size
        t_model = float("inf")
        for _ in range(3):
            lcm = LCM(DELTA, 1, n_latent=2, seed=0, n_start=1, maxiter=40)
            t0 = time.perf_counter()
            lcm.fit(X, y, tidx)
            t_model = min(t_model, time.perf_counter() - t0)

        t0 = time.perf_counter()
        for i in range(DELTA):
            acq = EIAcquisition(lambda Xq, i=i: lcm.predict(i, Xq), y_best=float(y[tidx == i].min()))
            ParticleSwarm(1, n_particles=24, iterations=10, seed=i).maximize(acq)
        t_search = time.perf_counter() - t0
        measured.append((N, t_model, t_search))

        p1_m = cm.lbfgs_modeling_time(mach, N, N_HYPER, n_starts=8, p=1)
        p32_m = cm.lbfgs_modeling_time(mach, N, N_HYPER, n_starts=8, p=32)
        p1_s = cm.search_phase_time(mach, DELTA, N, p=1)
        p32_s = cm.search_phase_time(mach, DELTA, N, p=32)
        rows.append(
            [N, fmt(t_model), fmt(t_search), fmt(p1_m / p32_m, 3), fmt(p1_s / p32_s, 3)]
        )
        record["measured"].append({"N": N, "modeling_s": t_model, "search_s": t_search})
        record["projected"].append(
            {"N": N, "modeling_speedup_32": p1_m / p32_m, "search_speedup_32": p1_s / p32_s}
        )

    print_table(
        "Fig. 3: LCM modeling/search scaling (paper: 32x and 11x speedups at 32 MPI)",
        ["N=εδ", "measured model s", "measured search s", "proj. model speedup", "proj. search speedup"],
        rows,
    )
    save_results("fig3_scaling", record)

    # paper shape 1: serial modeling grows superlinearly in N (O(N³) asymptotic)
    (n0, m0, _), (n2, m2, _) = measured[0], measured[-1]
    assert m2 / m0 > (n2 / n0) ** 1.2

    # paper shape 2: at the largest size, 32 ranks speed modeling up a lot
    # (ideal 32x for large covariances) and search speedup is capped at δ
    last = record["projected"][-1]
    assert last["modeling_speedup_32"] > 8.0
    assert last["search_speedup_32"] <= DELTA + 1e-9
    assert last["search_speedup_32"] > 2.0

    # keep one timed kernel for pytest-benchmark's table
    X, y, tidx = _dataset(EPS[0], rng)
    benchmark(lambda: LCM(DELTA, 1, n_latent=2, seed=0, n_start=1, maxiter=40).fit(X, y, tidx))


def test_fig3_distributed_covariance_factorization(benchmark):
    """The level-2 parallelism *executed*: the fitted LCM covariance is
    factorized by the real distributed Cholesky over simulated MPI ranks,
    and the simulated times show the compute-bound speedup followed by the
    small-matrix communication wall — the two regimes of Fig. 3."""
    import numpy as np

    from repro.core.kernels import pairwise_sq_diffs
    from repro.runtime.distributed_linalg import distributed_cholesky

    rng = np.random.default_rng(1)
    mach = cori_haswell(1)
    X, y, tidx = _dataset(128, rng)  # N = 768 — the paper's largest regime
    lcm = LCM(DELTA, 1, n_latent=2, seed=0, n_start=1)
    theta = lcm._initial_theta(y, restart=0)  # covariance only; no fit needed
    Sigma = lcm._covariance(theta, pairwise_sq_diffs(X), tidx)
    Sigma[np.diag_indices(Sigma.shape[0])] += 1e-4

    rows, times = [], {}
    for p in (1, 2, 4):
        L, t = distributed_cholesky(Sigma, p, block=64, machine=mach)
        times[p] = t
        rows.append([p, fmt(t, 4), fmt(times[1] / t, 3)])
    assert np.allclose(L @ L.T, Sigma, atol=1e-6)
    print_table(
        "Fig. 3 companion: executed distributed Cholesky of the LCM covariance "
        f"(N = {Sigma.shape[0]})",
        ["ranks", "simulated s", "speedup"],
        rows,
    )
    save_results(
        "fig3_distributed_cholesky",
        {"N": int(Sigma.shape[0]), "times": {str(k): v for k, v in times.items()}},
    )
    assert times[4] < times[1]  # parallel factorization pays off at this N
    benchmark(lambda: distributed_cholesky(Sigma, 2, block=32, machine=mach))

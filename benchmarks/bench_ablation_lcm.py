"""Ablation — the LCM's design choices.

Two design questions behind Sec. 3.1 that the paper asserts but does not
ablate (our substrate lets us):

1. **Shared LCM vs independent GPs**: with few samples per task, does the
   coregionalized model predict unseen configurations better than δ
   independent single-task GPs?  (This is the mechanism behind Fig. 5's
   "multitask matches single-task at a tenth of the per-task budget".)
2. **Number of latent functions Q**: fit quality (log-likelihood) and fit
   cost as Q grows from 1 to δ.
"""

import time

import numpy as np

from harness import fmt, print_table, save_results
from repro.apps.analytical import analytical_function
from repro.core import LCM, GaussianProcess

DELTA = 5
TRAIN = 6  # samples per task — deliberately scarce
TEST = 64


def _tasks():
    return [0.0 + 0.4 * i for i in range(DELTA)]  # related, slowly varying


def _data(rng):
    Xtr, ytr, tid = [], [], []
    for i, t in enumerate(_tasks()):
        xs = rng.random(TRAIN)
        Xtr.append(xs[:, None])
        ytr.append(analytical_function(t, xs))
        tid.extend([i] * TRAIN)
    return np.vstack(Xtr), np.concatenate(ytr), np.array(tid)


def test_ablation_lcm_vs_independent_gps(benchmark):
    rng = np.random.default_rng(17)
    X, y, tid = _data(rng)
    xq = np.linspace(0, 1, TEST)[:, None]

    lcm = LCM(DELTA, 1, n_latent=2, seed=0, n_start=3).fit(X, y, tid)
    rows, rmse_l, rmse_g, ll_g, ls_g = [], [], [], [], []
    for i, t in enumerate(_tasks()):
        truth = analytical_function(t, xq[:, 0])
        mu_l, _ = lcm.predict(i, xq)
        gp = GaussianProcess(seed=0, n_start=3).fit(X[tid == i], y[tid == i])
        mu_g, _ = gp.predict(xq)
        rl = float(np.sqrt(np.mean((mu_l - truth) ** 2)))
        rg = float(np.sqrt(np.mean((mu_g - truth) ** 2)))
        rmse_l.append(rl)
        rmse_g.append(rg)
        ll_g.append(float(gp.log_likelihood_))
        ls_g.append(float(gp.lengthscales[0]))
        rows.append([fmt(t, 2), fmt(rl, 3), fmt(rg, 3), fmt(rg / rl, 3),
                     fmt(ll_g[-1], 3), fmt(ls_g[-1], 3)])
    print_table(
        "Ablation: LCM vs independent GPs, out-of-sample RMSE (6 samples/task)",
        ["t", "RMSE LCM", "RMSE indep GP", "GP/LCM", "GP log-lik", "GP lengthscale"],
        rows,
    )
    save_results("ablation_lcm_vs_gp", {"rmse_lcm": rmse_l, "rmse_gp": rmse_g,
                                        "loglik_gp": ll_g, "lengthscale_gp": ls_g})

    # knowledge sharing must not hurt on average with related tasks
    assert float(np.mean(rmse_l)) <= 1.1 * float(np.mean(rmse_g))
    benchmark(lambda: LCM(DELTA, 1, n_latent=2, seed=0, n_start=1).fit(X, y, tid))


def test_ablation_latent_count(benchmark):
    rng = np.random.default_rng(19)
    X, y, tid = _data(rng)
    rows, record = [], []
    for q in range(1, DELTA + 1):
        t0 = time.perf_counter()
        lcm = LCM(DELTA, 1, n_latent=q, seed=0, n_start=2).fit(X, y, tid)
        dt = time.perf_counter() - t0
        rows.append([q, fmt(lcm.log_likelihood_, 5), lcm.params.size, fmt(dt, 3)])
        record.append({"Q": q, "loglik": lcm.log_likelihood_, "n_hyper": lcm.params.size,
                       "fit_seconds": dt})
    print_table(
        "Ablation: latent-function count Q (fit quality vs cost)",
        ["Q", "log-likelihood", "#hyperparameters", "fit s"],
        rows,
    )
    save_results("ablation_latent_count", {"sweep": record})

    # more latents = strictly more expressive: best LL must not decrease
    # much going from Q=1 to the best Q (local optima allow small wiggles)
    lls = [r["loglik"] for r in record]
    assert max(lls[1:]) >= lls[0] - 1.0
    benchmark(lambda: None)

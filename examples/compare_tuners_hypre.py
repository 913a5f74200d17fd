#!/usr/bin/env python
"""Tuner comparison on hypre (the Tab. 4 workload, small scale).

Runs GPTune's MLA against the OpenTuner-style ensemble and the
HpBandSter-style TPE tuner on a few 3-D Poisson tasks, with a *real*
from-scratch AMG + GMRES measuring convergence, and reports the paper's two
metrics: WinTask (final performance) and stability (anytime performance).

Run:  python examples/compare_tuners_hypre.py
"""

import numpy as np

from repro import GPTune, Options
from repro.apps.hypre import HypreApp
from repro.core.metrics import mean_stability, win_task
from repro.runtime import cori_haswell
from repro.tuners import HpBandSterTuner, OpenTunerTuner


def main():
    app = HypreApp(machine=cori_haswell(1), grid_range=(8, 32), solve_cap=1000, seed=0)
    prob = app.problem()
    tasks = [
        {"n1": 12, "n2": 20, "n3": 16},
        {"n1": 24, "n2": 10, "n3": 10},
        {"n1": 16, "n2": 16, "n3": 16},
    ]
    eps = 10

    mla = GPTune(prob, Options(seed=31, n_start=2)).tune(tasks, eps)
    gpt_best = mla.best_values()
    gpt_traj = [[y[0] for y in mla.data.Y[i]] for i in range(len(tasks))]

    ot = [OpenTunerTuner().tune(prob, t, eps, seed=41 + i) for i, t in enumerate(tasks)]
    hb = [HpBandSterTuner().tune(prob, t, eps, seed=61 + i) for i, t in enumerate(tasks)]
    ot_best = np.array([r.best(0)[1] for r in ot])
    hb_best = np.array([r.best(0)[1] for r in hb])

    print(f"{'task':>12} {'GPTune':>9} {'OpenTuner':>10} {'HpBandSter':>11}")
    for i, t in enumerate(tasks):
        lbl = f"{t['n1']}x{t['n2']}x{t['n3']}"
        print(f"{lbl:>12} {gpt_best[i]:>9.4f} {ot_best[i]:>10.4f} {hb_best[i]:>11.4f}")

    y_star = np.minimum(np.minimum(gpt_best, ot_best), hb_best)
    print(f"\nWinTask vs OpenTuner:  {100*win_task(gpt_best, ot_best):.0f}%")
    print(f"WinTask vs HpBandSter: {100*win_task(gpt_best, hb_best):.0f}%")
    print(f"mean stability: GPTune {mean_stability(gpt_traj, y_star):.3f}, "
          f"OT {mean_stability([[y[0] for y in r.data.Y[0]] for r in ot], y_star):.3f}, "
          f"HB {mean_stability([[y[0] for y in r.data.Y[0]] for r in hb], y_star):.3f} "
          "(lower is better)")


if __name__ == "__main__":
    main()

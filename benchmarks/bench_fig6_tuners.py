"""Fig. 6 — GPTune vs OpenTuner vs HpBandSter.

Paper setup: PDGEQRF with δ = 10 random tasks (m, n < 20000), ε_tot = 10,
2048 cores — GPTune beats OpenTuner on 7/10 tasks (up to 4.9×) and
HpBandSter on 8/10 (up to 2.9×).  SuperLU_DIST on 7 PARSEC matrices,
ε_tot = 20, 1024 cores — up to 1.6×/1.3× on 6/7 and 7/7 tasks.

The baselines run per task (they have no multitask support); GPTune runs
one MLA over all tasks.  Downscaling: δ = 6 QR tasks and 4 matrices.
"""

import numpy as np

from harness import FAST_OPTS, fmt, print_table, save_results
from repro.apps.scalapack import PDGEQRF
from repro.apps.superlu import SuperLUDIST
from repro.core import GPTune, Options
from repro.core.metrics import win_task
from repro.runtime import cori_haswell
from repro.tuners import HpBandSterTuner, OpenTunerTuner


def _compare(app, tasks, eps, seed):
    prob = app.problem()
    mla = GPTune(prob, Options(seed=seed, **FAST_OPTS)).tune(tasks, eps)
    gpt_best = mla.best_values()
    ot_best = np.array(
        [OpenTunerTuner().tune(prob, t, eps, seed=seed + 100 + i).best(0)[1] for i, t in enumerate(tasks)]
    )
    hb_best = np.array(
        [HpBandSterTuner().tune(prob, t, eps, seed=seed + 200 + i).best(0)[1] for i, t in enumerate(tasks)]
    )
    return gpt_best, ot_best, hb_best


def _report(title, tasks_labels, gpt, ot, hb, name):
    rows = [
        [lab, fmt(g), fmt(o / g, 3), fmt(h / g, 3)]
        for lab, g, o, h in zip(tasks_labels, gpt, ot, hb)
    ]
    print_table(title, ["task", "GPTune best", "OT/GPTune", "HB/GPTune"], rows)
    payload = {
        "gptune": list(map(float, gpt)),
        "opentuner": list(map(float, ot)),
        "hpbandster": list(map(float, hb)),
        "win_vs_ot": win_task(gpt, ot),
        "win_vs_hb": win_task(gpt, hb),
        "max_ratio_ot": float(np.max(ot / gpt)),
        "max_ratio_hb": float(np.max(hb / gpt)),
    }
    save_results(name, payload)
    return payload


def test_fig6_left_pdgeqrf(benchmark):
    app = PDGEQRF(machine=cori_haswell(64), mn_max=20000, seed=0)
    tasks = app.sample_tasks(6, seed=7)
    gpt, ot, hb = _compare(app, tasks, eps=10, seed=11)
    labels = [f"{t['m']}x{t['n']}" for t in tasks]
    p = _report(
        "Fig. 6 left: PDGEQRF ratios vs GPTune (paper: GPTune wins 7-8/10, up to 4.9x)",
        labels, gpt, ot, hb, "fig6_pdgeqrf",
    )
    # paper shape: GPTune at least ties both baselines on most tasks
    tie_ot = np.mean(np.asarray(ot) / np.asarray(gpt) >= 0.95)
    tie_hb = np.mean(np.asarray(hb) / np.asarray(gpt) >= 0.95)
    assert tie_ot >= 0.5
    assert tie_hb >= 0.5
    benchmark(lambda: None)


def test_fig6_right_superlu(benchmark):
    matrices = ["Si2", "SiH4", "SiNa", "Na5"]
    app = SuperLUDIST(
        machine=cori_haswell(32), matrices=matrices, objectives=("time",), scale=0.04, seed=0
    )
    tasks = [{"matrix": m} for m in matrices]
    gpt, ot, hb = _compare(app, tasks, eps=12, seed=13)
    p = _report(
        "Fig. 6 right: SuperLU_DIST ratios vs GPTune (paper: wins 6-7/7, up to 1.6x)",
        matrices, gpt, ot, hb, "fig6_superlu",
    )
    tie = np.mean(np.asarray(ot) / np.asarray(gpt) >= 0.9) + np.mean(
        np.asarray(hb) / np.asarray(gpt) >= 0.9
    )
    assert tie >= 1.0  # GPTune roughly-or-better on at least half across both
    benchmark(lambda: None)

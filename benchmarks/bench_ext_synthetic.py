"""Extension — tuner shoot-out on synthetic functions with known optima.

The paper's comparisons use HPC codes whose true optima are unknown; the
synthetic families (`repro.apps.synthetic`) have closed-form minima, so the
comparison can be phrased as *regret* — how far above the global optimum
each tuner lands at a fixed budget.  All tuners run through the uniform
registry interface of Sec. 6.1.
"""

import numpy as np

from harness import FAST_OPTS, fmt, print_table, save_results
from repro.apps.synthetic import BraninApp, SphereApp
from repro.core import GPTune, Options
from repro.tuners import TUNERS, run_tuner

BUDGET = 20
TUNER_NAMES = ("gptune", "opentuner", "hpbandster", "ytopt", "random")


def _regrets(app, task, optimum, seed):
    prob = app.problem()
    out = {}
    for name in TUNER_NAMES:
        rec = run_tuner(name, prob, task, BUDGET, seed=seed)
        out[name] = rec.best(0)[1] - optimum
    return out


def test_ext_synthetic_regret(benchmark):
    cases = [
        ("branin t=0", BraninApp(), {"t": 0.0}, BraninApp.OPTIMUM),
        ("branin t=2", BraninApp(), {"t": 2.0}, BraninApp.OPTIMUM),
        ("sphere3 t=3", SphereApp(dim=3), {"t": 3}, 0.01),
        ("sphere3 t=8", SphereApp(dim=3), {"t": 8}, 0.01),
    ]
    record = {}
    rows = []
    for label, app, task, opt in cases:
        regrets = _regrets(app, task, opt, seed=11)
        record[label] = regrets
        rows.append([label] + [fmt(regrets[n], 3) for n in TUNER_NAMES])

    print_table(
        f"Extension: regret after {BUDGET} evaluations (lower is better)",
        ["case"] + list(TUNER_NAMES),
        rows,
    )
    save_results("ext_synthetic_regret", record)

    # model-based tuners must beat random on average over the cases
    mean = {n: float(np.mean([record[c][n] for c in record])) for n in TUNER_NAMES}
    assert mean["gptune"] <= mean["random"]
    # every tuner gets within sane distance of the optimum on the bowls
    for n in TUNER_NAMES:
        assert record["sphere3 t=3"][n] < 0.5

    # GPTune's multitask mode exploits the related Branin tasks
    app = BraninApp()
    multi = GPTune(app.problem(), Options(seed=13, **FAST_OPTS)).tune(
        [{"t": 0.0}, {"t": 1.0}, {"t": 2.0}], BUDGET // 2
    )
    multi_regret = float(np.mean(multi.best_values() - BraninApp.OPTIMUM))
    record["branin multitask (half budget)"] = {"gptune": multi_regret}
    print(f"\nmultitask Branin mean regret at half budget: {multi_regret:.3g}")
    save_results("ext_synthetic_regret", record)
    assert multi_regret < 5.0
    benchmark(lambda: None)

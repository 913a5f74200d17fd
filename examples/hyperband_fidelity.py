#!/usr/bin/env python
"""Multi-fidelity tuning with hyperband on a fusion code.

The paper disabled HpBandSter's multi-armed-bandit mode because it
"requires running applications with varying fidelity/budgets" — but the
fusion codes have exactly such a budget: the number of time steps.  This
example runs the implemented hyperband/BOHB tuner on M3D_C1 with the step
count as the fidelity axis, and compares it against the TPE-only mode (the
paper's comparison configuration) at an equal full-fidelity-equivalent
budget.

Run:  python examples/hyperband_fidelity.py
"""

from repro.apps.fusion import M3DC1
from repro.runtime import cori_haswell
from repro.tuners import HpBandSterTuner
from repro.tuners.hpbandster import HyperbandTuner


def main():
    app = M3DC1(machine=cori_haswell(1), plane_size=300, seed=0)
    prob = app.problem()
    task = {"t": 9}  # the expensive production-like task
    budget = 15  # full-fidelity-equivalent evaluation units

    def with_fidelity(t, b):
        """Reduced-fidelity variant: fewer time steps (paper's Sec. 6.5 axis)."""
        return {"t": max(1, int(round(t["t"] * b)))}

    hb = HyperbandTuner(with_fidelity, eta=3.0, min_budget=1 / 9, model=True)
    rec_hb = hb.tune(prob, task, n_samples=budget, seed=1)

    tpe = HpBandSterTuner()
    rec_tpe = tpe.tune(prob, task, n_samples=budget, seed=1)

    default = app.objective(task, app.default_config(task))
    print(f"task t={task['t']} (9 time steps), budget = {budget} full-fidelity units\n")
    print(f"hyperband+BOHB best:   {rec_hb.best(0)[1]*1e3:8.3f} ms "
          f"({rec_hb.data.n_samples(0)} full-fidelity evals recorded, many more cheap ones)")
    print(f"TPE-only best:         {rec_tpe.best(0)[1]*1e3:8.3f} ms "
          f"({rec_tpe.data.n_samples(0)} full-fidelity evals)")
    print(f"default configuration: {default*1e3:8.3f} ms")

    cfg = rec_hb.best(0)[0]
    print(f"\nhyperband's winning configuration: COLPERM={cfg['COLPERM']}, "
          f"ROWPERM={cfg['ROWPERM']}, NSUP={cfg['NSUP']}, p_r={cfg['p_r']}")


if __name__ == "__main__":
    main()

"""Pinned record digests: one fixed-seed campaign per campaign shape.

Each case runs one small :meth:`GPTune.tune` campaign and hashes
``data.to_records()`` (every task, configuration and objective value, in
evaluation order).  A change to the campaign driver that claims to keep
behaviour must keep every digest: the hash moves with the first proposal,
seed-tree draw or recording order that differs.

The shapes: lockstep (serial; ``batch_evals=2`` on the thread backend;
γ > 1 with a ``pareto_batch`` that does not divide the budget; performance
models; a partial history preload; a transfer-learning campaign with a
frozen source task; a fit that degrades all the way to random search) and
streaming on :class:`~repro.runtime.async_engine.SimScheduler` (γ = 1 and
γ > 1 under the default ``"lp"`` pending penalty, both again with ``"lp"``
named explicitly, with performance models, ``pending_penalty="none"``, the
``gp`` backend, and fits that degrade all the way to random search).

The digests depend on bitwise floating-point results, so they hold for one
numpy/scipy/BLAS build (recorded with numpy 2.4, scipy 1.17, OpenBLAS
0.3.31) and one OpenBLAS thread count.  The contract is one thread:
``tests/conftest.py`` sets ``OPENBLAS_NUM_THREADS=1`` before numpy is
first imported (unless the variable is already set), as the end-to-end
benchmark's children do, and ``tests/test_blas_threads.py`` fails when
that pin is not in effect.  The pins also hold at two threads, which CI
checks in a separate step with ``OPENBLAS_NUM_THREADS=2``.  On another
build, print the digests of the parent commit with
``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_campaign_digests.py``
and compare those.
"""

import hashlib
import json
import sys

import numpy as np
import pytest

from repro.core import GPTune, Integer, Options, Real, Space, TuningData, TuningProblem
from repro.core.tla import TransferLearner
from repro.runtime.async_engine import SimScheduler
from repro.runtime.simclock import SimClock

TASKS = [{"t": 1}, {"t": 4}]
BUDGET = 8


def _objective(t, c):
    x = float(c["x"])
    return (x - 0.35) ** 2 + 0.05 * np.sin(8.0 * x) + 0.01 * float(t["t"])


def _mo_objective(t, c):
    x = float(c["x"])
    return [_objective(t, c), (x - 0.8) ** 2 + 0.02 * float(t["t"])]


def _problem(objective=_objective, **kw):
    return TuningProblem(
        Space([Integer("t", 0, 10)]), Space([Real("x", 0.0, 1.0)]), objective, **kw
    )


def _linear_model():
    from repro.core.perfmodel import LinearPerformanceModel

    return LinearPerformanceModel(
        [lambda t, c: float(c["x"]), lambda t, c: 0.1 * float(t["t"]) + 0.1]
    )


def _options(**kw):
    base = dict(seed=11, n_start=2, pso_iters=6, ei_candidates=10, lbfgs_maxiter=40,
                nsga_pop=12, nsga_gens=5)
    base.update(kw)
    return Options(**base)


def _duration(task, cfg):
    return 1.0 + 3.0 * float(cfg["x"]) + 2.0 * float(task)


def _stream(problem, **kw):
    sched = SimScheduler(_duration, clock=SimClock())
    opts = _options(async_eval=True, max_inflight=3, **kw)
    return GPTune(problem, opts, scheduler=sched).tune(TASKS, BUDGET)


def _lockstep_models():
    from repro.apps.scalapack import PDGEQRF
    from repro.runtime.machine import cori_haswell

    app = PDGEQRF(machine=cori_haswell(1), mn_max=8000, seed=3)
    return GPTune(app.problem(with_models=True), _options()).tune(
        app.sample_tasks(2, 5), BUDGET
    )


def _lockstep_preload():
    # three archived evaluations of task 0 (budget 8, design size 4): the
    # design tops task 0 up by one point and task 1 by four
    preload = [
        {"task": TASKS[0], "x": {"x": x}, "y": [_objective(TASKS[0], {"x": x})]}
        for x in (0.1, 0.5, 0.9)
    ]
    return GPTune(_problem(), _options()).tune(TASKS, BUDGET, preload=preload)


def _tla_frozen():
    problem = _problem()
    source = TuningData(problem.task_space, problem.tuning_space, [{"t": 2}])
    for x in (0.05, 0.3, 0.45, 0.7, 0.95):
        source.add(0, {"x": x}, _objective({"t": 2}, {"x": x}))
    return TransferLearner(problem, source).tune({"t": 6}, 6, options=_options())


def _random_search(run=lambda: GPTune(_problem(), _options()).tune(TASKS, BUDGET)):
    import scipy.linalg as sla

    def boom(self, *a, **k):
        raise sla.LinAlgError("cholesky breakdown")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.core.lcm.LCM.fit", boom)
        mp.setattr("repro.core.gp.GaussianProcess.fit", boom)
        res = run()
    assert res.models and all(m is None for m in res.models)
    return res


CASES = {
    "lockstep-serial": lambda: GPTune(_problem(), _options()).tune(TASKS, BUDGET),
    "lockstep-batch-thread": lambda: GPTune(
        _problem(), _options(batch_evals=2, backend="thread", n_workers=2)
    ).tune(TASKS, BUDGET),
    "lockstep-mo-overshoot": lambda: GPTune(
        _problem(_mo_objective, n_objectives=2), _options(pareto_batch=3)
    ).tune(TASKS, BUDGET),
    "lockstep-models": _lockstep_models,
    "lockstep-preload": _lockstep_preload,
    "tla-frozen": _tla_frozen,
    "random-search": _random_search,
    "stream-gamma1": lambda: _stream(_problem()),
    "stream-gamma2": lambda: _stream(_problem(_mo_objective, n_objectives=2)),
    "stream-models": lambda: _stream(_problem(models=[_linear_model()])),
    "stream-lp": lambda: _stream(_problem(), pending_penalty="lp"),
    "stream-lp-gamma2": lambda: _stream(
        _problem(_mo_objective, n_objectives=2), pending_penalty="lp"
    ),
    "stream-none": lambda: _stream(_problem(), pending_penalty="none"),
    "stream-gp": lambda: _stream(_problem(), model_backend="gp"),
    "stream-gp-gamma2": lambda: _stream(
        _problem(_mo_objective, n_objectives=2), model_backend="gp"
    ),
    "stream-random-search": lambda: _random_search(lambda: _stream(_problem())),
    "stream-random-search-gamma2": lambda: _random_search(
        lambda: _stream(_problem(_mo_objective, n_objectives=2))
    ),
}

#: first 16 hex digits of the sha256 of each case's records
DIGESTS = {
    "lockstep-batch-thread": "45736c9bd5faf561",
    "lockstep-mo-overshoot": "2ca3eaa402dbcb46",
    "lockstep-models": "854ecbcfa672cea8",
    "lockstep-preload": "c0c562f682c6da81",
    "lockstep-serial": "0c7fc2d4577187fa",
    "random-search": "42eb6bb6d3fd4a8a",
    "stream-gamma1": "005c87f6dec398e5",
    "stream-gamma2": "2974a7ddf340d7a0",
    "stream-gp": "9c221f9d2daeeffd",
    "stream-gp-gamma2": "6123bfc86fc1afb1",
    "stream-lp": "005c87f6dec398e5",
    "stream-lp-gamma2": "2974a7ddf340d7a0",
    "stream-models": "4f86d5978dd8b0d8",
    "stream-none": "174c3c4fb77c036d",
    "stream-random-search": "19f911e4fcb5cff4",
    "stream-random-search-gamma2": "aeda5fef5d24e970",
    "tla-frozen": "8a8637ee06d2a908",
}


def records_digest(result) -> str:
    blob = json.dumps(result.data.to_records(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(CASES))
def test_campaign_digest(case):
    assert records_digest(CASES[case]()) == DIGESTS[case]


if __name__ == "__main__":
    for name in sorted(CASES) if len(sys.argv) < 2 else sys.argv[1:]:
        print(f'    "{name}": "{records_digest(CASES[name]())}",')

"""Tests for the archive query API (repro.service.query) and the
cross-campaign transfer path it powers.

The acceptance scenario: campaign A tunes a few tasks of the analytical
function (Eq. 11) and archives every evaluation through the history
service; campaign B — a separate HistoryDB instance, standing in for a
different process or user — pulls A's records for an unseen task and its
transfer-learned result beats cold-start random search at equal budget.
"""

import os

import numpy as np
import pytest

from repro.apps.analytical import AnalyticalApp
from repro.core import GPTune, HistoryDB, Options, Real, Space, TransferLearner
from repro.service import ShardedStore
from repro.service.query import (
    archive_source,
    group_by_task,
    nearest_tasks,
    source_data_from_records,
)
from repro.tuners import RandomSearchTuner


def _rec(t, x, y):
    return {"task": {"t": t}, "x": {"x": x}, "y": [float(y)]}


RECORDS = [
    _rec(1.0, 0.1, 0.5),
    _rec(2.0, 0.2, 0.6),
    _rec(1.0, 0.3, 0.4),
    _rec(3.0, 0.4, 0.7),
]


class TestGroupByTask:
    def test_groups_and_preserves_first_seen_order(self):
        groups = group_by_task(RECORDS)
        assert [t for t, _ in groups] == [{"t": 1.0}, {"t": 2.0}, {"t": 3.0}]
        assert [len(recs) for _, recs in groups] == [2, 1, 1]

    def test_empty(self):
        assert group_by_task([]) == []


class TestNearestTasks:
    def test_space_free_numeric_ranking(self):
        near = nearest_tasks(RECORDS, {"t": 2.2})
        assert [t["t"] for t, _, _ in near] == [2.0, 3.0, 1.0]
        assert near[0][2] < near[1][2] < near[2][2]

    def test_exact_match_sorts_first_with_zero_distance(self):
        near = nearest_tasks(RECORDS, {"t": 3.0})
        assert near[0][0] == {"t": 3.0}
        assert near[0][2] == 0.0

    def test_k_caps_result(self):
        near = nearest_tasks(RECORDS, {"t": 1.1}, k=2)
        assert len(near) == 2
        assert near[0][0] == {"t": 1.0}

    def test_space_aware_uses_normalized_coordinates(self):
        space = Space([Real("t", 0.0, 10.0)])
        near = nearest_tasks(RECORDS, {"t": 2.2}, task_space=space)
        assert [t["t"] for t, _, _ in near] == [2.0, 3.0, 1.0]
        # distance is in normalized units of the declared space
        assert near[0][2] == pytest.approx(0.2 / 10.0)

    def test_non_numeric_dimensions_contribute_mismatch(self):
        records = [
            {"task": {"kind": "a", "n": 1}, "x": {"x": 0.1}, "y": [1.0]},
            {"task": {"kind": "b", "n": 1}, "x": {"x": 0.2}, "y": [2.0]},
        ]
        near = nearest_tasks(records, {"kind": "b", "n": 1})
        assert near[0][0]["kind"] == "b"
        assert near[0][2] == 0.0
        assert near[1][2] > 0.0

    def test_empty_records(self):
        assert nearest_tasks([], {"t": 1.0}) == []


class TestSourceData:
    def _problem(self):
        return AnalyticalApp(seed=0).problem()

    def test_builds_tuning_data_over_distinct_tasks(self):
        data = source_data_from_records(self._problem(), RECORDS)
        assert data.n_tasks == 3
        assert data.n_samples() == 4
        assert data.tasks[0] == {"t": 1.0}

    def test_empty_records_raise(self):
        with pytest.raises(ValueError):
            source_data_from_records(self._problem(), [])

    def test_archive_source_prunes_to_nearest_tasks(self, tmp_path):
        store = ShardedStore(str(tmp_path / "db"))
        store.append("analytical", RECORDS)
        data = archive_source(
            self._problem(), store, new_task={"t": 2.2}, max_tasks=2
        )
        assert data.n_tasks == 2
        assert {t["t"] for t in data.tasks} == {2.0, 3.0}


class TestFromArchive:
    def test_exact_task_match_reuses_records_without_crashing(self, tmp_path):
        problem = AnalyticalApp(seed=0).problem()
        db = HistoryDB(str(tmp_path / "h.json"))
        GPTune(problem, Options(seed=0, n_start=2), history=db).tune(
            [{"t": 2.0}, {"t": 3.0}], 8
        )
        tla = TransferLearner.from_archive(problem, db)
        # the new task IS an archived source task: its records must preload
        # the new row instead of colliding with a frozen duplicate
        res = tla.tune({"t": 2.0}, 4, options=Options(seed=7, n_start=2))
        new = res.data.n_tasks - 1
        assert res.data.tasks[new] == {"t": 2.0}
        # archived evaluations (8 per task) + fresh budget all land on the row
        assert len(res.data.X[new]) >= 4

    def test_missing_problem_raises(self, tmp_path):
        problem = AnalyticalApp(seed=0).problem()
        with pytest.raises(ValueError):
            TransferLearner.from_archive(problem, HistoryDB(str(tmp_path / "h.json")))


class TestCrossCampaignTransfer:
    """Acceptance: archived knowledge beats cold-start random search."""

    SOURCES = [2.8, 2.9, 3.0]
    NEW_TASK = 2.95
    BUDGET_A = 32
    BUDGET_B = 8
    SEEDS = (0, 3, 5)

    def test_campaign_b_beats_cold_start_random_search(self, tmp_path):
        problem = AnalyticalApp(seed=0).problem()
        tla_best, rand_best = [], []
        for seed in self.SEEDS:
            path = str(tmp_path / f"h{seed}.json")
            # campaign A: archives every evaluation through the service store
            a_db = HistoryDB(path)
            GPTune(problem, Options(seed=seed, n_start=2), history=a_db).tune(
                [{"t": t} for t in self.SOURCES], self.BUDGET_A
            )
            # campaign B: a *fresh* HistoryDB over the same store — the
            # records cross the process boundary via the shard files
            b_db = HistoryDB(path)
            tla = TransferLearner.from_archive(
                problem, b_db, new_task={"t": self.NEW_TASK}, max_source_tasks=2
            )
            res = tla.tune(
                {"t": self.NEW_TASK},
                self.BUDGET_B,
                options=Options(seed=seed + 100, n_start=2),
            )
            tla_best.append(res.best(res.data.n_tasks - 1)[1])
            rand = RandomSearchTuner().tune(
                problem, {"t": self.NEW_TASK}, self.BUDGET_B, seed=seed + 100
            )
            rand_best.append(rand.best(0)[1])
        wins = sum(t < r for t, r in zip(tla_best, rand_best))
        assert wins >= 2, (tla_best, rand_best)
        assert np.mean(tla_best) < np.mean(rand_best), (tla_best, rand_best)

    def test_archive_survives_on_disk_between_campaigns(self, tmp_path):
        problem = AnalyticalApp(seed=0).problem()
        path = str(tmp_path / "h.json")
        db = HistoryDB(path)
        GPTune(problem, Options(seed=0, n_start=2), history=db).tune(
            [{"t": 2.8}], 4
        )
        del db
        assert os.path.isdir(path + ".d")
        assert HistoryDB(path).count(problem.name) == 4

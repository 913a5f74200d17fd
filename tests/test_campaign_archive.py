"""What a campaign archives in its history, and what a crash leaves there.

A campaign appends every evaluation it absorbs to its ``history``.  These
tests pin that archive for a barrier campaign (the analytical app, two
tasks) and a streaming campaign (a :class:`SimScheduler` on a virtual
clock), through three backends: a recording stub, a real
:class:`~repro.service.store.ShardedStore`, and an in-process
:class:`~repro.service.server.TuningHistoryServer` read back through a
:class:`~repro.service.client.ServiceClient`.  The digest hashes the
archived record sequence (order and content, without rids), so every
backend of one campaign shape must give the same digest.

Each drained round is archived by one ``append`` call, after all of its
completions are absorbed and before the round's checkpoint.  The crash
tests pin what that order means: an append that fails leaves the previous
round's checkpoint on disk and nothing of its round in the archive, and
resuming from that checkpoint completes the uninterrupted run's records.
A crash after the append is durable makes the resumed run archive that
round again, under the same rids (``"{campaign_id}:{task}:{k}"``), so a
store that deduplicates rids holds each evaluation once.

Print the digests with ``PYTHONPATH=src python tests/test_campaign_archive.py``.
"""

import hashlib
import json
import sys
import threading

import numpy as np
import pytest

from repro.apps.analytical import AnalyticalApp
from repro.core import GPTune, Integer, Options, Real, Space, TuningProblem
from repro.runtime.async_engine import SimScheduler
from repro.runtime.resilience import RunCheckpoint
from repro.runtime.simclock import SimClock

BUDGET = 8
PAYLOAD = ("task", "x", "y")


class ArchiveDown(RuntimeError):
    """Raised by a history that refuses (or loses) an append."""


class RecordingHistory:
    """History stub: starts empty and keeps each ``append`` call's records.

    ``fail_at=k`` makes the k-th append raise :class:`ArchiveDown` — before
    storing its records, or after them with ``fail_after_write=True`` (the
    process dies once the append is durable, before anything else runs).
    """

    def __init__(self, fail_at=None, fail_after_write=False):
        self.calls = []
        self.fail_at = fail_at
        self.fail_after_write = fail_after_write

    def records(self, problem):
        return []

    def append(self, problem, records):
        failing = self.fail_at is not None and len(self.calls) + 1 == self.fail_at
        if failing and not self.fail_after_write:
            raise ArchiveDown(f"append {self.fail_at} refused")
        self.calls.append((problem, json.loads(json.dumps(list(records)))))
        if failing:
            raise ArchiveDown(f"died after append {self.fail_at}")

    @property
    def archived(self):
        return [rec for _, recs in self.calls for rec in recs]


def _objective(t, c):
    x = float(c["x"])
    return (x - 0.35) ** 2 + 0.05 * np.sin(8.0 * x) + 0.01 * float(t["t"])


def _options(**kw):
    base = dict(seed=5, n_start=2, pso_iters=6, ei_candidates=10, lbfgs_maxiter=40)
    base.update(kw)
    return Options(**base)


def _barrier(history, **kw):
    problem = AnalyticalApp().problem()
    tuner = GPTune(problem, _options(**kw), history=history)
    return tuner, [{"t": 1.0}, {"t": 4.5}]


def _stream(history, **kw):
    problem = TuningProblem(
        Space([Integer("t", 0, 10)]), Space([Real("x", 0.0, 1.0)]), _objective
    )
    sched = SimScheduler(
        lambda task, cfg: 1.0 + float(cfg["x"] > 0.5) + 2.0 * float(task), clock=SimClock()
    )
    opts = _options(async_eval=True, max_inflight=3, **kw)
    return GPTune(problem, opts, history=history, scheduler=sched), [{"t": 1}, {"t": 4}]


SHAPES = {"barrier": _barrier, "stream": _stream}

#: first 16 hex digits of the sha256 of each shape's archived records
DIGESTS = {
    "barrier": "1bfb1e2fcfea0e06",
    "stream": "8339e0a2617b84d6",
}


def _payload(records):
    return [{k: rec[k] for k in PAYLOAD} for rec in records]


def archive_digest(records) -> str:
    blob = json.dumps(_payload(records), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _run(shape, history, **kw):
    tuner, tasks = SHAPES[shape](history, **kw)
    return tuner, tuner.tune(tasks, BUDGET)


def _canon(records):
    return sorted(json.dumps({k: r[k] for k in PAYLOAD}, sort_keys=True) for r in records)


@pytest.fixture
def service(tmp_path):
    from repro.service import ServiceClient
    from repro.service.server import make_server

    server = make_server(str(tmp_path / "served"), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield ServiceClient(f"http://{host}:{port}")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


@pytest.mark.parametrize("shape", sorted(SHAPES))
class TestArchivePins:
    def test_stub(self, shape):
        stub = RecordingHistory()
        tuner, res = _run(shape, stub)
        assert archive_digest(stub.archived) == DIGESTS[shape]
        # every evaluation is archived exactly once
        assert _canon(stub.archived) == _canon(res.data.to_records())
        # one append per drained round that completed anything
        drains = [e for e in tuner.events.of_kind("async-drain") if e.fields["n"] > 0]
        assert len(stub.calls) == len(drains)
        assert [len(recs) for _, recs in stub.calls] == [e.fields["n"] for e in drains]

    def test_sharded_store(self, shape, tmp_path):
        from repro.service import ShardedStore

        store = ShardedStore(str(tmp_path / "db"))
        tuner, _ = _run(shape, store)
        assert archive_digest(store.records(tuner.problem.name)) == DIGESTS[shape]

    def test_service(self, shape, service):
        tuner, _ = _run(shape, service)
        assert archive_digest(service.records(tuner.problem.name)) == DIGESTS[shape]


@pytest.mark.parametrize("shape", sorted(SHAPES))
class TestCrashBetweenAppendAndCheckpoint:
    FAIL_AT = 4

    def _crash(self, shape, tmp_path, **stub_kw):
        ck = str(tmp_path / "ck.json")
        stub = RecordingHistory(fail_at=self.FAIL_AT, **stub_kw)
        with pytest.raises(ArchiveDown):
            _run(shape, stub, checkpoint_path=ck)
        return stub, RunCheckpoint.load(ck)

    def _resume(self, shape, ck):
        stub = RecordingHistory()
        tuner, _ = SHAPES[shape](stub)
        return stub, tuner.resume(ck)

    def test_failed_append_keeps_previous_checkpoint(self, shape, tmp_path):
        ref_stub = RecordingHistory()
        _, ref = _run(shape, ref_stub)
        stub, ck = self._crash(shape, tmp_path)
        # the checkpoint on disk is the last round the archive holds in full
        assert len(stub.calls) == self.FAIL_AT - 1
        restored = [
            {"task": t, "x": x, "y": y}
            for t, xs, ys in zip(ck.tasks, ck.X, ck.Y)
            for x, y in zip(xs, ys)
        ]
        assert _canon(restored) == _canon(stub.archived)
        # resuming with a working history completes the uninterrupted run
        again, res = self._resume(shape, ck)
        assert res.data.to_records() == ref.data.to_records()
        assert _payload(stub.archived + again.archived) == _payload(ref_stub.archived)
        # the resumed run archives under the crashed campaign's id
        rids = [rec["rid"] for rec in stub.archived + again.archived]
        assert len(set(rids)) == len(rids)
        assert {rid.split(":")[0] for rid in rids} == {ck.campaign_id}

    def test_crash_after_durable_append_archives_each_evaluation_once(
        self, shape, tmp_path
    ):
        from repro.service import ShardedStore

        fail_at = self.FAIL_AT

        class DyingStore(ShardedStore):
            """Dies once its ``fail_at``-th append is durable."""

            calls = 0

            def append(self, problem, records):
                written = super().append(problem, records)
                self.calls += 1
                if self.calls == fail_at:
                    raise ArchiveDown(f"died after append {fail_at}")
                return written

        _, ref = _run(shape, RecordingHistory())
        root, ck_path = str(tmp_path / "db"), str(tmp_path / "ck.json")
        with pytest.raises(ArchiveDown):
            _run(shape, DyingStore(root), checkpoint_path=ck_path)
        ck = RunCheckpoint.load(ck_path)
        store = ShardedStore(root)
        tuner, _ = SHAPES[shape](store)
        name = tuner.problem.name
        # the checkpoint predates the last (durable) round ...
        n_ck = sum(len(xs) for xs in ck.X)
        assert n_ck < len(store.records(name))
        # ... so the resumed run evaluates that round again; its records
        # carry the rids already stored, and the store keeps one copy
        res = tuner.resume(ck)
        assert res.data.to_records() == ref.data.to_records()
        archived = store.records(name)
        assert archive_digest(archived) == DIGESTS[shape]
        assert _canon(archived) == _canon(res.data.to_records())

    def test_checkpoint_without_campaign_id_resumes_under_a_fresh_one(self, shape, tmp_path):
        # a checkpoint written before campaign ids existed: the resumed run
        # cannot know the crashed run's rids, so it archives under new ones
        stub, ck = self._crash(shape, tmp_path, fail_after_write=True)
        crashed = {rec["rid"].split(":")[0] for rec in stub.archived}
        ck.campaign_id = None
        again, _ = self._resume(shape, ck)
        resumed = {rec["rid"].split(":")[0] for rec in again.archived}
        assert len(crashed) == len(resumed) == 1 and crashed != resumed
        # ... so a deduplicating store would keep the replayed round twice
        assert _payload(again.calls[0][1]) == _payload(stub.calls[-1][1])


if __name__ == "__main__":
    for name in sorted(SHAPES) if len(sys.argv) < 2 else sys.argv[1:]:
        stub = RecordingHistory()
        _run(name, stub)
        print(f'    "{name}": "{archive_digest(stub.archived)}",')

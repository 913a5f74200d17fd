"""Unit tests for the leader/follower group-commit write batcher
(repro.service.batch): who commits and on which thread, coalescing behind
an in-flight commit, backpressure, batch atomicity across commit failures,
the crash-between-accept-and-commit durability contract, and the exclusive
section optimistic writers use.

Entries are parked deterministically with :class:`GatedStore`, whose
``append`` blocks on a :class:`threading.Event`: one commit is held in
flight, and every submit that arrives meanwhile queues behind it."""

import sys
import threading
import time

import pytest

from repro.observability import MetricsRegistry
from repro.service import BackpressureError, ShardedStore, WriteBatcher

REC = {"task": {"m": 10}, "x": {"b": 4}, "y": [1.5]}


def _rec(i):
    return {"task": {"m": i}, "x": {"b": i}, "y": [float(i)]}


class GatedStore:
    """A store whose ``append`` waits for ``gate`` (open by default).

    Every call is logged as ``(problem, n_records, thread ident)`` before it
    blocks, so a test can see a commit in flight; ``fail`` makes the calls
    that pass the gate raise instead of writing.
    """

    def __init__(self, inner):
        self.inner = inner
        self.gate = threading.Event()
        self.gate.set()
        self.calls = []
        self.fail = None

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def append(self, problem, records):
        self.calls.append((problem, len(records), threading.get_ident()))
        if not self.gate.wait(10):
            raise AssertionError("gate never opened")
        if self.fail is not None:
            raise self.fail
        return self.inner.append(problem, records)


@pytest.fixture
def store(tmp_path):
    return ShardedStore(str(tmp_path / "db"))


@pytest.fixture
def gated(store):
    return GatedStore(store)


def _until(cond, what):
    deadline = time.monotonic() + 5
    while not cond():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.002)


def _bg(fn, *args):
    t = threading.Thread(target=fn, args=args, daemon=True)
    t.start()
    return t


def _hold_commit(batcher, gated, problem="qr", results=None):
    """Close the gate and start one submit whose commit stays in flight."""
    gated.gate.clear()
    n = len(gated.calls)

    def lead():
        try:
            out = batcher.submit(problem, [_rec(999)], timeout=30)
        except OSError as e:  # a test may fail the held commit on purpose
            out = e
        if results is not None:
            results.append(out)

    t = _bg(lead)
    _until(lambda: len(gated.calls) > n, "the held commit")
    return t


def _join(*threads):
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()


class TestGroupCommit:
    def test_submit_commits_and_returns_rids_and_etag(self, store):
        batcher = WriteBatcher(store)
        rids, etag = batcher.submit("qr", [REC, _rec(2)])
        batcher.close()
        assert len(rids) == 2
        assert etag == store.etag("qr")
        assert store.count("qr") == 2

    def test_lone_submit_commits_on_submitting_thread(self, gated):
        metrics = MetricsRegistry()
        batcher = WriteBatcher(gated, metrics=metrics)
        rids, _ = batcher.submit("qr", [REC])
        assert len(rids) == 1
        # no timer, no flusher: the submitter itself wrote and fsynced
        assert gated.calls == [("qr", 1, threading.get_ident())]
        assert metrics.counter_value("repro_service_commits_total") == 1.0
        batcher.close()
        assert metrics.counter_value("repro_service_commits_total") == 1.0

    def test_parked_submits_share_one_next_commit(self, gated):
        metrics = MetricsRegistry()
        batcher = WriteBatcher(gated, metrics=metrics)
        n = 5
        leader = _hold_commit(batcher, gated)
        results = []
        parked = [
            _bg(lambda i=i: results.append(batcher.submit("qr", [_rec(i)], timeout=30)))
            for i in range(n)
        ]
        _until(lambda: batcher.depth() == n, "parked submits")
        assert len(gated.calls) == 1  # they wait; none committed on its own
        gated.gate.set()
        _join(leader, *parked)

        # exactly one more commit, carrying all n parked records
        assert [c[1] for c in gated.calls] == [1, n]
        assert metrics.counter_value("repro_service_commits_total") == 2.0
        assert sorted(len(rids) for rids, _ in results) == [1] * n
        assert gated.inner.count("qr") == n + 1
        batcher.close()

    def test_two_shards_commit_at_the_same_time(self, gated):
        batcher = WriteBatcher(gated)
        gated.gate.clear()
        threads = [
            _bg(batcher.submit, "qa", [_rec(1)], 30),
            _bg(batcher.submit, "qb", [_rec(2)], 30),
        ]
        # both commits are inside append at once, on their own threads
        _until(lambda: len(gated.calls) == 2, "both shards' commits")
        assert {c[0] for c in gated.calls} == {"qa", "qb"}
        assert gated.calls[0][2] != gated.calls[1][2]
        gated.gate.set()
        _join(*threads)
        batcher.close()
        assert gated.inner.count("qa") == gated.inner.count("qb") == 1

    def test_concurrent_submits_share_commits(self, gated):
        metrics = MetricsRegistry()
        batcher = WriteBatcher(gated, metrics=metrics)
        n = 24
        start = threading.Barrier(n)
        real_append = gated.inner.append

        def slow_append(problem, records):  # a disk whose fsync costs 3 ms
            time.sleep(0.003)
            return real_append(problem, records)

        gated.inner.append = slow_append

        def submit(i):
            start.wait()
            batcher.submit("qr", [_rec(i)])

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the lock-free steps harder
        try:
            for t in threads:
                t.start()
            _join(*threads)
        finally:
            sys.setswitchinterval(interval)
        batcher.close()

        assert gated.inner.count("qr") == n
        rids = [r["rid"] for r in gated.inner.records("qr", with_rid=True)]
        assert len(set(rids)) == n  # nothing lost, nothing duplicated
        commits = metrics.counter_value("repro_service_commits_total")
        assert 1 <= commits < n  # coalesced: far fewer fsyncs than submits
        assert metrics.counter_value(
            "repro_service_committed_records_total"
        ) == float(n)
        assert batcher.depth() == 0
        assert metrics.gauge_value("repro_service_write_queue_depth") == 0.0

    def test_rid_dedup_inside_one_batch(self, gated):
        batcher = WriteBatcher(gated)
        fixed = dict(REC, rid="deadbeef")
        results = {}

        def submit(name):
            results[name] = batcher.submit("qr", [fixed], timeout=30)

        leader = _hold_commit(batcher, gated)
        threads = [_bg(submit, n) for n in ("a", "b")]
        _until(lambda: batcher.depth() == 2, "both duplicates parked")
        gated.gate.set()
        _join(leader, *threads)
        batcher.close()

        assert [c[1] for c in gated.calls] == [1, 2]  # one batch held both
        rows = gated.inner.records("qr", with_rid=True)
        assert [r["rid"] for r in rows].count("deadbeef") == 1
        won = [name for name, (rids, _) in results.items() if rids]
        assert len(won) == 1  # exactly one batch-mate claimed the rid

    def test_validation_happens_before_enqueue(self, store):
        batcher = WriteBatcher(store)
        with pytest.raises(ValueError):
            batcher.submit("qr", [{"task": {}, "x": {}}])  # no y
        # the malformed record never reached the queue, the shard is clean
        assert batcher.depth() == 0
        assert store.count("qr") == 0
        batcher.close()


class TestBackpressure:
    def test_queue_bound_raises_with_retry_hint(self, gated):
        batcher = WriteBatcher(gated, max_pending=2)
        leader = _hold_commit(batcher, gated)  # taken, so not counted
        threads = [
            _bg(batcher.submit, "qr", [_rec(i)], 30) for i in (1, 2)
        ]
        _until(lambda: batcher.depth() == 2, "two parked records")

        with pytest.raises(BackpressureError) as err:
            batcher.submit("qr", [_rec(3)])
        assert err.value.retry_after > 0

        gated.gate.set()  # release the held commit and the parked writers
        _join(leader, *threads)
        batcher.close()
        assert gated.inner.count("qr") == 3

    def test_submit_after_close_rejected(self, store):
        batcher = WriteBatcher(store)
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit("qr", [REC])


class TestAtomicityAndCrashes:
    def test_failed_flush_propagates_to_every_waiter(self, gated):
        batcher = WriteBatcher(gated)
        errors = {}

        def submit(name):
            try:
                batcher.submit("qr", [_rec(ord(name))], timeout=10)
            except Exception as e:
                errors[name] = e

        leader = _hold_commit(batcher, gated, results=[])
        threads = [_bg(submit, n) for n in ("a", "b")]
        _until(lambda: batcher.depth() == 2, "both batch-mates parked")
        gated.fail = OSError(28, "No space left on device")
        gated.gate.set()
        _join(leader, *threads)
        assert [c[1] for c in gated.calls] == [1, 2]  # a and b: one batch
        assert set(errors) == {"a", "b"}
        assert all(isinstance(e, OSError) for e in errors.values())

        # the shard file stayed untouched and the batcher still works
        gated.fail = None
        assert gated.inner.count("qr") == 0
        rids, _ = batcher.submit("qr", [REC])
        assert len(rids) == 1
        batcher.close()

    def test_crash_between_accept_and_flush_loses_nothing_acked(self, tmp_path):
        """Queue-accepted-but-uncommitted records are not yet durable — and
        were never acknowledged, so a crash there breaks no promise."""
        root = str(tmp_path / "db")
        gated = GatedStore(ShardedStore(root))
        batcher = WriteBatcher(gated)

        # this one is acknowledged, so it must be durable
        acked = batcher.submit("qr", [_rec(1)], timeout=30)

        # a second record's commit is in flight and a third is accepted into
        # the queue behind it; neither is acknowledged.  "crash" = abandon
        # the batcher without close(), reopen the store
        inflight = _hold_commit(batcher, gated)
        timed_out = []

        def submit_uncommitted():
            try:
                batcher.submit("qr", [_rec(2)], timeout=0.5)
            except TimeoutError:
                timed_out.append(True)

        t2 = _bg(submit_uncommitted)
        _until(lambda: batcher.depth() == 1, "the queued record")
        assert batcher.depth() == 1  # accepted, never acknowledged
        t2.join(timeout=10)
        assert timed_out == [True]

        survivor = ShardedStore(root)
        rows = survivor.records("qr", with_rid=True)
        assert [r["rid"] for r in rows] == list(acked[0])  # acked only

        gated.gate.set()
        _join(inflight)
        # the timed-out submit was withdrawn, never written behind its back
        assert batcher.depth() == 0
        assert ShardedStore(root).count("qr") == 2

    def test_close_flushes_pending(self, gated):
        batcher = WriteBatcher(gated)
        done = []
        leader = _hold_commit(batcher, gated, results=done)
        follower = _bg(lambda: done.append(batcher.submit("qr", [REC], timeout=30)))
        _until(lambda: batcher.depth() == 1, "the parked submit")
        closer = _bg(batcher.close)
        gated.gate.set()
        _join(closer)
        # close() returned only after everything queued was committed
        assert gated.inner.count("qr") == 2
        _join(leader, follower)
        assert len(done) == 2
        assert batcher.depth() == 0


class TestExclusive:
    def test_exclusive_drains_queue_then_blocks_flusher(self, gated):
        batcher = WriteBatcher(gated)
        submitted = []
        leader = _hold_commit(batcher, gated, results=submitted)
        parked = _bg(lambda: submitted.append(batcher.submit("qr", [_rec(1)], timeout=30)))
        _until(lambda: batcher.depth() == 1, "the parked submit")
        gated.gate.set()

        with batcher.exclusive("qr"):
            # entering drained the queue: the parked submit was committed
            assert batcher.depth() == 0
            assert gated.inner.count("qr") == 2
            # a submit arriving now queues and cannot commit
            late = _bg(lambda: submitted.append(batcher.submit("qr", [_rec(3)], timeout=30)))
            _until(lambda: batcher.depth() == 1, "the late submit")
            assert gated.inner.count("qr") == 2
            etag = gated.inner.etag("qr")
            # check-and-append is atomic wrt batched writers in-process
            assert etag == gated.inner.etag("qr")
            gated.inner.append("qr", [_rec(2)])
        _join(leader, parked, late)
        batcher.close()
        assert gated.inner.count("qr") == 4
        assert len(submitted) == 3

"""Unit tests for the sharded tuning-history store (repro.service.store)
and the HistoryDB back-compat shim routed through it."""

import errno
import json
import os
import time

import pytest

from repro.core import HistoryDB
from repro.service import ShardedStore, canonical_payload, content_fingerprint

REC = {"task": {"m": 10}, "x": {"b": 4}, "y": [1.5]}
REC2 = {"task": {"m": 20}, "x": {"b": 8}, "y": [2.5]}


@pytest.fixture
def store(tmp_path):
    return ShardedStore(str(tmp_path / "db"))


class TestShardedStore:
    def test_empty(self, store):
        assert store.problems() == []
        assert store.records("p") == []
        assert store.count("p") == 0
        assert store.etag("p") == "empty"

    def test_append_and_read(self, store):
        rids = store.append("qr", [REC, REC2])
        assert len(rids) == 2
        assert store.count("qr") == 2
        assert store.records("qr") == [
            {"task": {"m": 10}, "x": {"b": 4}, "y": [1.5]},
            {"task": {"m": 20}, "x": {"b": 8}, "y": [2.5]},
        ]

    def test_repeated_payloads_are_kept(self, store):
        # re-measuring the same configuration is legitimate data
        store.append("qr", [REC, REC])
        store.append("qr", [REC])
        assert store.count("qr") == 3

    def test_rid_push_is_idempotent(self, store):
        store.append("qr", [REC, REC2])
        synced = store.records("qr", with_rid=True)
        assert store.append("qr", synced) == []  # nothing new
        assert store.count("qr") == 2

    def test_append_is_append_only(self, store):
        store.append("qr", [REC])
        before = open(store.shard_path("qr"), "rb").read()
        store.append("qr", [REC2])
        after = open(store.shard_path("qr"), "rb").read()
        assert after.startswith(before)  # old bytes never rewritten

    def test_malformed_record_rejected(self, store):
        with pytest.raises(ValueError):
            store.append("qr", [{"task": {}, "x": {}}])  # no y

    def test_torn_trailing_line_skipped_and_survived(self, store):
        store.append("qr", [REC])
        with open(store.shard_path("qr"), "a", encoding="utf-8") as fh:
            fh.write('{"task": {"m"')  # crashed writer mid-line
        assert store.count("qr") == 1
        store.append("qr", [REC2])  # lands on a fresh line
        assert store.count("qr") == 2

    def test_compact_drops_torn_and_duplicate_lines(self, store):
        store.append("qr", [REC, REC2])
        path = store.shard_path("qr")
        with open(path, "a", encoding="utf-8") as fh:
            # a duplicated rid line (e.g. replayed append) and a torn line
            first = open(path, encoding="utf-8").readline()
            fh.write(first)
            fh.write('{"task": {"m"')
        stats = store.compact("qr")
        assert stats == {"kept": 2, "duplicates": 1, "torn": 1}
        assert store.count("qr") == 2

    def test_compact_is_durable(self, store, monkeypatch):
        """The compacted temp file is fsynced before the rename and the
        shard directory after it, so a power cut cannot leave the directory
        naming the pre-compaction file."""
        import stat

        store.append("qr", [REC, REC2])
        path = store.shard_path("qr")
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            st = os.fstat(fd)
            calls.append(("fsync", "dir" if stat.S_ISDIR(st.st_mode) else st.st_size))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", os.path.basename(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        store.compact("qr")
        size = os.path.getsize(path)
        assert calls == [("fsync", size), ("replace", "qr.jsonl"), ("fsync", "dir")]

    def test_etag_changes_on_append_stable_across_compaction(self, store):
        store.append("qr", [REC])
        e1 = store.etag("qr")
        store.append("qr", [REC2])
        e2 = store.etag("qr")
        assert e1 != e2
        store.compact("qr")
        assert store.etag("qr") == e2

    def test_etag_visible_across_instances(self, store):
        store.append("qr", [REC])
        other = ShardedStore(store.root)
        assert other.etag("qr") == store.etag("qr")
        other.append("qr", [REC2])
        assert store.etag("qr") == other.etag("qr")  # refreshes from disk

    def test_clear(self, store):
        store.append("qr", [REC])
        store.clear("qr")
        assert store.count("qr") == 0
        store.clear("never-existed")  # no error

    def test_problem_names_roundtrip_through_slugs(self, store):
        weird = "qr / sub:problem %x"
        store.append(weird, [REC])
        assert store.problems() == [weird]
        assert store.count(weird) == 1

    def test_stats(self, store):
        store.append("a", [REC])
        store.append("b", [REC, REC2])
        s = store.stats()
        assert s["n_records"] == 3
        assert s["problems"]["b"]["count"] == 2
        assert s["problems"]["a"]["etag"] == store.etag("a")

    def test_events_emitted(self, tmp_path):
        events = []
        store = ShardedStore(str(tmp_path / "db"), on_event=lambda k, d: events.append(k))
        store.append("qr", [REC])
        store.compact("qr")
        assert "service-append" in events
        assert "service-compact" in events


class TestFingerprints:
    def test_content_fingerprint_ignores_key_order(self):
        a = {"task": {"m": 10, "n": 3}, "x": {"b": 4}, "y": [1.5]}
        b = {"task": {"n": 3, "m": 10}, "x": {"b": 4}, "y": [1.5]}
        assert content_fingerprint(a) == content_fingerprint(b)

    def test_content_fingerprint_ignores_rid(self):
        assert content_fingerprint({**REC, "rid": "zzz"}) == content_fingerprint(REC)

    def test_payload_differences_change_fingerprint(self):
        assert content_fingerprint(REC) != content_fingerprint(REC2)

    def test_canonical_payload_is_json(self):
        payload = json.loads(canonical_payload(REC))
        assert payload["y"] == [1.5]


class TestHistoryDBShim:
    """The public HistoryDB API rides on the sharded store."""

    def test_append_does_not_rewrite_legacy_json(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"qr": [REC]}))
        db = HistoryDB(str(path))
        legacy_bytes = path.read_bytes()
        db.append("qr", [REC2])
        assert path.read_bytes() == legacy_bytes  # import path, not write path
        assert db.count("qr") == 2

    def test_append_only_writes_new_lines(self, tmp_path):
        db = HistoryDB(str(tmp_path / "h.json"))
        db.append("qr", [REC])
        shard = db.store.shard_path("qr")
        before = os.path.getsize(shard)
        db.append("qr", [REC2])
        after = os.path.getsize(shard)
        assert 0 < after - before < 200  # one record's line, not a full rewrite

    def test_legacy_import_is_idempotent(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"qr": [REC, REC]}))
        assert HistoryDB(str(path)).count("qr") == 2
        assert HistoryDB(str(path)).count("qr") == 2  # reopen: no duplication

    def test_legacy_plus_new_records_coexist(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"qr": [REC]}))
        db = HistoryDB(str(path))
        db.append("qr", [REC2])
        reopened = HistoryDB(str(path))
        assert reopened.count("qr") == 2

    def test_export_json_writes_legacy_view(self, tmp_path):
        db = HistoryDB(str(tmp_path / "h.json"))
        db.append("qr", [REC, REC2])
        out = db.export_json(str(tmp_path / "export.json"))
        dumped = json.loads(open(out, encoding="utf-8").read())
        assert [r["y"] for r in dumped["qr"]] == [[1.5], [2.5]]

    def test_compact(self, tmp_path):
        db = HistoryDB(str(tmp_path / "h.json"))
        db.append("qr", [REC])
        db.compact()
        assert db.count("qr") == 1

    def test_concurrent_instances_share_one_archive(self, tmp_path):
        # the failure mode of the old whole-store rewrite: two open handles
        # each flushing their own snapshot lost each other's appends
        a = HistoryDB(str(tmp_path / "h.json"))
        b = HistoryDB(str(tmp_path / "h.json"))
        a.append("qr", [REC])
        b.append("qr", [REC2])
        a.append("qr", [REC])
        assert a.count("qr") == 3
        assert b.count("qr") == 3


class TestPrepare:
    def test_prepare_assigns_fresh_rids(self, store):
        rows = store.prepare([REC, REC2])
        assert len(rows) == 2
        assert all(r["rid"] for r in rows)
        assert rows[0]["rid"] != rows[1]["rid"]
        assert store.count("qr") == 0  # prepare writes nothing

    def test_prepare_keeps_caller_rids(self, store):
        rows = store.prepare([dict(REC, rid="abc123")])
        assert rows[0]["rid"] == "abc123"

    def test_prepare_rejects_malformed(self, store):
        with pytest.raises(ValueError):
            store.prepare([{"task": {}, "x": {}}])  # no y

    def test_snapshot_pairs_rows_with_their_etag(self, store):
        store.append("qr", [REC, REC2])
        rows, etag = store.snapshot("qr")
        assert len(rows) == 2
        assert etag == store.etag("qr")
        from repro.service.store import _etag_of
        assert etag == _etag_of(r["rid"] for r in rows)


class TestReadCache:
    def test_hot_read_hits_cache(self, tmp_path):
        from repro.service import ShardReadCache
        from repro.observability import MetricsRegistry

        metrics = MetricsRegistry()
        cache = ShardReadCache(metrics=metrics)
        store = ShardedStore(str(tmp_path / "db"), cache=cache)
        store.append("qr", [REC, REC2])
        first = store.records("qr")
        second = store.records("qr")
        assert first == second
        assert metrics.counter_value("repro_service_read_cache_hits_total") >= 1
        assert cache.stats()["entries"] == 1
        assert cache.stats()["bytes"] > 0

    def test_append_invalidates(self, tmp_path):
        from repro.service import ShardReadCache

        cache = ShardReadCache()
        store = ShardedStore(str(tmp_path / "db"), cache=cache)
        store.append("qr", [REC])
        assert len(store.records("qr")) == 1
        store.append("qr", [REC2])
        assert len(store.records("qr")) == 2  # no stale serve

    def test_foreign_write_caught_by_etag_key(self, tmp_path):
        from repro.service import ShardReadCache

        cache = ShardReadCache()
        cached = ShardedStore(str(tmp_path / "db"), cache=cache)
        other = ShardedStore(str(tmp_path / "db"))  # no shared cache
        cached.append("qr", [REC])
        assert len(cached.records("qr")) == 1
        other.append("qr", [REC2])  # invalidates nothing in `cache`
        assert len(cached.records("qr")) == 2  # etag key self-invalidates

    def test_lru_eviction_respects_byte_budget(self, tmp_path):
        from repro.service import ShardReadCache
        from repro.observability import MetricsRegistry

        metrics = MetricsRegistry()
        cache = ShardReadCache(max_bytes=1, metrics=metrics)
        store = ShardedStore(str(tmp_path / "db"), cache=cache)
        store.append("a", [REC])
        store.append("b", [REC2])
        store.records("a")
        store.records("b")  # budget of 1 byte: "a" must go
        assert cache.stats()["entries"] == 1
        assert metrics.counter_value(
            "repro_service_read_cache_evictions_total"
        ) >= 1


class TestStaleLockBreaking:
    def _lock(self, tmp_path, **kw):
        from repro.service import ShardLock

        return ShardLock(str(tmp_path / "s.lock"), use_flock=False, **kw)

    def test_dead_pid_lock_is_broken(self, tmp_path):
        events = []
        lock = self._lock(
            tmp_path, on_event=lambda k, d: events.append((k, d))
        )
        # fabricate a lock left by a crashed holder: dead-but-valid pid
        import subprocess

        proc = subprocess.Popen(["true"])
        proc.wait()
        with open(str(tmp_path / "s.lock") + ".x", "w") as fh:
            fh.write(str(proc.pid))
        with lock:
            pass  # acquired despite the leftover file
        assert any(k == "service-lock-stale" for k, _ in events)
        assert any("dead" in d for _, d in events)

    def test_pidless_lock_broken_after_stale_age(self, tmp_path):
        events = []
        lock = self._lock(
            tmp_path,
            stale_after=0.05,
            on_event=lambda k, d: events.append((k, d)),
        )
        lockfile = str(tmp_path / "s.lock") + ".x"
        with open(lockfile, "w") as fh:
            pass  # holder died before writing its pid
        old = time.time() - 1.0
        os.utime(lockfile, (old, old))
        with lock:
            pass
        assert any(k == "service-lock-stale" for k, _ in events)

    def test_fresh_pidless_lock_is_respected(self, tmp_path):
        lock = self._lock(tmp_path, timeout=0.2, stale_after=30.0)
        with open(str(tmp_path / "s.lock") + ".x", "w") as fh:
            pass  # just created: the holder may not have written its pid yet
        with pytest.raises(TimeoutError):
            lock.acquire()

    def test_live_holder_times_out_waiter(self, tmp_path):
        holder = self._lock(tmp_path)
        holder.acquire()
        waiter = self._lock(tmp_path, timeout=0.2)
        with pytest.raises(TimeoutError):
            waiter.acquire()
        holder.release()
        with waiter:  # released: acquirable again
            pass

    def test_exactly_one_concurrent_breaker_wins(self, tmp_path):
        import subprocess
        import threading

        proc = subprocess.Popen(["true"])
        proc.wait()
        with open(str(tmp_path / "s.lock") + ".x", "w") as fh:
            fh.write(str(proc.pid))
        acquired = []

        def contend():
            lock = self._lock(tmp_path, timeout=5.0)
            lock.acquire()
            acquired.append(lock)
            time.sleep(0.02)
            lock.release()

        threads = [threading.Thread(target=contend) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(acquired) == 4  # all eventually serialized through


class TestWriteFaults:
    """A write that fails must not leave its rids marked as stored: the
    retry with the same rid stores the record exactly once."""

    RID = "rid-under-fault"

    def _fault(self, monkeypatch, name, fake):
        import repro.service.store as store_module

        monkeypatch.setattr(store_module.os, name, fake)

    def _check_retry(self, monkeypatch, store):
        monkeypatch.undo()
        store.append("qr", [dict(REC, rid=self.RID)])
        store.append("qr", [dict(REC2, rid="after-fault")])  # the shard works on
        for s in (store, ShardedStore(store.root)):  # this process, and a reopen
            rids = [r["rid"] for r in s.records("qr", with_rid=True)]
            assert rids.count(self.RID) == 1
            assert rids.count("after-fault") == 1

    def _setup(self, store):
        store.append("qr", [REC])  # a known shard state before the fault

    def test_enospc_on_write(self, monkeypatch, store):
        self._setup(store)
        real_write = os.write

        def enospc(fd, data):
            if self.RID.encode() in data:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(fd, data)

        self._fault(monkeypatch, "write", enospc)
        with pytest.raises(OSError, match="No space"):
            store.append("qr", [dict(REC, rid=self.RID)])
        self._check_retry(monkeypatch, store)

    @pytest.mark.parametrize("pages_lost", [False, True])
    def test_eio_on_fsync(self, monkeypatch, store, pages_lost):
        """After a failed fsync the written bytes may still be readable or
        may be gone (the kernel dropped the dirty pages); either way the
        retry must end with the record on disk once."""
        self._setup(store)
        durable = os.path.getsize(store.shard_path("qr"))

        def eio(fd):
            if pages_lost:
                os.ftruncate(fd, durable)
            raise OSError(errno.EIO, "Input/output error")

        self._fault(monkeypatch, "fsync", eio)
        with pytest.raises(OSError, match="Input/output"):
            store.append("qr", [dict(REC, rid=self.RID)])
        self._check_retry(monkeypatch, store)

    def test_eio_on_fsync_retry_fsyncs_readable_bytes(self, monkeypatch, store):
        """The bytes of a failed fsync can stay readable; they were never
        confirmed durable, so the retry must write and fsync them again
        rather than find the rid on disk and return without an fsync."""
        self._setup(store)
        path = store.shard_path("qr")
        durable = os.path.getsize(path)

        def eio(fd):
            raise OSError(errno.EIO, "Input/output error")

        self._fault(monkeypatch, "fsync", eio)
        with pytest.raises(OSError, match="Input/output"):
            store.append("qr", [dict(REC, rid=self.RID)])
        monkeypatch.undo()
        assert os.path.getsize(path) == durable  # unconfirmed bytes cut off

        real_fsync, synced = os.fsync, []

        def counting(fd):
            synced.append(fd)
            real_fsync(fd)

        self._fault(monkeypatch, "fsync", counting)
        assert store.append("qr", [dict(REC, rid=self.RID)]) == [self.RID]
        assert synced
        self._check_retry(monkeypatch, store)

    def test_short_write(self, monkeypatch, store):
        self._setup(store)
        real_write = os.write

        def short(fd, data):
            if self.RID.encode() in data:
                return real_write(fd, data[: len(data) // 2])
            return real_write(fd, data)

        self._fault(monkeypatch, "write", short)
        with pytest.raises(OSError, match="short write"):
            store.append("qr", [dict(REC, rid=self.RID)])
        self._check_retry(monkeypatch, store)

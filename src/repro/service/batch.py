"""Write batching (group commit) for the tuning-history service.

The seed append path pays one lock acquire + one ``write`` + one ``fsync``
per request — correct, but the fsync dominates and serializes every writer
behind the shard lock.  Under crowd-tuning load (many campaigns posting one
evaluation at a time) almost all of that work is redundant: appends to the
same shard can share a single durable commit.

:class:`WriteBatcher` implements leader/follower group commit, with no
timer and no thread of its own:

* :meth:`submit` normalizes and validates the records (malformed input is
  rejected *before* it can poison a batch) and enqueues them on the shard's
  pending list;
* a submitter that finds no commit in flight for its shard becomes the
  **leader**: it takes everything queued for that shard and commits it on
  its own thread as **one** ``ShardedStore.append`` call — one lock
  round-trip, one contiguous write of complete lines, one fsync;
* submits that arrive while that commit is in flight are **followers**:
  they queue up and wait, and when the commit ends one of them leads the
  next commit for all of them.  A lone writer therefore pays exactly one
  fsync and no waiting, while concurrent writers share fsyncs as fast as
  the disk retires them;
* different shards have different leaders, so their commits (and fsyncs)
  run at the same time on different request threads;
* the queue is **bounded**: when ``max_pending`` records are already
  waiting, :meth:`submit` raises :class:`BackpressureError` immediately
  instead of letting latency grow without bound — the HTTP layer turns
  that into ``429 Too Many Requests`` + ``Retry-After``;
* crash safety is inherited from the store: a batch is written as one blob
  of complete lines, so a torn tail is quarantined exactly like a torn
  single-record append, and compaction drops it.

Batches are atomic from the submitters' point of view: either the commit's
``append`` returns and every waiter gets its written rids plus the
post-commit etag, or it raises and every waiter in that batch sees the
same error while the shard file stays untouched.  Records accepted into
the queue but not yet committed are *not yet durable* — the service acks a
write only after its commit's fsync, so a crash between queue accept and
commit loses nothing that was acknowledged.  A submit that times out while
still queued is withdrawn, so it is never written behind its caller's back.

Optimistic-concurrency appends (``If-Match``) cannot join a group commit —
their etag check must be atomic with their write — so the server routes
them through :meth:`exclusive`, which holds the shard the way a leader
does: it commits the shard's queue, then keeps every other commit to that
shard out while the caller does the check-and-append.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["BackpressureError", "WriteBatcher", "BATCH_SIZE_BUCKETS"]

#: Histogram buckets for records-per-commit (count scale, not seconds).
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0
)


class BackpressureError(RuntimeError):
    """The write queue is full; retry after ``retry_after`` seconds."""

    def __init__(self, message: str, retry_after: float):
        super().__init__(message)
        self.retry_after = float(retry_after)


class _Entry:
    """One submitter's records plus the slot its outcome lands in."""

    __slots__ = ("rows", "done", "rids", "etag", "error")

    def __init__(self, rows: List[Dict[str, Any]]):
        self.rows = rows
        self.done = False
        self.rids: List[str] = []
        self.etag: Optional[str] = None
        self.error: Optional[BaseException] = None

    def finish(self, rids: List[str], etag: Optional[str], error: Optional[BaseException]) -> None:
        self.rids, self.etag, self.error = rids, etag, error
        self.done = True


class _Shard:
    """Pending entries of one shard, and whether a commit holds it."""

    __slots__ = ("entries", "n_records", "busy", "idle")

    def __init__(self, lock: threading.Lock):
        self.entries: List[_Entry] = []
        self.n_records = 0
        # a commit (or an exclusive() section) is in flight on this shard
        self.busy = False
        self.idle = threading.Condition(lock)


class WriteBatcher:
    """Group-commit front end over one :class:`~repro.service.store.ShardedStore`.

    Parameters
    ----------
    store:
        The sharded store commits land in.
    max_pending:
        Bound on queued records (submitted, not yet taken by a commit)
        across all shards; beyond it :meth:`submit` raises
        :class:`BackpressureError`.
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry` receiving
        ``repro_service_write_queue_depth`` (gauge),
        ``repro_service_batch_records`` / ``repro_service_flush_seconds``
        (histograms) and ``repro_service_commits_total`` /
        ``repro_service_committed_records_total`` (counters).
    """

    #: client backoff hint (seconds) carried by :class:`BackpressureError`
    retry_after = 0.05

    def __init__(self, store, max_pending: int = 4096, metrics=None):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.store = store
        self.max_pending = int(max_pending)
        self.metrics = metrics
        self._lock = threading.Lock()
        self._shards: Dict[str, _Shard] = {}
        self._pending = 0  # queued records across all shards
        self._closed = False

    # -- submitter side ------------------------------------------------------
    def submit(
        self,
        problem: str,
        records: Sequence[Mapping[str, Any]],
        timeout: float = 60.0,
    ) -> Tuple[List[str], str]:
        """Queue records for one shard; return once their commit is durable.

        Returns ``(written_rids, etag_after_commit)``.  Raises ``ValueError``
        on malformed records (checked here, so one bad request can never
        fail its batch-mates), :class:`BackpressureError` when the queue is
        full, ``TimeoutError`` when the records were not committed within
        ``timeout`` seconds (still-queued ones are withdrawn), and whatever
        the store raised when the commit itself failed.
        """
        rows = self.store.prepare(records)  # validates + assigns rids
        if not rows:
            return [], self.store.etag(problem)
        entry = _Entry(rows)
        deadline = time.monotonic() + timeout
        with self._lock:
            if self._closed:
                raise RuntimeError("batcher is closed")
            if self._pending + len(rows) > self.max_pending:
                raise BackpressureError(
                    f"write queue full ({self._pending} record(s) pending)",
                    retry_after=self.retry_after,
                )
            shard = self._shard(problem)
            shard.entries.append(entry)
            shard.n_records += len(rows)
            self._pending += len(rows)
            self._gauge()
            # follower: park while a commit is in flight; if no commit has
            # taken this entry by the time the shard is free, lead the next
            while shard.busy and not entry.done:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._withdraw(shard, entry)
                    raise TimeoutError(f"batched append to {problem!r} timed out")
                shard.idle.wait(remaining)
            batch = [] if entry.done else self._take(shard)
        if batch:
            try:
                self._write(problem, batch)
            finally:
                self._release(shard)
        if entry.error is not None:
            raise entry.error
        return entry.rids, entry.etag or "empty"

    def depth(self) -> int:
        """Queued records (not yet taken by a commit) across all shards."""
        with self._lock:
            return self._pending

    # -- coordination with optimistic writers --------------------------------
    @contextmanager
    def exclusive(self, problem: str):
        """Commit one shard's queue, then keep its other commits out.

        While the context is held no submit can commit to this shard (new
        ones queue up and one of them leads once the context exits), so an
        etag check followed by a direct ``store.append`` is atomic with
        respect to every batched writer in this process.
        """
        with self._lock:
            shard = self._shard(problem)
            while shard.busy:
                shard.idle.wait()
            batch = self._take(shard)
        try:
            self._write(problem, batch)
            yield
        finally:
            self._release(shard)

    def close(self) -> None:
        """Refuse new submits and commit everything still queued."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            names = list(self._shards)
        for name in names:
            with self.exclusive(name):
                pass

    # -- commit side ---------------------------------------------------------
    def _shard(self, problem: str) -> _Shard:
        """The shard's state; caller holds the lock."""
        shard = self._shards.get(problem)
        if shard is None:
            shard = self._shards[problem] = _Shard(self._lock)
        return shard

    def _take(self, shard: _Shard) -> List[_Entry]:
        """Detach the shard's queue and mark it busy; caller holds the lock."""
        batch, shard.entries = shard.entries, []
        self._pending -= shard.n_records
        shard.n_records = 0
        shard.busy = True
        self._gauge()
        return batch

    def _withdraw(self, shard: _Shard, entry: _Entry) -> None:
        """Drop a timed-out entry that no commit took; caller holds the lock."""
        if entry in shard.entries:
            shard.entries.remove(entry)
            shard.n_records -= len(entry.rows)
            self._pending -= len(entry.rows)
            self._gauge()

    def _release(self, shard: _Shard) -> None:
        """End a commit: wake the shard's followers so one of them leads."""
        with self._lock:
            shard.busy = False
            shard.idle.notify_all()

    def _write(self, problem: str, batch: List[_Entry]) -> None:
        """Commit one batch: one lock round-trip, one write, one fsync."""
        if not batch:
            return
        rows = [row for e in batch for row in e.rows]
        t0 = time.perf_counter()
        try:
            written = set(self.store.append(problem, rows))
            etag = self.store.etag(problem)
        except BaseException as err:  # propagate to every waiter
            for e in batch:
                e.finish([], None, err)
            if not isinstance(err, Exception):
                raise  # an interrupt also unwinds the committing thread
            return
        elapsed = time.perf_counter() - t0
        if self.metrics is not None:
            self.metrics.inc("repro_service_commits_total")
            self.metrics.inc("repro_service_committed_records_total", float(len(rows)))
            self.metrics.observe(
                "repro_service_batch_records", float(len(rows)), buckets=BATCH_SIZE_BUCKETS
            )
            self.metrics.observe("repro_service_flush_seconds", elapsed)
        for e in batch:
            # a rid can be claimed by at most one batch-mate; first wins
            e.finish([r["rid"] for r in e.rows if r["rid"] in written], etag, None)
            written -= {r["rid"] for r in e.rows}

    def _gauge(self) -> None:
        if self.metrics is not None:
            self.metrics.set_gauge("repro_service_write_queue_depth", float(self._pending))

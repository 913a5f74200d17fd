"""Sharded append-only storage engine for the shared tuning-history service.

The north-star asks for a tuning archive that many concurrent campaigns —
processes on one node or clients behind the HTTP service — can read and
write safely.  :class:`~repro.core.history.HistoryDB`'s original format (one
JSON object rewritten wholesale on every save) cannot do that: two writers
lose each other's records and every append costs O(total records).

:class:`ShardedStore` replaces it with a directory of per-problem **shards**:

* each problem's records live in one append-only JSONL file (``<slug>.jsonl``,
  one JSON record per line) — an append writes only the new lines;
* writers take an **advisory exclusive lock** on a per-shard ``.lock`` file
  (``fcntl.flock``, with an ``O_EXCL`` spin-lock fallback on platforms
  without it), so concurrent appends from any number of processes serialize
  without losing records;
* every record carries a unique ``rid`` (record id).  Records pushed *with*
  an existing rid — e.g. a crowd-tuning client syncing an archive it pulled
  earlier — are deduplicated; records appended without one get a fresh rid,
  so legitimately repeated evaluations of the same configuration are kept;
* a torn trailing line from a crashed writer is skipped on read and dropped
  by :meth:`compact`, which rewrites a shard crash-safely (temp file in the
  same directory + ``os.replace``) while holding the shard lock;
* :meth:`etag` returns a content-defined version token (a hash over the
  shard's rid set) that changes on every append and is *stable across
  compaction* — the HTTP service uses it for conditional GETs and
  optimistic-concurrency PUTs.

:func:`content_fingerprint` hashes a record's payload (task, x, y) only; it
keys the surrogate-model cache (:mod:`repro.service.modelcache`), where two
campaigns holding the same evaluations should hit the same cache entry
regardless of rids.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import threading
import time
import uuid
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

__all__ = [
    "ShardedStore",
    "ShardLock",
    "ShardReadCache",
    "content_fingerprint",
    "canonical_payload",
]

try:  # POSIX advisory locking; Windows lacks fcntl
    import fcntl
except ImportError:  # pragma: no cover - exercised only off-POSIX
    fcntl = None

_SAFE = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")
_PAYLOAD_KEYS = ("task", "x", "y")


def _slug(problem: str) -> str:
    """Reversible filesystem-safe encoding of a problem name."""
    out = []
    for ch in problem:
        if ch in _SAFE and ch != "%":
            out.append(ch)
        else:
            out.append("%" + format(ord(ch), "04x"))
    return "".join(out) or "%0000"


def _unslug(slug: str) -> str:
    out, i = [], 0
    while i < len(slug):
        if slug[i] == "%":
            out.append(chr(int(slug[i + 1 : i + 5], 16)))
            i += 5
        else:
            out.append(slug[i])
            i += 1
    return "".join(out)


def canonical_payload(record: Mapping[str, Any]) -> str:
    """Canonical JSON of a record's (task, x, y) payload.

    Sorted keys and fixed float formatting make the encoding independent of
    dict insertion order, so equal payloads hash equally everywhere.
    """
    payload = {
        "task": {str(k): v for k, v in record["task"].items()},
        "x": {str(k): v for k, v in record["x"].items()},
        "y": [float(v) for v in record["y"]],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_fingerprint(record: Mapping[str, Any]) -> str:
    """Content hash of one record's payload (rid-independent)."""
    return hashlib.sha1(canonical_payload(record).encode("utf-8")).hexdigest()


def _etag_of(rids) -> str:
    """Content-defined shard version: hash of the (deduplicated) rid set."""
    unique = sorted(set(rids))
    if not unique:
        return "empty"
    h = hashlib.sha1()
    for rid in unique:
        h.update(rid.encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()


def _pid_alive(pid: int) -> bool:
    """Whether a process with this pid exists (signal-0 probe)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return True  # unknown — err on the side of respecting the lock
    return True


class ShardLock:
    """Advisory exclusive lock on a shard's sidecar ``.lock`` file.

    The lock file is separate from the data file because :meth:`ShardedStore.compact`
    replaces the data file via ``os.replace`` — a lock held on the replaced
    inode would silently stop excluding later writers.

    Uses ``fcntl.flock`` where available (the kernel drops it when the
    holder dies, so staleness cannot arise).  Elsewhere falls back to an
    ``O_CREAT | O_EXCL`` spin lock whose lock file records the holder's
    pid: a waiter that finds the file **breaks** it when the recorded pid
    is no longer alive, or when the file's mtime is older than
    ``stale_after`` seconds (a holder that died before writing its pid, or
    on another machine).  Breaking goes through an ``os.rename`` so that
    of several concurrent breakers exactly one wins — the others see the
    file vanish and simply retry the ``O_EXCL`` create.  Each break is
    reported through ``on_event("service-lock-stale", ...)``.
    """

    def __init__(
        self,
        path: str,
        timeout: float = 30.0,
        poll: float = 0.005,
        stale_after: float = 30.0,
        on_event: Optional[Callable[[str, str], Any]] = None,
        use_flock: Optional[bool] = None,
    ):
        self.path = path
        self.timeout = float(timeout)
        self.poll = float(poll)
        self.stale_after = float(stale_after)
        self.on_event = on_event
        self._use_flock = (fcntl is not None) if use_flock is None else bool(use_flock)
        if self._use_flock and fcntl is None:  # pragma: no cover - off-POSIX
            raise RuntimeError("flock requested but fcntl is unavailable")
        self._fd: Optional[int] = None

    def acquire(self) -> None:
        """Block until the lock is held (non-reentrant)."""
        if self._fd is not None:
            raise RuntimeError("lock is not reentrant")
        if self._use_flock:
            fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            fcntl.flock(fd, fcntl.LOCK_EX)
            self._fd = fd
            return
        lockfile = self.path + ".x"
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fd = os.open(lockfile, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o644)
            except FileExistsError:
                if self._break_stale(lockfile):
                    continue  # broken (or holder released); retry immediately
                if time.monotonic() >= deadline:
                    raise TimeoutError(f"could not lock {self.path}")
                time.sleep(self.poll)
                continue
            os.write(fd, str(os.getpid()).encode("ascii"))
            self._fd = fd
            return

    def _break_stale(self, lockfile: str) -> bool:
        """Remove ``lockfile`` if its holder is provably gone.

        Returns ``True`` when the caller should retry the create at once —
        either we broke the lock or it disappeared on its own.
        """
        try:
            st = os.stat(lockfile)
            with open(lockfile, "r", encoding="ascii", errors="replace") as fh:
                raw = fh.read().strip()
        except (FileNotFoundError, OSError):
            return True  # released (or already broken) while we looked
        try:
            pid = int(raw)
        except ValueError:
            pid = 0  # holder died between create and pid write, or foreign file
        if pid and _pid_alive(pid):
            return False
        if not pid and time.time() - st.st_mtime < self.stale_after:
            return False  # pid not written *yet* — give the holder time
        # exactly one breaker wins the rename; losers retry the O_EXCL create
        grave = f"{lockfile}.stale-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        try:
            os.rename(lockfile, grave)
        except (FileNotFoundError, OSError):
            return True
        try:
            os.unlink(grave)
        except OSError:  # pragma: no cover - grave cleanup is best-effort
            pass
        if self.on_event is not None:
            why = f"pid {pid} dead" if pid else f"no pid for >{self.stale_after:g}s"
            self.on_event("service-lock-stale", f"{self.path}: broke stale lock ({why})")
        return True

    def release(self) -> None:
        """Drop the lock; a no-op when it is not held."""
        fd, self._fd = self._fd, None
        if fd is None:
            return
        if self._use_flock:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)
        else:
            os.close(fd)
            try:
                os.unlink(self.path + ".x")
            except FileNotFoundError:  # pragma: no cover - broken as stale
                pass

    def __enter__(self) -> "ShardLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class _ShardState:
    """Per-shard read cache: byte offset consumed so far and known rids."""

    def __init__(self):
        self.offset = 0
        self.rids: Set[str] = set()
        self.etag: Optional[str] = None  # memo of _etag_of(rids)


class _CacheEntry:
    __slots__ = ("etag", "rows", "fingerprints", "nbytes")

    def __init__(self, etag: str, rows: List[Dict[str, Any]], nbytes: int):
        self.etag = etag
        self.rows = rows
        self.fingerprints: Optional[List[str]] = None  # computed lazily
        self.nbytes = nbytes


class ShardReadCache:
    """Etag-keyed LRU cache of parsed shards, bounded by a byte budget.

    Repeat ``query``/``records`` traffic against a hot shard re-reads and
    re-parses the same JSONL on every request; this cache keeps the parsed
    rows (and, lazily, their content fingerprints) keyed by the shard's
    content-defined etag, so an entry self-invalidates the moment the shard
    changes — an appended record changes the etag and the stale entry is
    simply never hit again.  Eviction is LRU over an approximate byte
    accounting (the shard's on-disk size), so one huge shard cannot pin the
    whole budget while small hot shards thrash.

    Thread-safe: the HTTP server's handler threads share one instance.
    Hits/misses/evictions are counted into ``metrics`` when attached
    (``repro_service_read_cache_{hits,misses,evictions}_total`` plus the
    ``repro_service_read_cache_bytes`` gauge).
    """

    def __init__(self, max_bytes: int = 64 * 1024 * 1024, metrics=None):
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_bytes = int(max_bytes)
        self.metrics = metrics
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _CacheEntry]" = OrderedDict()
        self._bytes = 0

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.inc(f"repro_service_read_cache_{name}_total")

    def _gauge(self) -> None:
        if self.metrics is not None:
            self.metrics.set_gauge("repro_service_read_cache_bytes", float(self._bytes))

    def get(self, problem: str, etag: str) -> Optional[_CacheEntry]:
        """The cached entry for ``problem`` iff it matches ``etag``."""
        with self._lock:
            entry = self._entries.get(problem)
            if entry is None or entry.etag != etag:
                self._count("misses")
                return None
            self._entries.move_to_end(problem)
            self._count("hits")
            return entry

    def put(self, problem: str, entry: _CacheEntry) -> None:
        """Insert/replace one shard's entry, evicting LRU past the budget."""
        with self._lock:
            old = self._entries.pop(problem, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[problem] = entry
            self._bytes += entry.nbytes
            while self._bytes > self.max_bytes and len(self._entries) > 1:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self._count("evictions")
            self._gauge()

    def invalidate(self, problem: str) -> None:
        """Drop one shard's entry (e.g. after a local append)."""
        with self._lock:
            entry = self._entries.pop(problem, None)
            if entry is not None:
                self._bytes -= entry.nbytes
                self._gauge()

    def stats(self) -> Dict[str, int]:
        """Current occupancy: ``{"entries", "bytes"}``."""
        with self._lock:
            return {"entries": len(self._entries), "bytes": self._bytes}


class ShardedStore:
    """Directory of per-problem append-only JSONL shards.

    Parameters
    ----------
    root:
        Directory holding the shards; created on first use.
    on_event:
        Optional ``callback(kind, detail)`` — e.g.
        :meth:`repro.runtime.trace.CampaignLog.record` — receiving service
        lifecycle events (``"service-append"``, ``"service-compact"``,
        ``"service-torn-line"``, ``"service-lock-stale"``).
    cache:
        Optional :class:`ShardReadCache`; when attached, :meth:`records`,
        :meth:`count` and :meth:`fingerprints` serve hot shards from parsed
        memory keyed by the shard's etag instead of re-reading the JSONL.
        Appends/compactions through *this* store invalidate eagerly; writes
        by other processes are caught by the etag key itself.
    """

    def __init__(
        self,
        root: str,
        on_event: Optional[Callable[[str, str], Any]] = None,
        cache: Optional[ShardReadCache] = None,
    ):
        self.root = str(root)
        self.on_event = on_event
        self.cache = cache
        self._shards: Dict[str, _ShardState] = {}
        os.makedirs(self.root, exist_ok=True)

    # -- paths ---------------------------------------------------------------
    def shard_path(self, problem: str) -> str:
        """Data file of one problem's shard."""
        return os.path.join(self.root, _slug(problem) + ".jsonl")

    def _lock(self, problem: str) -> ShardLock:
        return ShardLock(
            os.path.join(self.root, _slug(problem) + ".lock"), on_event=self._emit
        )

    def _emit(self, kind: str, detail: str) -> None:
        if self.on_event is not None:
            self.on_event(kind, detail)

    # -- queries -------------------------------------------------------------
    def problems(self) -> List[str]:
        """Problem names with a (possibly empty) shard on disk."""
        names = []
        for fname in os.listdir(self.root):
            if fname.endswith(".jsonl") and not fname.endswith(".compacting.jsonl"):
                names.append(_unslug(fname[: -len(".jsonl")]))
        return sorted(names)

    def records(self, problem: str, with_rid: bool = False) -> List[Dict[str, Any]]:
        """All valid records of one problem, in append order.

        ``with_rid=True`` keeps each record's ``rid`` key (needed to sync an
        archive into another store without duplicating it).
        """
        out = []
        for rec in self._cached_rows(problem):
            if not with_rid:
                rec = {k: rec[k] for k in _PAYLOAD_KEYS}
            else:
                rec = dict(rec)  # cached rows are shared; hand out copies
            out.append(rec)
        return out

    def count(self, problem: str) -> int:
        """Number of valid records in one shard."""
        return len(self._cached_rows(problem))

    def snapshot(self, problem: str) -> Tuple[List[Dict[str, Any]], str]:
        """A *consistent* ``(records, etag)`` pair of one shard.

        The etag is computed from the very rows returned (hash of their rid
        set), never read separately — so a reader racing appends or
        :meth:`compact` observes some complete prefix of the shard with
        exactly that prefix's etag, never a torn pairing.  The HTTP layer
        serves conditional GETs from this.  The returned rows are the
        cache's own (do not mutate); :meth:`records` hands out copies.
        """
        if self.cache is not None:
            current = self.etag(problem)
            entry = self.cache.get(problem, current)
            if entry is None:
                entry = self._fill_cache(problem)
            return entry.rows, entry.etag
        rows = self._read_all(problem)
        return rows, _etag_of(row["rid"] for row in rows)

    def fingerprints(self, problem: str) -> List[str]:
        """Content fingerprints of one shard's records, in append order.

        Served from the read cache when attached — the fingerprints are
        computed once per shard version and reused until the etag moves,
        which is what keeps repeat model-cache lookups off the SHA-1 path.
        """
        if self.cache is None:
            return [content_fingerprint(r) for r in self._read_all(problem)]
        current = self.etag(problem)
        entry = self.cache.get(problem, current)
        if entry is None:
            entry = self._fill_cache(problem)
        if entry.fingerprints is None:
            entry.fingerprints = [content_fingerprint(r) for r in entry.rows]
        return list(entry.fingerprints)

    def _cached_rows(self, problem: str) -> List[Dict[str, Any]]:
        """Parsed rows of one shard, through the read cache when attached."""
        return self.snapshot(problem)[0]

    def _fill_cache(self, problem: str) -> _CacheEntry:
        """Parse one shard and cache it keyed by the etag *of those rows*."""
        rows = self._read_all(problem)
        etag = _etag_of(row["rid"] for row in rows)
        try:
            nbytes = os.path.getsize(self.shard_path(problem))
        except OSError:
            nbytes = 0
        entry = _CacheEntry(etag, rows, max(nbytes, 1))
        self.cache.put(problem, entry)
        return entry

    def etag(self, problem: str) -> str:
        """Content-defined shard version: hash of the sorted rid set.

        Changes whenever a record is added or removed; unchanged by
        compaction (which preserves the rid set).  An empty shard's etag is
        the fixed token ``"empty"``.
        """
        self._refresh(problem)
        state = self._shards[problem]
        if state.etag is None:
            state.etag = _etag_of(state.rids)
        return state.etag

    def stats(self) -> Dict[str, Any]:
        """Store-wide summary: per-problem counts, etags, and disk bytes."""
        per: Dict[str, Any] = {}
        total = 0
        for name in self.problems():
            n = self.count(name)
            total += n
            path = self.shard_path(name)
            per[name] = {
                "count": n,
                "etag": self.etag(name),
                "bytes": os.path.getsize(path) if os.path.exists(path) else 0,
            }
        return {"root": self.root, "n_records": total, "problems": per}

    # -- updates -------------------------------------------------------------
    def prepare(self, records: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
        """Validate records and normalize them into append-ready rows.

        Each row gets a ``rid`` (kept when the input carries one, freshly
        assigned otherwise).  Raises ``ValueError``/``TypeError`` on
        malformed input — :class:`~repro.service.batch.WriteBatcher` calls
        this *before* queueing, so one bad request can never fail the batch
        it would have ridden in.
        """
        prepared = []
        for rec in records:
            if not {"task", "x", "y"} <= set(rec):
                raise ValueError(f"malformed record {rec!r}")
            row = {
                "task": dict(rec["task"]),
                "x": dict(rec["x"]),
                "y": [float(v) for v in rec["y"]],
            }
            rid = rec.get("rid")
            row["rid"] = str(rid) if rid else uuid.uuid4().hex
            prepared.append(row)
        return prepared

    def append(self, problem: str, records: Sequence[Mapping[str, Any]]) -> List[str]:
        """Append records to one shard; returns the rids actually written.

        Records lacking a ``rid`` get a fresh unique one (repeated payloads
        are kept — re-measuring a configuration is legitimate).  Records
        carrying a ``rid`` already present in the shard are skipped, making
        archive syncs idempotent.  The write is one ``write`` + ``fsync`` of
        complete lines under the shard's exclusive lock, so concurrent
        appends interleave without tearing each other.
        """
        prepared = self.prepare(records)
        if not prepared:
            return []
        path = self.shard_path(problem)
        written: List[str] = []
        with self._lock(problem):
            self._refresh_locked(problem)
            state = self._shards[problem]
            lines = []
            fresh: Set[str] = set()
            for row in prepared:
                if row["rid"] in state.rids or row["rid"] in fresh:
                    continue
                fresh.add(row["rid"])
                written.append(row["rid"])
                lines.append(json.dumps(row, sort_keys=True, separators=(",", ":")))
            if not written:
                return []
            blob = "\n".join(lines) + "\n"
            # a crashed writer may have left a torn, unterminated last line;
            # starting on a fresh line quarantines it for compaction to drop
            if state.offset > 0 and not self._ends_with_newline(path):
                blob = "\n" + blob
            data = blob.encode("utf-8")
            fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
            try:
                n = os.write(fd, data)
                if n != len(data):
                    raise OSError(
                        errno.EIO, f"short write to {path}: {n} of {len(data)} bytes"
                    )
                os.fsync(fd)
            except OSError:
                # what reached the file is unknown: forget the shard, so the
                # next append re-reads it from disk instead of trusting rids
                # that were never durably written
                self._shards.pop(problem, None)
                raise
            finally:
                os.close(fd)
            # only a durable commit makes its rids "already stored"
            state.rids |= fresh
            state.etag = None
            state.offset = os.path.getsize(path)
        if self.cache is not None:
            self.cache.invalidate(problem)
        self._emit("service-append", f"{problem}: +{len(written)} record(s)")
        return written

    def clear(self, problem: str) -> None:
        """Drop one problem's shard entirely."""
        with self._lock(problem):
            try:
                os.unlink(self.shard_path(problem))
            except FileNotFoundError:
                pass
            self._shards.pop(problem, None)
        if self.cache is not None:
            self.cache.invalidate(problem)

    def compact(self, problem: str) -> Dict[str, int]:
        """Rewrite one shard: drop torn lines and duplicate rids.

        Crash-safe: the compacted content goes to a temp file in the shard
        directory, is fsynced, and replaces the shard atomically — a crash
        at any point leaves either the old or the new complete file.  Runs
        under the shard lock, so concurrent appends wait rather than vanish.
        """
        path = self.shard_path(problem)
        with self._lock(problem):
            rows, torn = self._parse(path)
            seen: Set[str] = set()
            kept = []
            for row in rows:
                if row["rid"] in seen:
                    continue
                seen.add(row["rid"])
                kept.append(row)
            tmp = path + ".compacting"
            with open(tmp, "w", encoding="utf-8") as fh:
                for row in kept:
                    fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            state = _ShardState()
            state.offset = os.path.getsize(path)
            state.rids = seen
            self._shards[problem] = state
        if self.cache is not None:
            self.cache.invalidate(problem)
        dropped = len(rows) - len(kept)
        self._emit(
            "service-compact",
            f"{problem}: {len(kept)} record(s) kept, {dropped} duplicate(s), "
            f"{torn} torn line(s) dropped",
        )
        return {"kept": len(kept), "duplicates": dropped, "torn": torn}

    # -- shard IO ------------------------------------------------------------
    @staticmethod
    def _ends_with_newline(path: str) -> bool:
        try:
            with open(path, "rb") as fh:
                fh.seek(-1, os.SEEK_END)
                return fh.read(1) == b"\n"
        except (OSError, ValueError):
            return True  # empty or missing file needs no separator

    def _parse(self, path: str) -> Tuple[List[Dict[str, Any]], int]:
        """All parseable rows of a shard file plus the count of torn lines."""
        if not os.path.exists(path):
            return [], 0
        rows, torn = [], 0
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                    if not isinstance(row, dict) or not {"task", "x", "y", "rid"} <= set(row):
                        raise ValueError("not a record")
                except ValueError:
                    torn += 1
                    continue
                rows.append(row)
        if torn:
            self._emit("service-torn-line", f"{path}: {torn} unparseable line(s) skipped")
        return rows, torn

    def _read_all(self, problem: str) -> List[Dict[str, Any]]:
        rows, _ = self._parse(self.shard_path(problem))
        self._refresh(problem)  # keep the rid cache warm for etag/append
        return rows

    def _refresh(self, problem: str) -> None:
        with self._lock(problem):
            self._refresh_locked(problem)

    def _refresh_locked(self, problem: str) -> None:
        """Absorb shard bytes written since our cached offset (lock held).

        Compaction (ours or another process's) can shrink the file or
        rewrite history; a shrink invalidates the offset cache, so the shard
        is re-read from the start.
        """
        path = self.shard_path(problem)
        state = self._shards.setdefault(problem, _ShardState())
        size = os.path.getsize(path) if os.path.exists(path) else 0
        if size < state.offset:
            state.offset, state.rids, state.etag = 0, set(), None
        if size == state.offset:
            return
        with open(path, "rb") as fh:
            fh.seek(state.offset)
            tail = fh.read()
        # only complete (newline-terminated) lines advance the offset; a
        # torn tail is re-examined on the next refresh
        complete = tail.rfind(b"\n") + 1
        for line in tail[:complete].splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line.decode("utf-8"))
                rid = row["rid"]
            except (ValueError, TypeError, KeyError):
                continue
            if str(rid) not in state.rids:
                state.rids.add(str(rid))
                state.etag = None
        state.offset += complete

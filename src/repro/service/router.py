"""Consistent-hash routing: many server processes behind one archive.

One :class:`~repro.service.server.TuningHistoryServer` is a single Python
process — one GIL parsing every request body and committing every
batch.  Past a few thousand requests per second it is the wall.  The
scale-out unit here is the **problem**: shards are per-problem files and
requests name their problem, so a stateless hash of the problem id decides
which backend owns it and backends share nothing.

Three pieces:

* :class:`HashRing` — classic consistent hashing (SHA-1 points, virtual
  replicas) over **stable shard ids** (``"shard-00"``, ...).  Ids, not
  URLs, are on the ring: a backend that dies and is restarted on a new
  ephemeral port keeps its id, so nothing remaps.  Growing N→N+1 moves
  only ~1/(N+1) of the problems.
* :class:`ShardSupervisor` — spawns one server process per shard id over
  ``<root>/<shard-id>/``, publishes the id→URL topology (as a dict and,
  optionally, over HTTP at ``GET /v1/topology``), restarts dead backends
  (same id, same store directory, new port, bumped topology generation),
  and kills/respawns on demand for fault drills.
* :class:`RouterClient` — the client side of the ring.  Per-problem calls
  go straight to the owner backend; ``problems()``/``stats()`` fan out and
  merge.  Appends get **client-side rids** before the first send, so a
  retry after a connection error or backend restart is exactly-once (the
  store deduplicates by rid).  On a connection error the client re-fetches
  the topology — rebalance-on-topology-change — and retries against the
  (possibly moved) owner with deterministic backoff.

:func:`rebalance_stores` migrates data when the topology itself changes
shape (N→M shard ids): every problem whose ring owner moved is appended —
idempotently, rids and all — to its new owner's store and dropped from the
old one.  Problems whose owner is unchanged are not rewritten.
"""

from __future__ import annotations

import bisect
import hashlib
import http.client
import json
import multiprocessing
import os
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..runtime.resilience import RetryPolicy
from .client import ServiceClient, ServiceError
from .store import ShardedStore

__all__ = ["HashRing", "ShardSupervisor", "RouterClient", "rebalance_stores", "shard_id"]


def shard_id(index: int) -> str:
    """Canonical stable id of the ``index``-th shard (``"shard-00"``...)."""
    return f"shard-{int(index):02d}"


class HashRing:
    """Consistent-hash ring mapping keys onto a set of nodes.

    Parameters
    ----------
    nodes:
        Node identifiers (stable shard ids).  Order does not matter — the
        ring is a pure function of the *set*, so every process that knows
        the ids routes identically.
    replicas:
        Virtual points per node; more replicas = smoother balance at the
        cost of a larger (still tiny) sorted array.
    """

    def __init__(self, nodes: Sequence[str], replicas: int = 64):
        if not nodes:
            raise ValueError("ring needs at least one node")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = int(replicas)
        self._nodes = sorted(set(str(n) for n in nodes))
        points: List[Tuple[int, str]] = []
        for node in self._nodes:
            for r in range(self.replicas):
                points.append((self._hash(f"{node}#{r}"), node))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [n for _, n in points]

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(hashlib.sha1(key.encode("utf-8")).digest()[:8], "big")

    @property
    def nodes(self) -> List[str]:
        """The ring's node ids, sorted."""
        return list(self._nodes)

    def node_for(self, key: str) -> str:
        """The node owning ``key`` (first point clockwise of its hash)."""
        h = self._hash(str(key))
        i = bisect.bisect_right(self._points, h)
        if i == len(self._points):
            i = 0  # wrap around the ring
        return self._owners[i]

    def assignment(self, keys: Sequence[str]) -> Dict[str, List[str]]:
        """Group ``keys`` by owning node (nodes without keys included)."""
        out: Dict[str, List[str]] = {n: [] for n in self._nodes}
        for key in keys:
            out[self.node_for(key)].append(str(key))
        return out


# -- backend processes -------------------------------------------------------

def _run_shard_server(root: str, host: str, conn, server_kwargs: Dict[str, Any]) -> None:
    """Child-process entry: serve one shard store forever (port sent back)."""
    from .server import make_server  # re-import under spawn start methods

    server = make_server(root, host=host, port=0, **server_kwargs)
    conn.send(server.server_address[1])
    conn.close()
    server.serve_forever()


class _ShardProc:
    """One backend server process plus its published URL."""

    __slots__ = ("sid", "root", "proc", "url")

    def __init__(self, sid: str, root: str, proc, url: str):
        self.sid, self.root, self.proc, self.url = sid, root, proc, url


class ShardSupervisor:
    """Run and watch N shard server processes over one root directory.

    Parameters
    ----------
    root:
        Parent directory; shard ``i`` stores under ``<root>/shard-<i>/``.
    n_shards:
        Number of backend processes (= ring nodes).
    host:
        Bind address for every backend (ports are ephemeral and published
        in the topology).
    server_kwargs:
        Extra keyword arguments for :func:`~repro.service.server.make_server`
        in each backend (batching/backpressure/cache knobs).
    restart:
        When ``True``, :meth:`poll` (and the :meth:`watch` thread) respawns
        any backend that died — same shard id and store directory, fresh
        port — and bumps the topology generation so routing clients refresh.
    """

    def __init__(
        self,
        root: str,
        n_shards: int,
        host: str = "127.0.0.1",
        server_kwargs: Optional[Dict[str, Any]] = None,
        restart: bool = True,
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.root = str(root)
        self.host = host
        self.restart = bool(restart)
        self.server_kwargs = dict(server_kwargs or {})
        self.generation = 0
        self._lock = threading.Lock()
        self._procs: Dict[str, _ShardProc] = {}
        self._watcher: Optional[threading.Thread] = None
        self._closing = False
        os.makedirs(self.root, exist_ok=True)
        for i in range(int(n_shards)):
            self._spawn(shard_id(i))

    # -- lifecycle -----------------------------------------------------------
    def _spawn(self, sid: str) -> None:
        shard_root = os.path.join(self.root, sid)
        parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
        proc = multiprocessing.Process(
            target=_run_shard_server,
            args=(shard_root, self.host, child_conn, self.server_kwargs),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        if not parent_conn.poll(30):
            proc.terminate()
            raise RuntimeError(f"shard backend {sid} did not report its port")
        port = parent_conn.recv()
        parent_conn.close()
        with self._lock:
            self._procs[sid] = _ShardProc(
                sid, shard_root, proc, f"http://{self.host}:{port}"
            )
            self.generation += 1

    def kill(self, sid: str) -> int:
        """SIGKILL one backend (fault drill); returns the dead pid."""
        proc = self._procs[sid].proc
        pid = proc.pid
        proc.kill()
        proc.join(timeout=10)
        return pid

    def poll(self) -> List[str]:
        """Respawn dead backends; returns the shard ids restarted."""
        if not self.restart or self._closing:
            return []
        dead = [sp.sid for sp in list(self._procs.values()) if not sp.proc.is_alive()]
        for sid in dead:
            if self._closing:  # pragma: no cover - close() racing the watcher
                break
            self._spawn(sid)
        return dead

    def watch(self, interval: float = 0.1) -> threading.Thread:
        """Start (once) a daemon thread restarting dead backends."""
        if self._watcher is None:
            def _loop() -> None:
                while not self._closing:
                    try:
                        self.poll()
                    except Exception:  # pragma: no cover - keep watching
                        pass
                    time.sleep(interval)

            self._watcher = threading.Thread(
                target=_loop, name="repro-shard-watcher", daemon=True
            )
            self._watcher.start()
        return self._watcher

    def close(self) -> None:
        """Stop the watcher and terminate every backend."""
        self._closing = True
        if self._watcher is not None:
            self._watcher.join(timeout=5)
        for sp in self._procs.values():
            if sp.proc.is_alive():
                sp.proc.terminate()
        for sp in self._procs.values():
            sp.proc.join(timeout=10)

    def __enter__(self) -> "ShardSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- topology ------------------------------------------------------------
    def topology(self) -> Dict[str, Any]:
        """The current id→URL map plus its generation counter."""
        with self._lock:
            return {
                "generation": self.generation,
                "shards": {sid: sp.url for sid, sp in sorted(self._procs.items())},
            }

    def urls(self) -> List[str]:
        """Backend base URLs, ordered by shard id."""
        return [url for _, url in sorted(self.topology()["shards"].items())]

    def serve_topology(self, port: int = 0, host: Optional[str] = None) -> str:
        """Expose ``GET /v1/topology`` on a tiny HTTP endpoint; returns its URL.

        Routing clients bootstrap (and refresh after backend restarts) from
        this one well-known address instead of tracking ephemeral ports.
        """
        supervisor = self

        class _TopologyHandler(BaseHTTPRequestHandler):
            # headers and body go out in two writes; see server._Handler
            disable_nagle_algorithm = True

            def log_message(self, fmt, *args):  # pragma: no cover - quiet
                pass

            def do_GET(self) -> None:  # noqa: N802 - http.server naming
                if self.path.rstrip("/") != "/v1/topology":
                    body = json.dumps({"error": "unknown endpoint"}).encode()
                    self.send_response(404)
                else:
                    body = json.dumps(supervisor.topology()).encode()
                    self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        server = ThreadingHTTPServer((host or self.host, port), _TopologyHandler)
        server.daemon_threads = True
        thread = threading.Thread(
            target=server.serve_forever, name="repro-topology", daemon=True
        )
        thread.start()
        self._topology_server = server  # keep a handle for close via GC/tests
        bound = server.server_address
        return f"http://{bound[0]}:{bound[1]}"


# -- routing client ----------------------------------------------------------

class RouterClient:
    """Archive client that routes per-problem calls across shard backends.

    Duck-types the same archive interface as :class:`ServiceClient`
    (``records``/``append``/``count``/``problems``/``query``/``etag``/
    ``compact``/``stats``), so campaigns crowd-tune against an N-process
    topology unchanged.

    Parameters
    ----------
    topology:
        Either a topology dict (``{"shards": {id: url, ...}, ...}`` — e.g.
        :meth:`ShardSupervisor.topology`), a plain ``{id: url}`` mapping,
        or the URL of a ``GET /v1/topology`` endpoint to bootstrap (and
        later refresh) from.
    timeout, replicas:
        Socket timeout per request; virtual points per ring node.
    retry:
        :class:`RetryPolicy` for re-routing after connection errors /
        backend restarts (appends carry client-side rids, so these retries
        are exactly-once).
    pool_size:
        Keep-alive connections retained per backend; size it to the number
        of threads sharing this client or bursts pay reconnect latency.
    """

    def __init__(
        self,
        topology,
        timeout: float = 30.0,
        replicas: int = 64,
        retry: Optional[RetryPolicy] = None,
        pool_size: int = 8,
    ):
        self.timeout = float(timeout)
        self.replicas = int(replicas)
        self.pool_size = int(pool_size)
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=6, backoff=0.05, backoff_factor=2.0, seed=0
        )
        self._topology_url: Optional[str] = None
        self._lock = threading.Lock()
        self._clients: Dict[str, ServiceClient] = {}
        self.generation: Any = None
        if isinstance(topology, str):
            self._topology_url = topology.rstrip("/")
            self._apply(self._fetch_topology())
        else:
            self._apply(topology)

    # -- topology handling ---------------------------------------------------
    def _fetch_topology(self) -> Dict[str, Any]:
        with urllib.request.urlopen(
            self._topology_url + "/v1/topology", timeout=self.timeout
        ) as resp:
            return json.loads(resp.read().decode("utf-8"))

    def _apply(self, topology: Mapping[str, Any]) -> None:
        shards = topology.get("shards", topology)
        if not isinstance(shards, Mapping) or not shards:
            raise ValueError(f"topology has no shards: {topology!r}")
        with self._lock:
            self.generation = topology.get("generation") if "generation" in topology else None
            old = self._clients
            fresh: Dict[str, ServiceClient] = {}
            for sid, url in shards.items():
                sid, url = str(sid), str(url).rstrip("/")
                prev = old.get(sid)
                if prev is not None and prev.base_url == url:
                    fresh[sid] = prev  # keep its warm connection pool
                else:
                    fresh[sid] = ServiceClient(
                        url, timeout=self.timeout, pool_size=self.pool_size
                    )
            self._clients = fresh
            self._ring = HashRing(list(self._clients), replicas=self.replicas)
            for sid, client in old.items():
                if self._clients.get(sid) is not client:
                    client.close()

    def refresh(self) -> None:
        """Re-fetch the topology (no-op without a topology URL)."""
        if self._topology_url is not None:
            self._apply(self._fetch_topology())

    def close(self) -> None:
        """Close every backend client's pooled connections."""
        with self._lock:
            for client in self._clients.values():
                client.close()

    @property
    def ring(self) -> HashRing:
        """The current hash ring (rebuilt on every topology change)."""
        with self._lock:
            return self._ring

    def shard_for(self, problem: str) -> str:
        """The shard id owning one problem."""
        return self.ring.node_for(problem)

    def _client_for(self, problem: str) -> ServiceClient:
        with self._lock:
            return self._clients[self._ring.node_for(problem)]

    def _routed(self, problem: str, call: Callable[[ServiceClient], Any]) -> Any:
        """Run one per-problem call, re-routing on connection errors.

        A dead backend (being restarted by the supervisor) surfaces as an
        ``OSError``/``HTTPException``; the topology is then
        refreshed — the owner may have come back on a new port — and the
        call retried with deterministic backoff.  Callers make appends
        idempotent (client-side rids) before entering.
        """
        last: Optional[BaseException] = None
        for attempt in range(1, self.retry.max_attempts + 1):
            try:
                return call(self._client_for(problem))
            except ServiceError as e:
                if e.status != 429:
                    raise  # real application error — do not mask it
                last = e
                delay = max(e.retry_after, self.retry.delay(attempt))
            except (OSError, http.client.HTTPException) as e:
                last = e
                delay = self.retry.delay(attempt)
            if attempt >= self.retry.max_attempts:
                break
            time.sleep(delay)
            try:
                self.refresh()
            except OSError:  # pragma: no cover - topology endpoint down too
                pass
        raise last  # type: ignore[misc]

    # -- archive interface ---------------------------------------------------
    def append(
        self,
        problem: str,
        records: Sequence[Mapping[str, Any]],
        if_match: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Route an append to the owner shard (retried exactly-once).

        Records without rids get one *here*, client-side, before the first
        send: if the owner dies after committing but before answering, the
        retry re-sends the same rids and the store deduplicates — zero
        lost, zero duplicated.
        """
        import uuid

        rows = [dict(r) for r in records]
        for row in rows:
            if not row.get("rid"):
                row["rid"] = uuid.uuid4().hex
        return self._routed(problem, lambda c: c.append(problem, rows, if_match=if_match))

    def records(self, problem: str, etag: Optional[str] = None) -> List[Dict[str, Any]]:
        """All records of one problem, from its owner shard."""
        return self._routed(problem, lambda c: c.records(problem, etag=etag))

    def count(self, problem: str) -> int:
        """Number of archived records for one problem."""
        return self._routed(problem, lambda c: c.count(problem))

    def etag(self, problem: str) -> str:
        """Current shard version token for one problem."""
        return self._routed(problem, lambda c: c.etag(problem))

    def query(self, problem: str, task: Mapping[str, Any], k: Optional[int] = None) -> List[Dict[str, Any]]:
        """Nearest archived tasks, answered by the owner shard."""
        return self._routed(problem, lambda c: c.query(problem, task, k=k))

    def compact(self, problem: str) -> Dict[str, int]:
        """Compact one problem's shard on its owner backend."""
        return self._routed(problem, lambda c: c.compact(problem))

    # -- fan-out calls -------------------------------------------------------
    def problems(self) -> List[str]:
        """Union of every backend's archived problems, sorted."""
        out: set = set()
        with self._lock:
            clients = list(self._clients.values())
        for client in clients:
            out.update(client.problems())
        return sorted(out)

    def stats(self) -> Dict[str, Any]:
        """Aggregate store stats across backends (per-problem map merged)."""
        merged: Dict[str, Any] = {"n_records": 0, "problems": {}, "shards": {}}
        with self._lock:
            items = sorted(self._clients.items())
        for sid, client in items:
            s = client.stats()
            merged["n_records"] += int(s.get("n_records", 0))
            merged["problems"].update(s.get("problems", {}))
            merged["shards"][sid] = {
                "url": client.base_url,
                "n_records": int(s.get("n_records", 0)),
            }
        return merged


# -- topology-change migration -----------------------------------------------

def rebalance_stores(
    root: str,
    old_ids: Sequence[str],
    new_ids: Sequence[str],
    replicas: int = 64,
    on_event: Optional[Callable[[str, str], Any]] = None,
) -> Dict[str, Any]:
    """Migrate shard directories under ``root`` from one ring to another.

    For every problem archived under an old shard id whose owner on the
    **new** ring differs, its records are appended — with rids, so the
    operation is idempotent and restartable after a crash — to the new
    owner's store, then dropped from the old location.  Problems whose
    owner did not move are untouched (consistent hashing keeps them the
    vast majority).  Run this offline (backends stopped) when changing the
    shard count; returns ``{"moved": [(problem, from, to), ...], "kept": n}``.
    """
    new_ring = HashRing(new_ids, replicas=replicas)
    moved: List[Tuple[str, str, str]] = []
    kept = 0
    for sid in sorted(set(str(s) for s in old_ids)):
        src_root = os.path.join(root, sid)
        if not os.path.isdir(src_root):
            continue
        src = ShardedStore(src_root, on_event=on_event)
        for problem in src.problems():
            owner = new_ring.node_for(problem)
            if owner == sid:
                kept += 1
                continue
            dst = ShardedStore(os.path.join(root, owner), on_event=on_event)
            dst.append(problem, src.records(problem, with_rid=True))
            src.clear(problem)
            moved.append((problem, sid, owner))
            if on_event is not None:
                on_event("service-rebalance", f"{problem}: {sid} -> {owner}")
    return {"moved": moved, "kept": kept}

"""Crowd-tuning HTTP server: one shared tuning archive, many campaigns.

A deliberately dependency-free (stdlib ``http.server``) JSON service in
front of one :class:`~repro.service.store.ShardedStore`, so campaigns on
other machines read and write the same archive through
:class:`~repro.service.client.ServiceClient`.  Endpoints (all JSON):

========  ============================  =========================================
method    path                          meaning
========  ============================  =========================================
GET       ``/v1/stats``                 store-wide counts, etags, byte sizes
GET       ``/v1/problems``              archived problem names
GET       ``/v1/records/<problem>``     all records (+ rids); honors
                                        ``If-None-Match`` → ``304 Not Modified``
GET       ``/metrics``                  Prometheus text exposition of the
                                        server's :class:`MetricsRegistry`
POST      ``/v1/records/<problem>``     append ``{"records": [...]}``; honors
                                        ``If-Match`` → ``412`` on a stale etag
POST      ``/v1/query/<problem>``       nearest-task lookup
                                        ``{"task": {...}, "k": N}``
POST      ``/v1/compact/<problem>``     compact one shard
========  ============================  =========================================

Every request is counted into ``repro_http_requests_total{method, endpoint,
status}`` and timed into the ``repro_http_request_seconds`` histogram, so a
Prometheus scrape of ``/metrics`` sees per-endpoint traffic and latency.

**Write path.**  Plain appends go through a
:class:`~repro.service.batch.WriteBatcher` leader/follower group commit: a
request that finds no commit in flight for its shard commits at once on its
own thread, and POSTs arriving meanwhile share the next single
lock-acquire + write + fsync instead of paying one each.  Optimistic
(``If-Match``) appends bypass batching — their etag check must be atomic
with their write — via the batcher's per-shard ``exclusive()`` section.  Reads are served from the store's etag-keyed
:class:`~repro.service.store.ShardReadCache`, so repeat ``records``/
``query`` traffic against a hot shard stops re-parsing JSONL.

**Backpressure.**  Both queues are bounded: when more than ``max_inflight``
requests are being handled, or the batcher's pending-write queue is full,
the server answers ``429 Too Many Requests`` with a ``Retry-After`` header
instead of letting latency grow without bound.  Saturation is visible in
the ``repro_service_requests_inflight`` / ``repro_service_write_queue_depth``
gauges and the ``repro_http_requests_total{status="429"}`` counter.
An append whose commit fails (full disk, I/O error) or does not finish
within the batcher's timeout is answered ``503 Service Unavailable`` with a
JSON ``error`` naming the cause; nothing in it was acknowledged.

Every record response carries the shard's **ETag** — the content-defined
version token of :meth:`~repro.service.store.ShardedStore.etag`.  A client
that wants optimistic concurrency sends it back as ``If-Match`` on append:
if another campaign appended in between, the server answers ``412
Precondition Failed`` with the fresh etag and the client re-reads before
retrying.  Plain appends (no ``If-Match``) always succeed — the store's
advisory shard locks serialize them without loss, which is what cooperating
crowd-tuning campaigns use.

Requests are served by a :class:`http.server.ThreadingHTTPServer`; the store
itself is the synchronization point (per-shard advisory file locks), so the
server process can even share its store directory with local campaigns
appending directly.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import unquote

from ..observability import MetricsRegistry
from .batch import BackpressureError, WriteBatcher
from .query import nearest_tasks
from .store import ShardReadCache, ShardedStore

__all__ = ["TuningHistoryServer", "make_server", "serve"]

_MAX_BODY = 64 * 1024 * 1024  # refuse absurd payloads instead of OOMing


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to a store via the server instance."""

    server_version = "repro-tuning-service/1.0"
    protocol_version = "HTTP/1.1"
    #: _reply writes headers and body separately; with Nagle's algorithm the
    #: body waits for the client's delayed ACK (~40 ms) on keep-alive sockets
    disable_nagle_algorithm = True
    #: buffer each response until the handler returns, after ``_timed`` has
    #: recorded its metrics: unbuffered, a client could read the reply and
    #: scrape ``/metrics`` before the request it just made was counted
    wbufsize = -1

    # -- plumbing ------------------------------------------------------------
    @property
    def store(self) -> ShardedStore:
        return self.server.store  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # pragma: no cover - silence stderr
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(fmt, *args)

    def _reply(
        self,
        status: int,
        payload: Dict[str, Any],
        etag: Optional[str] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._last_status = status
        # 304 must carry no body (RFC 9110 §15.4.5): clients do not read one,
        # so stray bytes would poison the next request on a keep-alive
        # connection
        body = b"" if status == 304 else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if etag is not None:
            self.send_header("ETag", f'"{etag}"')
        for k, v in (headers or {}).items():
            self.send_header(k, v)
        self.end_headers()
        if body:
            self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._reply(status, {"error": message})

    def _saturated(self, what: str, retry_after: float) -> None:
        """Answer 429 with an explicit client backoff hint."""
        self._reply(
            429,
            {"error": f"{what} saturated, retry later", "retry_after": retry_after},
            headers={"Retry-After": str(max(1, math.ceil(retry_after)))},
        )

    def _body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY:
            raise ValueError(f"request body too large ({length} bytes)")
        raw = self.rfile.read(length) if length else b"{}"
        payload = json.loads(raw.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _route(self) -> Tuple[str, Optional[str]]:
        parts = self.path.rstrip("/").split("?")[0].split("/")
        # ['', 'v1', verb, problem?]
        if len(parts) < 3 or parts[1] != "v1":
            return "", None
        verb = parts[2]
        problem = unquote("/".join(parts[3:])) if len(parts) > 3 else None
        return verb, problem

    @staticmethod
    def _header_etag(value: Optional[str]) -> Optional[str]:
        return value.strip().strip('"') if value else None

    def _endpoint(self) -> str:
        if self.path.split("?")[0].rstrip("/") == "/metrics":
            return "metrics"
        verb, _ = self._route()
        return verb or "unknown"

    def _timed(self, method: str, handler: Callable[[], None]) -> None:
        """Run one request handler, recording count and latency metrics.

        Bounded concurrency: past ``max_inflight`` simultaneously handled
        requests the handler is not even entered — the client gets ``429``
        + ``Retry-After`` immediately.  ``/metrics`` is exempt, so
        observability survives saturation.
        """
        self._last_status = 0
        metrics = self.server.metrics  # type: ignore[attr-defined]
        t0 = time.perf_counter()
        admitted = self._endpoint() == "metrics" or self.server.admit()  # type: ignore[attr-defined]
        try:
            if admitted:
                handler()
            else:
                self._saturated("server", self.server.retry_after)  # type: ignore[attr-defined]
        finally:
            if admitted and self._endpoint() != "metrics":
                self.server.release()  # type: ignore[attr-defined]
            labels = {"method": method, "endpoint": self._endpoint()}
            metrics.inc(
                "repro_http_requests_total", status=str(self._last_status), **labels
            )
            metrics.observe(
                "repro_http_request_seconds", time.perf_counter() - t0, **labels
            )

    def _reply_metrics(self) -> None:
        self._last_status = 200
        body = self.server.metrics.render_text().encode("utf-8")  # type: ignore[attr-defined]
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -- methods -------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        """Dispatch a GET request (instrumented)."""
        self._timed("GET", self._handle_get)

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        """Dispatch a POST request (instrumented)."""
        self._timed("POST", self._handle_post)

    def _handle_get(self) -> None:
        if self._endpoint() == "metrics":
            self._reply_metrics()
            return
        verb, problem = self._route()
        if verb == "stats" and problem is None:
            self._reply(200, self.store.stats())
        elif verb == "problems" and problem is None:
            self._reply(200, {"problems": self.store.problems()})
        elif verb == "records" and problem:
            # snapshot() pairs the rows with the etag of exactly those rows,
            # so a read racing appends/compaction never sees a torn view
            rows, etag = self.store.snapshot(problem)
            if self._header_etag(self.headers.get("If-None-Match")) == etag:
                self._reply(304, {}, etag=etag)
                return
            self._reply(
                200,
                {"problem": problem, "records": rows, "etag": etag},
                etag=etag,
            )
        else:
            self._error(404, f"unknown endpoint {self.path!r}")

    def _handle_post(self) -> None:
        verb, problem = self._route()
        try:
            payload = self._body()
        except ValueError as e:
            self._error(400, str(e))
            return
        if verb == "records" and problem:
            self._post_records(problem, payload)
        elif verb == "query" and problem:
            self._post_query(problem, payload)
        elif verb == "compact" and problem:
            self._reply(200, self.store.compact(problem))
        else:
            self._error(404, f"unknown endpoint {self.path!r}")

    def _post_records(self, problem: str, payload: Dict[str, Any]) -> None:
        records = payload.get("records")
        if not isinstance(records, list):
            self._error(400, 'body must be {"records": [...]}')
            return
        expected = self._header_etag(self.headers.get("If-Match"))
        batcher: WriteBatcher = self.server.batcher  # type: ignore[attr-defined]
        try:
            if expected is None:
                # plain append: ride the group commit (ack after its fsync)
                rids, etag = batcher.submit(problem, records)
            else:
                # optimistic append: the etag check and the append must be
                # one unit, or two racing writers both pass the check
                with batcher.exclusive(problem):
                    current = self.store.etag(problem)
                    if current != expected:
                        self._reply(
                            412,
                            {"error": "etag mismatch: shard changed since you read it",
                             "etag": current},
                            etag=current,
                        )
                        return
                    rids = self.store.append(problem, records)
                    etag = self.store.etag(problem)
        except BackpressureError as e:
            self._saturated("write queue", e.retry_after)
            return
        except (ValueError, TypeError) as e:
            self._error(400, f"bad record: {e}")
            return
        except OSError as e:
            # a failed commit (full disk, I/O error) or a submit that timed
            # out: nothing was acknowledged, and the connection stays usable
            self._error(503, f"append not committed: {e}")
            return
        self._reply(200, {"appended": len(rids), "rids": rids, "etag": etag}, etag=etag)

    def _post_query(self, problem: str, payload: Dict[str, Any]) -> None:
        task = payload.get("task")
        if not isinstance(task, dict):
            self._error(400, 'body must be {"task": {...}, "k": N}')
            return
        k = payload.get("k")
        rows, etag = self.store.snapshot(problem)
        near = nearest_tasks(rows, task, k=int(k) if k is not None else None)
        self._reply(
            200,
            {
                "problem": problem,
                "matches": [
                    {"task": t, "distance": d, "records": recs} for t, recs, d in near
                ],
                "etag": etag,
            },
        )


class TuningHistoryServer(ThreadingHTTPServer):
    """Threaded HTTP server owning one :class:`ShardedStore`.

    Carries a :class:`~repro.observability.MetricsRegistry` fed by the
    request handlers and exposed at ``GET /metrics`` in Prometheus text
    format — the registry is thread-safe, matching the threading server.

    Parameters
    ----------
    address, store, verbose:
        As before; ``store.cache`` (when attached) is wired into the
        server's metrics registry.
    max_pending:
        Queued-record bound of the :class:`~repro.service.batch.WriteBatcher`
        that group-commits every append.
    max_inflight:
        Bound on concurrently handled requests before new ones get ``429``.
    """

    daemon_threads = True
    #: listen backlog; socketserver's default of 5 drops SYNs under a
    #: connection burst and the kernel's ~1 s retransmit wrecks tail latency
    request_queue_size = 128

    def __init__(
        self,
        address: Tuple[str, int],
        store: ShardedStore,
        verbose: bool = False,
        max_pending: int = 4096,
        max_inflight: int = 64,
    ):
        super().__init__(address, _Handler)
        self.store = store
        self.verbose = verbose
        self.metrics = MetricsRegistry()
        if store.cache is not None and store.cache.metrics is None:
            store.cache.metrics = self.metrics
        self.max_inflight = int(max_inflight)
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self.retry_after = 0.05
        self.batcher = WriteBatcher(store, max_pending=max_pending, metrics=self.metrics)

    # -- request admission ---------------------------------------------------
    def admit(self) -> bool:
        """Reserve one in-flight request slot; ``False`` when saturated."""
        with self._inflight_lock:
            if self._inflight >= self.max_inflight:
                return False
            self._inflight += 1
            depth = self._inflight
        self.metrics.set_gauge("repro_service_requests_inflight", float(depth))
        return True

    def release(self) -> None:
        """Return one in-flight request slot."""
        with self._inflight_lock:
            self._inflight -= 1
            depth = self._inflight
        self.metrics.set_gauge("repro_service_requests_inflight", float(depth))

    def server_close(self) -> None:
        """Commit queued writes, then close the listening socket."""
        self.batcher.close()
        super().server_close()


def make_server(
    root: str,
    host: str = "127.0.0.1",
    port: int = 0,
    on_event: Optional[Callable[[str, str], Any]] = None,
    verbose: bool = False,
    cache_bytes: int = 64 * 1024 * 1024,
    **server_kwargs: Any,
) -> TuningHistoryServer:
    """Build a service over the store at ``root`` (``port=0`` = ephemeral).

    The caller drives the returned server (``serve_forever`` /
    ``handle_request`` / ``shutdown``); its bound port is
    ``server.server_address[1]``.  ``cache_bytes=0`` disables the read
    cache; remaining keyword arguments (``max_pending``, ``max_inflight``)
    reach :class:`TuningHistoryServer`.
    """
    cache = ShardReadCache(cache_bytes) if cache_bytes else None
    store = ShardedStore(root, on_event=on_event, cache=cache)
    return TuningHistoryServer((host, port), store, verbose=verbose, **server_kwargs)


def serve(
    root: str,
    host: str = "127.0.0.1",
    port: int = 8577,
    verbose: bool = True,
    **kwargs: Any,
) -> None:  # pragma: no cover - blocking entry point, exercised via CLI tests
    """Run the service until interrupted (the ``repro serve`` verb)."""
    server = make_server(root, host, port, verbose=verbose, **kwargs)
    bound = server.server_address
    print(f"tuning-history service on http://{bound[0]}:{bound[1]} (store: {root})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()

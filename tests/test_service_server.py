"""Tests for the crowd-tuning HTTP service (server + client) and the
acceptance scenario: two concurrent GPTune campaigns sharing one archive
through the service, with no lost or corrupted records."""

import json
import socket
import threading
import time
import urllib.request

import pytest

from repro.apps.analytical import AnalyticalApp
from repro.core import GPTune, Options
from repro.service import ServiceClient, ShardedStore
from repro.service.client import ServiceError, StaleEtagError
from repro.service.server import _Handler, make_server

REC = {"task": {"m": 10}, "x": {"b": 4}, "y": [1.5]}
REC2 = {"task": {"m": 20}, "x": {"b": 8}, "y": [2.5]}


@pytest.fixture
def service(tmp_path):
    server = make_server(str(tmp_path / "db"), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield ServiceClient(f"http://{host}:{port}"), server.store
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestRoundTrips:
    def test_empty_store(self, service):
        client, _ = service
        assert client.problems() == []
        assert client.records("qr") == []
        assert client.count("qr") == 0
        assert client.etag("qr") == "empty"

    def test_append_and_read_back(self, service):
        client, store = service
        out = client.append("qr", [REC, REC2])
        assert out["appended"] == 2
        assert len(out["rids"]) == 2
        got = client.records("qr")
        assert [r["y"] for r in got] == [[1.5], [2.5]]
        assert all("rid" in r for r in got)
        # the client write is visible to direct store readers and vice versa
        assert store.count("qr") == 2
        assert client.problems() == ["qr"]

    def test_rid_push_is_idempotent_over_the_wire(self, service):
        client, _ = service
        client.append("qr", [REC])
        synced = client.records("qr")
        out = client.append("qr", synced)  # replay with rids: deduplicated
        assert out["appended"] == 0
        assert client.count("qr") == 1

    def test_conditional_get_304(self, service):
        client, _ = service
        client.append("qr", [REC])
        etag = client.etag("qr")
        assert client.records("qr", etag=etag) is None  # 304: keep cache
        client.append("qr", [REC2])
        fresh = client.records("qr", etag=etag)  # shard moved: full body
        assert len(fresh) == 2

    def test_if_match_append_succeeds_on_current_etag(self, service):
        client, _ = service
        client.append("qr", [REC])
        out = client.append("qr", [REC2], if_match=client.etag("qr"))
        assert out["appended"] == 1

    def test_stale_etag_rejected_with_412(self, service):
        client, _ = service
        client.append("qr", [REC])
        stale = client.etag("qr")
        client.append("qr", [REC2])  # another campaign writes in between
        with pytest.raises(StaleEtagError) as err:
            client.append("qr", [REC], if_match=stale)
        assert err.value.status == 412
        assert err.value.etag == client.etag("qr")
        assert client.count("qr") == 2  # rejected append wrote nothing

    def test_query_endpoint(self, service):
        client, _ = service
        client.append("qr", [REC, REC2])
        matches = client.query("qr", {"m": 18}, k=1)
        assert len(matches) == 1
        assert matches[0]["task"] == {"m": 20}
        assert [r["y"] for r in matches[0]["records"]] == [[2.5]]

    def test_compact_endpoint(self, service):
        client, _ = service
        client.append("qr", [REC, REC2])
        assert client.compact("qr") == {"kept": 2, "duplicates": 0, "torn": 0}

    def test_stats(self, service):
        client, _ = service
        client.append("a", [REC])
        client.append("b", [REC, REC2])
        stats = client.stats()
        assert stats["n_records"] == 3
        assert stats["problems"]["b"]["count"] == 2

    def test_unknown_endpoint_404(self, service):
        client, _ = service
        status, payload, _ = client._request("GET", client.base_url + "/v1/nope")
        assert status == 404
        with pytest.raises(ServiceError):
            client._check(status, payload)

    def test_malformed_record_400(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as err:
            client.append("qr", [{"task": {}, "x": {}}])  # no y
        assert err.value.status == 400
        assert client.count("qr") == 0


class TestMetricsEndpoint:
    """GET /metrics serves Prometheus text fed by per-request instrumentation."""

    def test_scrape_exposes_request_counters(self, service):
        client, _ = service
        client.append("qr", [REC])
        client.problems()
        status, _, _ = client._request("GET", client.base_url + "/v1/nope")
        assert status == 404

        resp = urllib.request.urlopen(client.base_url + "/metrics")
        assert resp.status == 200
        assert resp.headers["Content-Type"].startswith("text/plain; version=0.0.4")
        text = resp.read().decode("utf-8")

        assert "# TYPE repro_http_requests_total counter" in text
        assert ('repro_http_requests_total{endpoint="records",method="POST",'
                'status="200"} 1') in text
        assert ('repro_http_requests_total{endpoint="problems",method="GET",'
                'status="200"} 1') in text
        assert ('repro_http_requests_total{endpoint="nope",method="GET",'
                'status="404"} 1') in text
        assert "# TYPE repro_http_request_seconds histogram" in text
        assert 'repro_http_request_seconds_bucket{endpoint="problems",method="GET",le="+Inf"} 1' in text
        assert 'repro_http_request_seconds_count{endpoint="problems",method="GET"} 1' in text

        # every sample line is parseable exposition: name{labels} value
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)  # must parse
            assert name_part[0].isalpha() or name_part[0] == "_"

    def test_metrics_scrape_counts_itself_next_time(self, service):
        client, _ = service
        urllib.request.urlopen(client.base_url + "/metrics").read()
        text = urllib.request.urlopen(client.base_url + "/metrics").read().decode()
        assert ('repro_http_requests_total{endpoint="metrics",method="GET",'
                'status="200"}') in text

    def test_reply_leaves_after_the_request_is_counted(self, service, monkeypatch):
        # a handler thread descheduled between its reply and its metrics
        # must not let the client's next scrape miss the request
        from repro.observability import MetricsRegistry

        inc = MetricsRegistry.inc

        def late_inc(self, name, *args, **labels):
            if name == "repro_http_requests_total":
                time.sleep(0.05)
            return inc(self, name, *args, **labels)

        monkeypatch.setattr(MetricsRegistry, "inc", late_inc)
        client, _ = service
        urllib.request.urlopen(client.base_url + "/metrics").read()
        text = urllib.request.urlopen(client.base_url + "/metrics").read().decode()
        assert ('repro_http_requests_total{endpoint="metrics",method="GET",'
                'status="200"} 1') in text


class TestCrowdTuning:
    """Acceptance: concurrent campaigns share one archive via the service."""

    def test_two_concurrent_campaigns_lose_nothing(self, service, tmp_path):
        client, store = service
        problem = AnalyticalApp(seed=0).problem()
        budget = 6
        results, errors = {}, []

        def campaign(name, task, seed):
            try:
                tuner = GPTune(
                    problem,
                    Options(seed=seed, n_start=2),
                    history=ServiceClient(client.base_url),
                )
                results[name] = tuner.tune([task], budget)
            except Exception as e:  # pragma: no cover - failure reporting
                errors.append((name, e))

        threads = [
            threading.Thread(target=campaign, args=("a", {"t": 2.0}, 0)),
            threading.Thread(target=campaign, args=("b", {"t": 4.0}, 1)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert errors == []

        # every evaluation of both campaigns landed in the shared archive
        archived = client.records(problem.name)
        assert len(archived) == 2 * budget
        rids = [r["rid"] for r in archived]
        assert len(set(rids)) == len(rids)
        archived_ys = {r["y"][0] for r in archived}
        for name in ("a", "b"):
            res = results[name]
            for y in res.data.Y[0]:
                assert float(y[0]) in archived_ys

        # and the shard is clean: every line parses, compaction finds no junk
        with open(store.shard_path(problem.name), encoding="utf-8") as fh:
            for line in fh:
                json.loads(line)
        assert client.compact(problem.name)["kept"] == 2 * budget

    def test_campaign_resumes_from_service_archive(self, service):
        client, _ = service
        problem = AnalyticalApp(seed=0).problem()
        GPTune(problem, Options(seed=0, n_start=2), history=client).tune(
            [{"t": 2.0}], 4
        )
        # a later campaign on the same task reuses archived evaluations
        # toward its budget instead of re-running them
        res = GPTune(problem, Options(seed=1, n_start=2), history=client).tune(
            [{"t": 2.0}], 6
        )
        assert len(res.data.X[0]) == 6
        assert client.count(problem.name) == 6  # 4 archived + 2 fresh


class TestKeepAliveAndRetries:
    def test_connection_is_pooled_across_requests(self, service):
        client, _ = service
        client.append("qr", [REC])
        client.records("qr")
        client.problems()
        client.stats()
        assert client._pool.created == 1  # one TCP connection did it all

    def test_get_retries_on_dead_pooled_connection(self, service):
        client, _ = service
        client.append("qr", [REC])
        # poison the pool with a connection the server no longer knows
        conn = client._pool.get()
        conn.close()
        client._pool.put(conn)
        assert len(client.records("qr")) == 1  # retried on a fresh conn

    def test_close_empties_pool_but_client_stays_usable(self, service):
        client, _ = service
        client.problems()
        client.close()
        assert client.problems() == []

    def test_accepted_connections_set_tcp_nodelay(self, tmp_path):
        # headers and body leave in two writes; with Nagle's algorithm on, a
        # keep-alive reply waits for the client's delayed ACK (~40 ms)
        seen = []

        class Recording(_Handler):
            def setup(self):
                super().setup()
                seen.append(
                    self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                )

        server = make_server(str(tmp_path / "db"), port=0)
        server.RequestHandlerClass = Recording
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        try:
            client.append("qr", [REC])
            assert client.records("qr")[0]["y"] == [1.5]
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert seen and all(seen)


class TestBackpressureHTTP:
    @pytest.fixture
    def saturable(self, tmp_path):
        from repro.service.server import make_server

        server = make_server(str(tmp_path / "db"), port=0, max_inflight=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            yield ServiceClient(f"http://{host}:{port}"), server
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_saturated_server_answers_429_with_retry_after(self, saturable):
        client, server = saturable
        # exhaust the admission slots by hand: requests now get 429
        taken = 0
        while server.admit():
            taken += 1
        try:
            with pytest.raises(ServiceError) as err:
                client.problems()
            assert err.value.status == 429
            assert err.value.retry_after > 0
        finally:
            for _ in range(taken):
                server.release()
        assert client.problems() == []  # slots back: served again

    def test_metrics_endpoint_exempt_from_admission(self, saturable):
        client, server = saturable
        taken = 0
        while server.admit():
            taken += 1
        try:
            resp = urllib.request.urlopen(client.base_url + "/metrics")
            assert resp.status == 200  # scraping survives saturation
        finally:
            for _ in range(taken):
                server.release()

    def test_write_queue_backpressure_maps_to_429(self, tmp_path):
        from repro.service.server import make_server
        from repro.service.batch import BackpressureError

        server = make_server(str(tmp_path / "db"), port=0, max_pending=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        try:
            def full_submit(problem, records, timeout=60.0):
                raise BackpressureError("write queue full", retry_after=0.25)

            server.batcher.submit = full_submit
            with pytest.raises(ServiceError) as err:
                client.append("qr", [REC])
            assert err.value.status == 429
            assert err.value.retry_after == 0.25
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


class TestCommitFailuresHTTP:
    """A commit that fails or times out answers 503 naming the cause."""

    @pytest.fixture
    def served(self, tmp_path):
        server = make_server(str(tmp_path / "db"), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        try:
            yield client, server
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    @staticmethod
    def _appends_with_status(client, status):
        text = urllib.request.urlopen(client.base_url + "/metrics").read().decode()
        key = ('repro_http_requests_total{endpoint="records",method="POST",'
               f'status="{status}"}} ')
        return sum(float(line[len(key):]) for line in text.splitlines()
                   if line.startswith(key))

    def test_failed_commit_answers_503_with_errno(self, served):
        client, server = served
        real_append = server.store.append

        def disk_full(problem, records):
            raise OSError(28, "No space left on device")

        server.store.append = disk_full
        try:
            with pytest.raises(ServiceError) as plain:
                client.append("qr", [REC])  # a failed group commit
            with pytest.raises(ServiceError) as optimistic:
                client.append("qr", [REC2], if_match=client.etag("qr"))
        finally:
            server.store.append = real_append
        for err in (plain, optimistic):
            assert err.value.status == 503
            assert "[Errno 28] No space left on device" in str(err.value)

        # nothing was written, and the kept-alive connection still works
        assert client.count("qr") == 0
        assert client.append("qr", [REC])["appended"] == 1
        assert self._appends_with_status(client, 503) == 2.0
        assert self._appends_with_status(client, 0) == 0.0

    def test_timed_out_submit_answers_503(self, served):
        client, server = served

        def stuck_submit(problem, records, timeout=60.0):
            raise TimeoutError(f"batched append to {problem!r} timed out")

        server.batcher.submit = stuck_submit
        with pytest.raises(ServiceError) as err:
            client.append("qr", [REC])
        assert err.value.status == 503
        assert "timed out" in str(err.value)
        assert self._appends_with_status(client, 503) == 1.0


class TestScrapeGauges:
    def test_scrape_exposes_service_gauges(self, service):
        client, _ = service
        client.append("qr", [REC])
        client.records("qr")
        client.records("qr")  # hot read: fills + hits the cache
        text = urllib.request.urlopen(client.base_url + "/metrics").read().decode()
        assert "# TYPE repro_service_write_queue_depth gauge" in text
        assert "# TYPE repro_service_requests_inflight gauge" in text
        assert "# TYPE repro_service_read_cache_bytes gauge" in text
        assert "repro_service_read_cache_hits_total" in text
        assert "repro_service_commits_total" in text
        assert "# TYPE repro_service_batch_records histogram" in text
        assert "# TYPE repro_service_flush_seconds histogram" in text


class TestConsistencyUnderCompaction:
    """Etag-conditional reads and writes racing compact() never tear."""

    def test_reads_racing_compaction_stay_consistent(self, service):
        from repro.service.store import _etag_of

        client, store = service
        client.append("qr", [REC, REC2])
        stop = threading.Event()
        churn_errors = []

        def churn():
            i = 0
            try:
                while not stop.is_set():
                    store.compact("qr")
                    client.append("qr", [{"task": {"m": i}, "x": {"b": i},
                                          "y": [float(i)]}])
                    i += 1
            except Exception as e:  # pragma: no cover - failure reporting
                churn_errors.append(e)

        churner = threading.Thread(target=churn)
        churner.start()
        try:
            for _ in range(60):
                status, payload, headers = client._request(
                    "GET", client._url("records", "qr")
                )
                assert status == 200
                rows = payload["records"]
                served_etag = headers.get("etag", "").strip('"')
                # the etag served MUST be the etag OF the rows served —
                # a torn view pairs one version's etag with another's rows
                assert served_etag == _etag_of(r["rid"] for r in rows)
        finally:
            stop.set()
            churner.join(timeout=30)
        assert churn_errors == []

    def test_if_match_append_racing_compaction_never_corrupts(self, service):
        client, store = service
        client.append("qr", [REC])
        stop = threading.Event()

        def compact_loop():
            while not stop.is_set():
                store.compact("qr")

        churner = threading.Thread(target=compact_loop)
        churner.start()
        appended, stale = 0, 0
        try:
            for i in range(40):
                etag = client.etag("qr")
                try:
                    out = client.append(
                        "qr",
                        [{"task": {"m": i}, "x": {"b": i}, "y": [float(i)]}],
                        if_match=etag,
                    )
                    appended += out["appended"]
                except StaleEtagError:
                    stale += 1  # legal outcome of the race; data unharmed
        finally:
            stop.set()
            churner.join(timeout=30)
        # every successful append is present exactly once
        rows = client.records("qr")
        rids = [r["rid"] for r in rows]
        assert len(rids) == len(set(rids))
        assert len(rows) == 1 + appended
        # compaction never produced junk
        assert client.compact("qr")["kept"] == 1 + appended

    def test_304_racing_compaction(self, service):
        client, store = service
        client.append("qr", [REC])
        etag = client.etag("qr")
        store.compact("qr")  # compaction preserves the rid set
        assert client.records("qr", etag=etag) is None  # still 304
        client.append("qr", [REC2])
        assert len(client.records("qr", etag=etag)) == 2  # moved: full body

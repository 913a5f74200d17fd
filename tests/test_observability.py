"""Tests for the observability layer: metrics registry, spans, telemetry log.

Covers the MetricsRegistry instruments (labels, snapshot/merge, Prometheus
rendering), span nesting and aggregation, concurrency guarantees of both the
registry and the campaign log (exact counts, strictly increasing unique
sequence numbers), the upgraded CampaignEvent (timestamps, structured
fields, tolerant ``total()`` parsing), and the JSONL export round-trip.
"""

import json
import threading

import pytest

from repro.observability import (
    DEFAULT_BUCKETS,
    CampaignEvent,
    CampaignLog,
    JsonlEventWriter,
    MetricsRegistry,
    SpanRecorder,
    current_recorder,
    install_recorder,
    maybe_span,
    recording,
)
from repro.observability.spans import _NULL


# -- MetricsRegistry -----------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("requests_total")
        reg.inc("requests_total", 4)
        snap = reg.snapshot()
        assert snap["counters"] == [
            {"name": "requests_total", "labels": {}, "value": 5.0}
        ]

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.inc("requests_total", -1)

    def test_labels_separate_series(self):
        reg = MetricsRegistry()
        reg.inc("http_total", method="GET")
        reg.inc("http_total", method="POST")
        reg.inc("http_total", method="GET")
        snap = {tuple(c["labels"].items()): c["value"] for c in reg.snapshot()["counters"]}
        assert snap[(("method", "GET"),)] == 2.0
        assert snap[(("method", "POST"),)] == 1.0

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.inc("bad name")
        with pytest.raises(ValueError):
            reg.inc("ok_name", **{"bad-label": 1})

    def test_gauge_set_and_add(self):
        reg = MetricsRegistry()
        g = reg.gauge("queue_depth")
        g.set(10)
        g.add(-3)
        assert reg.snapshot()["gauges"][0]["value"] == 7.0

    def test_histogram_buckets_and_sum(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", buckets=[0.1, 1.0, 10.0])
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        snap = reg.snapshot()["histograms"][0]
        assert snap["buckets"] == [0.1, 1.0, 10.0]
        assert snap["counts"] == [1.0, 1.0, 1.0]  # 50.0 only hits +Inf
        assert snap["count"] == 4.0
        assert snap["sum"] == pytest.approx(55.55)

    def test_histogram_default_buckets(self):
        reg = MetricsRegistry()
        reg.observe("span_seconds", 0.002)
        assert reg.snapshot()["histograms"][0]["buckets"] == list(DEFAULT_BUCKETS)

    def test_histogram_bucket_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.observe("lat_seconds", 1.0, buckets=[1.0, 2.0])
        with pytest.raises(ValueError):
            reg.observe("lat_seconds", 1.0, buckets=[5.0])

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("evals_total", 2)
        b.inc("evals_total", 3)
        a.observe("lat", 0.5, buckets=[1.0])
        b.observe("lat", 2.0, buckets=[1.0])
        a.set_gauge("depth", 1)
        b.set_gauge("depth", 9)
        a.merge(b)
        snap = a.snapshot()
        assert snap["counters"][0]["value"] == 5.0
        assert snap["gauges"][0]["value"] == 9.0  # last writer wins
        h = snap["histograms"][0]
        assert h["count"] == 2.0 and h["sum"] == pytest.approx(2.5)

    def test_merge_accepts_plain_snapshot(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.inc("evals_total")
        a.merge(json.loads(b.render_json()))
        assert a.snapshot()["counters"][0]["value"] == 1.0

    def test_render_text_prometheus_format(self):
        reg = MetricsRegistry()
        reg.inc("http_total", 3, method="GET", status="200")
        reg.set_gauge("depth", 2.5)
        reg.observe("lat_seconds", 0.5, buckets=[1.0])
        text = reg.render_text()
        assert "# TYPE http_total counter" in text
        assert 'http_total{method="GET",status="200"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 2.5" in text
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_sum 0.5" in text
        assert "lat_seconds_count 1" in text
        assert text.endswith("\n")

    def test_render_text_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.inc("c_total", path='a"b\\c')
        assert 'path="a\\"b\\\\c"' in reg.render_text()

    def test_histogram_buckets_render_cumulatively(self):
        reg = MetricsRegistry()
        for v in (0.5, 1.5, 2.5):
            reg.observe("lat", v, buckets=[1.0, 2.0, 3.0])
        text = reg.render_text()
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="2"} 2' in text
        assert 'lat_bucket{le="3"} 3' in text

    def test_concurrent_increments_exact(self):
        reg = MetricsRegistry()
        n_threads, per_thread = 8, 500

        def work():
            for _ in range(per_thread):
                reg.inc("hits_total")
                reg.observe("lat", 0.01, buckets=[1.0])

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = reg.snapshot()
        assert snap["counters"][0]["value"] == n_threads * per_thread
        assert snap["histograms"][0]["count"] == n_threads * per_thread


# -- spans ---------------------------------------------------------------------


class TestSpans:
    def test_maybe_span_is_noop_without_recorder(self):
        assert current_recorder() is None
        assert maybe_span("anything", answer=42) is _NULL
        with maybe_span("anything") as sp:
            sp.annotate(ignored=True)  # must not raise

    def test_recording_scope_installs_and_restores(self):
        rec = SpanRecorder()
        with recording(rec):
            assert current_recorder() is rec
            with maybe_span("outer"):
                with maybe_span("inner"):
                    pass
        assert current_recorder() is None
        spans = {s.name: s for s in rec.spans}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None
        assert spans["inner"].dur_s >= 0.0
        assert spans["inner"].t_wall > 0 and spans["inner"].t_mono > 0

    def test_install_recorder_returns_previous(self):
        a, b = SpanRecorder(), SpanRecorder()
        assert install_recorder(a) is None
        assert install_recorder(b) is a
        assert install_recorder(None) is b
        assert current_recorder() is None

    def test_spans_feed_log_and_metrics(self):
        log, metrics = CampaignLog(), MetricsRegistry()
        rec = SpanRecorder(log=log, metrics=metrics)
        with recording(rec):
            with maybe_span("phase.modeling", n=12):
                pass
        ev = log.of_kind("span")[0]
        assert ev.fields["name"] == "phase.modeling"
        assert ev.fields["n"] == 12
        assert ev.fields["dur_s"] >= 0.0
        hist = metrics.snapshot()["histograms"][0]
        assert hist["name"] == "repro_span_seconds"
        assert hist["labels"] == {"span": "phase.modeling"}

    def test_aggregate_spans_fold_and_flush(self):
        log = CampaignLog()
        rec = SpanRecorder(log=log)
        with recording(rec):
            for _ in range(100):
                with maybe_span("model.predict", aggregate=True):
                    pass
        # recording() flushes on exit: one summary event, zero span events
        assert log.count("span") == 0
        summaries = log.of_kind("span-summary")
        assert len(summaries) == 1
        assert summaries[0].fields["name"] == "model.predict"
        assert summaries[0].fields["count"] == 100
        assert summaries[0].fields["total_s"] >= 0.0
        assert rec.totals().get("model.predict", (0, 0.0))[0] == 0  # reset by flush

    def test_totals_combines_spans_and_aggregates(self):
        rec = SpanRecorder()
        with recording(rec):
            with maybe_span("a"):
                pass
            with maybe_span("b", aggregate=True):
                pass
            with maybe_span("b", aggregate=True):
                pass
            totals = rec.totals()
        assert totals["a"][0] == 1
        assert totals["b"][0] == 2

    def test_nesting_is_per_thread(self):
        rec = SpanRecorder()
        errors = []

        def work(name):
            try:
                for _ in range(50):
                    with rec.span(f"outer.{name}"):
                        with rec.span(f"inner.{name}"):
                            pass
            except Exception as e:  # pragma: no cover - diagnostic
                errors.append(e)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        spans = {s.span_id: s for s in rec.spans}
        assert len(spans) == 4 * 50 * 2
        for s in spans.values():
            if s.name.startswith("inner."):
                parent = spans[s.parent_id]
                # each inner span's parent is an outer span of the SAME thread
                assert parent.name == "outer." + s.name.split(".", 1)[1]


# -- CampaignLog / CampaignEvent -----------------------------------------------


class TestCampaignLog:
    def test_events_carry_timestamps_and_fields(self):
        log = CampaignLog()
        log.record("model-fit", "objective 0: n_starts=3", n_starts=3, n=40)
        ev = log.events[0]
        assert ev.t_wall > 0 and ev.t_mono > 0
        assert ev.fields == {"n_starts": 3, "n": 40}
        assert ev.detail.startswith("objective 0")

    def test_total_prefers_structured_fields(self):
        log = CampaignLog()
        # detail disagrees with the structured field: fields win
        log.record("model-fit", "n_starts=999", n_starts=3)
        assert log.total("model-fit", "n_starts") == 3

    def test_total_strips_trailing_punctuation(self):
        log = CampaignLog()
        for detail in ("n_starts=8,", "n_starts=4; done", "spent n_starts=2."):
            log.record("model-fit", detail)
        assert log.total("model-fit", "n_starts") == 14

    def test_total_ignores_malformed_tokens(self):
        log = CampaignLog()
        log.record("model-fit", "n_starts=oops")
        log.record("model-fit", "n_starts=5")
        assert log.total("model-fit", "n_starts") == 5

    def test_concurrent_records_exact_and_ordered(self):
        log = CampaignLog()
        n_threads, per_thread = 8, 300

        def work(tid):
            for i in range(per_thread):
                log.record("retry", f"t{tid} i{i}")

        threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = log.events
        assert len(events) == n_threads * per_thread
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)  # strictly increasing, no duplicates
        assert log.count("retry") == n_threads * per_thread

    def test_event_dict_round_trip(self):
        ev = CampaignEvent(3, "span", "x 1ms", t_wall=12.5, t_mono=0.25,
                           fields={"name": "x", "dur_s": 0.001})
        back = CampaignEvent.from_dict(ev.to_dict())
        assert back == ev

    def test_from_dict_tolerates_legacy_payload(self):
        back = CampaignEvent.from_dict({"seq": 1, "kind": "retry", "detail": "d"})
        assert back.kind == "retry" and back.t_wall == 0.0 and back.fields == {}
        with pytest.raises(ValueError):
            CampaignEvent.from_dict({"detail": "kindless"})


class TestJsonlExport:
    def test_dump_and_load_round_trip(self, tmp_path):
        log = CampaignLog()
        log.record("retry", "attempt 1", attempt=1)
        log.record("span", "phase.modeling 3ms", name="phase.modeling", dur_s=0.003)
        path = tmp_path / "events.jsonl"
        log.dump_jsonl(str(path))
        loaded = CampaignLog.load_jsonl(str(path))
        assert [e.kind for e in loaded.events] == ["retry", "span"]
        assert loaded.events[1].fields["dur_s"] == 0.003

    def test_load_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "retry"}\nnot json\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            CampaignLog.load_jsonl(str(path))

    def test_streaming_sink_writes_every_event(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        log = CampaignLog()
        sink = JsonlEventWriter(str(path))
        log.add_sink(sink)
        log.record("retry", "a")
        log.record("timeout", "b", budget_s=1.5)
        sink.close()
        assert sink.count == 2
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["kind"] for l in lines] == ["retry", "timeout"]
        assert lines[1]["fields"]["budget_s"] == 1.5

    def test_sink_preserves_seq_order_under_threads(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        log = CampaignLog()
        log.add_sink(JsonlEventWriter(str(path)))

        def work():
            for _ in range(200):
                log.record("retry", "x")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seqs = [json.loads(l)["seq"] for l in path.read_text().splitlines()]
        assert seqs == sorted(seqs) and len(seqs) == 800

"""The observability layer: spans, metrics, exporters, integration."""

import json
import threading
import time

import pytest

from repro import obs
from repro.ddl import parse_ddl
from repro.obs.metrics import Histogram, MetricsRegistry, series_key
from repro.obs.trace import NULL_RECORDER, Span, TimedResult
from repro.sites.homepage import FIG2_DDL, FIG3_QUERY
from repro.struql.evaluator import QueryEngine


@pytest.fixture(autouse=True)
def _clean_recorder():
    """Every test starts and ends with the global no-op recorder."""
    obs.disable()
    yield
    obs.disable()


class TestSpans:
    def test_nesting_and_ordering(self):
        with obs.recording() as rec:
            with rec.span("outer") as outer:
                with rec.span("first"):
                    pass
                with rec.span("second") as second:
                    with rec.span("inner"):
                        pass
                second.set(checked=True)
        assert [r.name for r in rec.roots] == ["outer"]
        assert [c.name for c in outer.children] == ["first", "second"]
        assert [c.name for c in second.children] == ["inner"]
        assert second.attributes["checked"] is True
        assert [s.name for s in outer.walk()] == \
            ["outer", "first", "second", "inner"]

    def test_durations_nest(self):
        with obs.recording() as rec:
            with rec.span("outer") as outer:
                with rec.span("inner") as inner:
                    time.sleep(0.002)
        assert outer.seconds >= inner.seconds > 0

    def test_find(self):
        with obs.recording() as rec:
            with rec.span("a"):
                with rec.span("b", tag=1):
                    pass
        found = rec.roots[0].find("b")
        assert found is not None and found.attributes["tag"] == 1
        assert rec.roots[0].find("zzz") is None

    def test_exception_still_closes_span(self):
        with obs.recording() as rec:
            with pytest.raises(ValueError):
                with rec.span("boom"):
                    raise ValueError("x")
        span = rec.roots[0]
        assert span.end is not None
        assert rec.current() is None

    def test_threads_get_separate_roots(self):
        with obs.recording() as rec:
            def work(label):
                with rec.span(label):
                    with rec.span(f"{label}.child"):
                        pass
            threads = [threading.Thread(target=work, args=(f"t{i}",))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert sorted(r.name for r in rec.roots) == \
            ["t0", "t1", "t2", "t3"]
        assert all(len(r.children) == 1 for r in rec.roots)

    def test_timed_is_real_even_when_disabled(self):
        with obs.timed("work", kind="test") as span:
            time.sleep(0.001)
        assert span.seconds >= 0.001
        assert span.attributes == {"kind": "test"}
        # ...but nothing was collected globally.
        assert obs.get_recorder() is NULL_RECORDER

    def test_timed_attaches_when_recording(self):
        with obs.recording() as rec:
            with obs.timed("work") as span:
                pass
        assert rec.roots == [span]

    def test_traced_decorator(self):
        @obs.traced("my.fn")
        def fn(x):
            return x * 2

        assert fn(3) == 6  # disabled: plain call
        with obs.recording() as rec:
            assert fn(4) == 8
        assert rec.roots[0].name == "my.fn"

    def test_noop_span_is_shared_and_inert(self):
        with obs.span("anything", a=1) as span:
            span.set(b=2)
        assert span.attributes == {}
        assert span.seconds == 0.0

    def test_recording_restores_previous(self):
        outer = obs.enable()
        with obs.recording() as inner:
            assert obs.get_recorder() is inner
        assert obs.get_recorder() is outer

    def test_clear(self):
        with obs.recording() as rec:
            with rec.span("x"):
                pass
            rec.metrics.counter("c").inc()
            rec.clear()
            assert rec.roots == []
            assert rec.metrics.as_dict()["counters"] == {}


class TestTimedResult:
    def test_seconds_from_span(self):
        span = Span("s", start=10.0, end=10.5)
        assert TimedResult(span=span).seconds == 0.5

    def test_seconds_without_span(self):
        assert TimedResult().seconds == 0.0


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(4)
        registry.gauge("depth").set(7)
        data = registry.as_dict()
        assert data["counters"]["hits"] == 5
        assert data["gauges"]["depth"] == 7

    def test_published_counts_are_read_when_exported(self):
        registry = MetricsRegistry()
        counts = {"hits": 0, "misses": 2}
        registry.publish("view", counts)
        counts["hits"] += 3
        assert registry.as_dict()["counters"] == {
            "view.hits": 3, "view.misses": 2}
        registry.publish("view", {"hits": 9})  # replaces the first
        assert registry.as_dict()["counters"] == {"view.hits": 9}
        registry.reset()
        assert registry.as_dict()["counters"] == {}
        NULL_RECORDER.metrics.publish("view", counts)
        assert NULL_RECORDER.metrics.as_dict()["counters"] == {}

    def test_counter_thread_safety(self):
        counter = MetricsRegistry().counter("n")

        def bump():
            for _ in range(1000):
                counter.inc()
        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000

    def test_histogram_percentiles_uniform(self):
        # 1..1000 ms uniform: p50 ~ 0.5 s, p90 ~ 0.9 s, p99 ~ 0.99 s.
        histogram = Histogram("lat")
        for i in range(1, 1001):
            histogram.observe(i / 1000.0)
        assert histogram.count == 1000
        assert abs(histogram.percentile(0.50) - 0.5) < 0.15
        assert abs(histogram.percentile(0.90) - 0.9) < 0.2
        assert histogram.percentile(0.99) <= histogram.max == 1.0
        assert histogram.percentile(0.50) < histogram.percentile(0.90) \
            <= histogram.percentile(0.99)
        assert abs(histogram.mean - 0.5005) < 1e-9

    def test_histogram_constant_distribution(self):
        histogram = Histogram("lat")
        for _ in range(100):
            histogram.observe(0.003)
        # All mass in one bucket, clamped to observed min/max.
        assert histogram.percentile(0.5) == pytest.approx(0.003, abs=1e-3)
        assert histogram.min == histogram.max == 0.003

    def test_histogram_overflow_bucket(self):
        histogram = Histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 50.0, 100.0):
            histogram.observe(value)
        assert histogram.percentile(1.0) == 100.0
        assert histogram.max == 100.0

    def test_histogram_empty(self):
        histogram = Histogram("lat")
        assert histogram.percentile(0.99) == 0.0
        summary = histogram.summary()
        assert summary["count"] == 0 and summary["min"] == 0.0

    def test_histogram_bounded_memory(self):
        histogram = Histogram("lat")
        for i in range(10000):
            histogram.observe(i * 0.001)
        assert len(histogram.bucket_counts) == \
            len(histogram.bounds) + 1

    def test_quantile_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram("lat").percentile(1.5)
        with pytest.raises(ValueError):
            Histogram("lat").percentile(-0.1)

    def test_histogram_single_observation(self):
        histogram = Histogram("lat")
        histogram.observe(0.007)
        # Every quantile of a single observation is that observation.
        for q in (0.0, 0.5, 0.99, 1.0):
            assert histogram.percentile(q) == \
                pytest.approx(0.007, abs=1e-9)

    def test_histogram_q0_q1_clamp_to_min_max(self):
        histogram = Histogram("lat")
        for value in (0.002, 0.04, 0.3):
            histogram.observe(value)
        # Interpolation cannot stray outside the observed range.
        assert histogram.percentile(0.0) == histogram.min == 0.002
        assert histogram.percentile(1.0) == histogram.max == 0.3

    def test_histogram_overflow_single_observation(self):
        histogram = Histogram("lat", buckets=(0.1, 1.0))
        histogram.observe(42.0)
        # Past the last bound, the overflow bucket answers the true
        # max (tracked exactly) rather than an interpolated bound.
        assert histogram.percentile(0.5) == 42.0
        assert histogram.percentile(1.0) == 42.0


class TestExport:
    def _sample_recorder(self):
        recorder = obs.TraceRecorder()
        with recorder.span("root", stage="build"):
            with recorder.span("child", n=2):
                pass
        recorder.metrics.counter("hits").inc(3)
        recorder.metrics.gauge("size").set(9)
        recorder.metrics.histogram("lat").observe(0.25)
        return recorder

    def test_json_round_trip(self):
        recorder = self._sample_recorder()
        text = obs.to_json(recorder)
        spans, metrics = obs.from_json(text)
        assert len(spans) == 1
        root = spans[0]
        assert root.name == "root"
        assert root.attributes == {"stage": "build"}
        assert [c.name for c in root.children] == ["child"]
        assert root.children[0].attributes == {"n": 2}
        original = recorder.roots[0]
        assert root.seconds == pytest.approx(original.seconds)
        assert metrics["counters"]["hits"] == 3
        assert metrics["gauges"]["size"] == 9
        assert metrics["histograms"]["lat"]["count"] == 1

    def test_json_is_valid_and_safe(self):
        recorder = obs.TraceRecorder()
        with recorder.span("r", oid=object()):
            pass
        parsed = json.loads(obs.to_json(recorder))
        assert isinstance(parsed["spans"][0]["attributes"]["oid"], str)

    def test_export_max_depth_prunes(self):
        recorder = obs.TraceRecorder()
        with recorder.span("a"):
            with recorder.span("b"):
                with recorder.span("c"):
                    pass
                with recorder.span("d"):
                    pass
        document = obs.export_state(recorder, max_depth=2)
        root = document["spans"][0]
        assert [c["name"] for c in root["children"]] == ["b"]
        assert root["children"][0]["children"] == []
        assert root["children"][0]["pruned"] == 2
        full = obs.export_state(recorder)
        b = full["spans"][0]["children"][0]
        assert [c["name"] for c in b["children"]] == ["c", "d"]
        assert "pruned" not in b

    def test_render_tree(self):
        recorder = self._sample_recorder()
        tree = obs.render_tree(recorder)
        lines = tree.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")
        assert "stage=build" in lines[0]

    def test_render_tree_empty(self):
        assert "no spans" in obs.render_tree([])

    def test_render_metrics(self):
        recorder = self._sample_recorder()
        text = obs.render_metrics(recorder.metrics)
        assert "hits" in text and "p50" in text

    def test_write_json(self, tmp_path):
        recorder = self._sample_recorder()
        path = tmp_path / "obs.json"
        obs.write_json(recorder, str(path))
        spans, _ = obs.from_json(path.read_text())
        assert spans[0].name == "root"


class TestPipelineIntegration:
    def test_query_engine_emits_spans_and_counters(self):
        graph = parse_ddl(FIG2_DDL, "BIBTEX")
        with obs.recording() as rec:
            result = QueryEngine().evaluate(FIG3_QUERY, graph)
        root = rec.roots[-1]
        assert root.name == "struql.query"
        blocks = [s for s in root.walk() if s.name == "struql.block"]
        assert len(blocks) == len(result.traces)
        # BlockTrace timings ARE the span timings.
        for trace, span in zip(result.traces, blocks):
            assert trace.span is span
            assert trace.seconds == span.seconds
        # Estimated vs actual cardinality on conditioned blocks.
        conditioned = [b for b in blocks
                       if "estimated_rows" in b.attributes]
        assert conditioned
        assert all("actual_rows" in b.attributes for b in conditioned)
        counters = rec.metrics.as_dict()["counters"]
        assert counters["struql.rows_produced"] > 0
        assert counters["struql.rows_scanned"] > 0
        assert counters["repository.index.builds"] >= 1

    def test_index_miss_counter_without_indexing(self):
        graph = parse_ddl(FIG2_DDL, "BIBTEX")
        with obs.recording() as rec:
            QueryEngine(indexing=False).evaluate(
                "input B where Publications(x), x -> \"year\" -> y "
                "create P(y) output O", graph)
        counters = rec.metrics.as_dict()["counters"]
        assert counters["repository.index.misses"] > 0

    def test_mediator_fetch_spans(self):
        from repro.mediator import DataSource, Mediator
        graph = parse_ddl(FIG2_DDL, "BIBTEX")
        mediator = Mediator("data")
        mediator.add_source(DataSource("BIBTEX", lambda: graph))
        mediator.add_mapping("""
            input BIBTEX
            where Publications(x)
            create F(x)
            link F(x) -> "of" -> x
            output data
        """)
        with obs.recording() as rec:
            mediator.warehouse()
        integrate = rec.roots[0]
        assert integrate.name == "mediator.integrate"
        names = [c.name for c in integrate.children]
        assert names == ["mediator.fetch", "mediator.map"]
        assert integrate.children[0].find("source.load") is not None
        counters = rec.metrics.as_dict()["counters"]
        assert counters["mediator.source_loads"] == 1
        assert counters['mediator.builds{kind="warehouse"}'] == 1

    def test_noop_primitives_are_cheap(self):
        """The disabled fast path must stay trivially cheap."""
        recorder = obs.get_recorder()
        assert recorder is NULL_RECORDER
        counter = recorder.metrics.counter("x")
        histogram = recorder.metrics.histogram("y")
        started = time.perf_counter()
        for _ in range(100_000):
            with recorder.span("s", a=1):
                counter.inc()
                histogram.observe(0.1)
        elapsed = time.perf_counter() - started
        # ~3 µs/op budget: two orders of magnitude above observed cost,
        # only guards against the no-op path growing real work.
        assert elapsed < 0.3, f"no-op obs path too slow: {elapsed:.3f}s"

    def test_noop_overhead_on_f2_microloop(self):
        """Bench f2's DDL-parse loop must not regress with obs off."""
        def loop():
            started = time.perf_counter()
            for _ in range(10):
                parse_ddl(FIG2_DDL, "BIBTEX")
            return time.perf_counter() - started

        loop()  # warm up
        baseline = min(loop() for _ in range(3))
        with obs.recording():
            recorded = min(loop() for _ in range(3))
        # Even *with* recording the parse path is untouched; allow a
        # wide margin for CI noise — the real budget is 5%.
        assert recorded < baseline * 1.5 + 0.01


class TestEvents:
    """Events are notes on the span they happened in."""

    def test_emit_captures_span_ids(self):
        with obs.recording() as rec:
            with rec.span("work") as span:
                obs.note("info", "thing.happened", "message here", detail=3)
        [record] = span.notes
        assert record["level"] == "info"
        assert record["name"] == "thing.happened"
        assert record["message"] == "message here"
        assert record["attributes"] == {"detail": 3}
        [flat] = obs.flat_notes(rec.roots)
        assert flat["span"] == "work"
        assert flat["span_id"] == span.span_id > 0
        assert flat["trace_id"] == span.trace_id != ""

    def test_emit_outside_span(self):
        with obs.recording() as rec:
            obs.note("warning", "loose")
        assert rec.roots == [] and obs.flat_notes(rec.roots) == []

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            Span("s").note("shout", "x")

    def test_non_json_attributes_coerced(self):
        span = Span("s").note("info", "e", oid=object())
        assert isinstance(span.notes[0]["attributes"]["oid"], str)
        json.dumps(obs.span_to_dict(span))  # must not raise

    def test_null_log_is_silent(self):
        with NULL_RECORDER.span("x") as span:
            assert span.note("error", "x", k=1) is span
        assert span.notes == []

    def test_disabled_recorder_drops_events(self):
        assert obs.note("info", "ignored") is None
        with obs.timed("real-when-off") as span:
            obs.note("error", "ignored")
        assert span.notes == []

    def test_flat_notes_in_time_order(self):
        with obs.recording() as rec:
            with rec.span("a") as a:
                a.note("info", "first")
                with rec.span("b"):
                    obs.note("info", "second")
            with rec.span("c"):
                obs.note("info", "third")
        assert [n["name"] for n in obs.flat_notes(rec.roots)] == \
            ["first", "second", "third"]
        assert [n["span"] for n in obs.flat_notes(rec.roots)] == \
            ["a", "b", "c"]

    def test_pruned_dump_keeps_deep_note(self):
        with obs.recording() as rec:
            with rec.span("a"):
                with rec.span("b"):
                    with rec.span("c"):
                        with rec.span("d"):
                            obs.note("warning", "deep", "down here", n=4)
        dumped = obs.span_to_dict(rec.roots[0], max_depth=2)
        b = dumped["children"][0]
        assert b["children"] == [] and b["pruned"] == 2
        [record] = b["notes"]
        assert record["name"] == "deep" and record["span"] == "d"
        assert record["level"] == "warning"
        assert record["attributes"] == {"n": 4}
        assert "notes" not in dumped
        [flat] = obs.flat_notes([obs.span_from_dict(dumped)])
        assert flat["span"] == "d" and flat["span_id"] == b["span_id"]

    def test_notes_round_trip_through_json(self):
        with obs.recording() as rec:
            with rec.span("r"):
                with rec.span("inner"):
                    obs.note("error", "broke", "why", code=7)
        spans, _ = obs.from_json(obs.to_json(rec))
        inner = spans[0].children[0]
        assert inner.notes == rec.roots[0].children[0].notes
        assert inner.notes[0]["message"] == "why"
        assert obs.flat_notes(spans)[0]["span_id"] == inner.span_id


class TestTraceIds:
    def test_ids_assigned_and_propagated(self):
        with obs.recording() as rec:
            with rec.span("root") as root:
                with rec.span("child") as child:
                    pass
            with rec.span("other") as other:
                pass
        assert root.span_id and child.span_id and other.span_id
        assert len({root.span_id, child.span_id, other.span_id}) == 3
        assert root.trace_id and root.trace_id == child.trace_id
        assert other.trace_id != root.trace_id

    def test_ids_survive_json_round_trip(self):
        with obs.recording() as rec:
            with rec.span("r"):
                obs.note("info", "evt")
        spans, _ = obs.from_json(obs.to_json(rec))
        assert spans[0].span_id == rec.roots[0].span_id
        assert spans[0].trace_id == rec.roots[0].trace_id
        [record] = obs.flat_notes(spans)
        assert record["trace_id"] == spans[0].trace_id
        assert record["span_id"] == spans[0].span_id


class TestProfile:
    def _spans(self, *specs):
        """Build a span tree from (name, seconds, children) specs."""
        def build(spec):
            name, seconds, children = spec
            span = Span(name, {}, start=0.0, end=seconds)
            span.children = [build(c) for c in children]
            return span
        return [build(s) for s in specs]

    def test_self_and_cumulative(self):
        roots = self._spans(
            ("build", 1.0, [("query", 0.6, [("op", 0.2, [])]),
                            ("render", 0.3, [])]))
        entries = {e.name: e for e in obs.aggregate_profile(roots)}
        assert entries["build"].self_seconds == pytest.approx(0.1)
        assert entries["build"].cum_seconds == pytest.approx(1.0)
        assert entries["query"].self_seconds == pytest.approx(0.4)
        assert entries["query"].cum_seconds == pytest.approx(0.6)
        assert entries["op"].calls == 1
        assert entries["render"].mean_seconds == pytest.approx(0.3)

    def test_recursion_counts_outermost_only(self):
        roots = self._spans(
            ("f", 1.0, [("f", 0.6, [("f", 0.2, [])])]))
        entry = obs.aggregate_profile(roots)[0]
        assert entry.calls == 3
        # Self time sums every level: 0.4 + 0.4 + 0.2.
        assert entry.self_seconds == pytest.approx(1.0)
        # Cumulative counts the outermost occurrence once.
        assert entry.cum_seconds == pytest.approx(1.0)

    def test_sorted_by_self_time(self):
        roots = self._spans(("a", 0.1, []), ("b", 0.9, []))
        assert [e.name for e in obs.aggregate_profile(roots)] == \
            ["b", "a"]

    def test_render_profile_table(self):
        with obs.recording() as rec:
            with rec.span("stage.one"):
                time.sleep(0.001)
        text = obs.render_profile(rec)
        lines = text.splitlines()
        assert "stage" in lines[0] and "self ms" in lines[0]
        assert "stage.one" in text
        assert obs.render_profile([]) == "(no spans recorded)"


class TestPromExport:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("requests.total").inc(5)
        registry.gauge("index.size").set(42)
        hist = registry.histogram("lat")
        for value in (0.0002, 0.003, 0.003, 0.2, 50.0):
            hist.observe(value)
        return registry

    def test_every_instrument_appears(self):
        registry = self._registry()
        text = obs.to_prometheus(registry)
        parsed = obs.parse_prometheus(text)
        names = {name for name, _, _ in parsed["samples"]}
        assert "strudel_requests_total_total" in names
        assert "strudel_index_size" in names
        assert "strudel_lat_sum" in names and "strudel_lat_count" in names
        assert parsed["types"]["strudel_lat"] == "histogram"
        assert parsed["types"]["strudel_requests_total_total"] == "counter"
        assert parsed["types"]["strudel_index_size"] == "gauge"

    def test_bucket_monotonicity_and_count(self):
        registry = self._registry()
        parsed = obs.parse_prometheus(obs.to_prometheus(registry))
        buckets = [(float(labels["le"]) if labels["le"] != "+Inf"
                    else float("inf"), value)
                   for name, labels, value in parsed["samples"]
                   if name == "strudel_lat_bucket"]
        bounds = [b for b, _ in buckets]
        counts = [c for _, c in buckets]
        assert bounds == sorted(bounds)
        assert counts == sorted(counts), "buckets must be cumulative"
        assert bounds[-1] == float("inf")
        hist_count = next(v for n, _, v in parsed["samples"]
                          if n == "strudel_lat_count")
        assert counts[-1] == hist_count == 5
        hist_sum = next(v for n, _, v in parsed["samples"]
                        if n == "strudel_lat_sum")
        assert hist_sum == pytest.approx(50.2062)

    def test_round_trips_from_exported_document(self):
        """as_dict -> JSON -> to_prometheus matches the live registry."""
        registry = self._registry()
        document = json.loads(json.dumps(registry.as_dict()))
        assert obs.to_prometheus(document) == obs.to_prometheus(registry)

    def test_name_sanitization(self):
        registry = MetricsRegistry()
        registry.counter("weird.name-with/chars").inc()
        text = obs.to_prometheus(registry)
        assert "strudel_weird_name_with_chars_total" in text

    def test_empty_registry(self):
        assert obs.to_prometheus(MetricsRegistry()) == ""

    def test_write_prometheus(self, tmp_path):
        path = tmp_path / "metrics.prom"
        obs.write_prometheus(self._registry(), str(path))
        assert path.read_text().endswith("\n")
        obs.parse_prometheus(path.read_text())  # parses cleanly

    def test_constant_labels_on_every_sample(self):
        registry = self._registry()
        text = obs.to_prometheus(registry, labels={"site": "fig2"})
        parsed = obs.parse_prometheus(text)
        for name, labels, _ in parsed["samples"]:
            assert labels["site"] == "fig2", name
        # Histogram buckets keep their le label next to the constant.
        bucket_labels = [labels for name, labels, _ in parsed["samples"]
                         if name == "strudel_lat_bucket"]
        assert bucket_labels and all("le" in ls for ls in bucket_labels)

    def test_label_values_escaped_round_trip(self):
        hostile = 'quote " backslash \\ newline \n done'
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.histogram("h").observe(0.001)
        text = obs.to_prometheus(registry, labels={"path": hostile})
        # The newline was escaped into backslash-n, not emitted raw.
        assert "newline \\n done" in text
        assert "newline \n done" not in text
        parsed = obs.parse_prometheus(text)
        for name, labels, _ in parsed["samples"]:
            assert labels["path"] == hostile, name

    def test_escaped_backslash_n_is_not_a_newline(self):
        """The two-character sequence backslash-n must survive as-is."""
        from repro.obs.metrics import split_series_key
        tricky = "a\\n"  # backslash + n, NOT a newline
        registry = MetricsRegistry()
        registry.gauge("g").set(1)
        text = obs.to_prometheus(registry, labels={"v": tricky})
        assert r'v="a\\n"' in text
        parsed = obs.parse_prometheus(text)
        assert parsed["samples"][0][1]["v"] == tricky
        assert split_series_key('s{a="\\n",b="\\\\n"}') == (
            "s", {"a": "\n", "b": "\\n"})

    def test_labeled_series_share_one_help_and_type(self):
        registry = MetricsRegistry()
        registry.counter("server.errors", kind="not_found").inc(2)
        registry.counter("server.errors", kind="internal").inc()
        registry.gauge("slo.burn_rate", slo="a").set(0.5)
        registry.gauge("slo.burn_rate", slo="b").set(2.0)
        text = obs.to_prometheus(registry, labels={"site": "s"})
        lines = text.splitlines()
        for family in ("strudel_server_errors_total",
                       "strudel_slo_burn_rate"):
            assert lines.count(f"# TYPE {family} "
                               f"{'counter' if 'total' in family else 'gauge'}"
                               ) == 1, text
            assert sum(line.startswith(f"# HELP {family} ")
                       for line in lines) == 1, text
        parsed = obs.parse_prometheus(text)
        samples = {(name, labels.get("kind") or labels.get("slo")): value
                   for name, labels, value in parsed["samples"]}
        assert samples == {
            ("strudel_server_errors_total", "internal"): 1.0,
            ("strudel_server_errors_total", "not_found"): 2.0,
            ("strudel_slo_burn_rate", "a"): 0.5,
            ("strudel_slo_burn_rate", "b"): 2.0,
        }
        assert all(labels["site"] == "s"
                   for _, labels, _ in parsed["samples"])

    def test_series_label_values_round_trip(self):
        hostile = 'say "hi" \\ back\\slash\nnew line'
        registry = MetricsRegistry()
        registry.counter("c", source=hostile).inc(3)
        registry.gauge("g", source=hostile, kind="x").set(1.5)
        document = registry.as_dict()
        assert series_key("c", {"source": hostile}) in \
            document["counters"]
        # Keys are sorted whatever order the labels were given in.
        assert series_key("g", {"source": hostile, "kind": "x"}) == \
            'g{kind="x",source="' + obs.escape_label_value(hostile) + '"}'
        for metrics in (registry, document):
            parsed = obs.parse_prometheus(obs.to_prometheus(metrics))
            assert [(name, labels, value)
                    for name, labels, value in parsed["samples"]] == [
                ("strudel_c_total", {"source": hostile}, 3.0),
                ("strudel_g", {"kind": "x", "source": hostile}, 1.5),
            ]

    def test_escape_helpers(self):
        assert obs.escape_label_value('a"b') == 'a\\"b'
        assert obs.escape_label_value("a\\b") == "a\\\\b"
        assert obs.escape_label_value("a\nb") == "a\\nb"
        assert obs.format_labels(None) == ""
        assert obs.format_labels({}) == ""
        assert obs.format_labels({"a": 1, "b": "x"}) == '{a="1",b="x"}'

"""Query observability: fingerprints, the plan registry, EXPLAIN."""

import pytest

from repro import obs
from repro.graph import Atom, Graph, Oid
from repro.obs.queries import (
    MISESTIMATE_RATIO,
    QueryStatsRegistry,
    explain_document,
    fingerprint,
    get_query_registry,
    misestimate_ratio,
    misestimates_of,
    normalize_query,
    render_explain,
    set_query_registry,
)
from repro.obs.trace import Span
from repro.struql import QueryEngine, parse_query


def _timed(seconds: float) -> Span:
    """A closed span that took ``seconds``."""
    return Span("q", start=0.0, end=seconds)


@pytest.fixture(autouse=True)
def _fresh_state():
    """Each test gets a private registry and a no-op recorder."""
    obs.disable()
    previous = get_query_registry()
    set_query_registry(QueryStatsRegistry())
    yield
    set_query_registry(previous)
    obs.disable()


class TestFingerprint:
    def test_literals_are_masked(self):
        assert normalize_query('x = "alpha",  y =  42') == 'x = "?", y = ?'
        assert normalize_query('x = "beta", y = 3.14') == 'x = "?", y = ?'

    def test_escaped_quote_inside_literal(self):
        assert normalize_query(r'x = "a \" b"') == 'x = "?"'

    def test_literal_type_does_not_collide(self):
        # `x = "1"` (string) and `x = 1` (number) evaluate differently;
        # masking must keep them apart (the quotes carry the type).
        assert normalize_query('where C(x), x = "1"') != \
            normalize_query("where C(x), x = 1")
        assert fingerprint('where C(x), x = "1"') != \
            fingerprint("where C(x), x = 1")
        # Same-type literals still collapse into one fingerprint.
        assert fingerprint('where C(x), x = "1"') == \
            fingerprint('where C(x), x = "2"')
        assert fingerprint("where C(x), x = 1") == \
            fingerprint("where C(x), x = 2")

    def test_same_shape_same_fingerprint(self):
        assert fingerprint('where C(x), x = "a"') == \
            fingerprint('where  C(x),   x = "zz"')
        assert fingerprint('where C(x), x = 1') != \
            fingerprint('where D(x), x = 1')

    def test_parsed_query_uses_source_text(self):
        text = """
            input G
            where Root(x), x -> "a" -> y
            collect Out(y)
            output O
        """
        query = parse_query(text)
        assert fingerprint(query) == fingerprint(text)


class TestRegistry:
    def test_aggregates_per_fingerprint(self):
        registry = QueryStatsRegistry()
        registry.observe("where C(x)", span=_timed(0.010), rows=5,
                         plan="scan", optimizer="cost")
        entry = registry.observe("where  C(x)", span=_timed(0.030), rows=7,
                                 plan="scan", optimizer="cost")
        assert len(registry) == 1
        assert entry.count == 2
        assert entry.rows_total == 12
        assert entry.last_rows == 7
        assert entry.p50_seconds > 0
        assert entry.p95_seconds >= entry.p50_seconds

    def test_lru_bound_and_eviction_counter(self):
        registry = QueryStatsRegistry(max_fingerprints=3)
        for i in range(5):
            registry.observe(f"where C{i}(x)", span=_timed(0.001))
        assert len(registry) == 3
        assert registry.evicted == 2
        assert registry.observed == 5
        # Oldest fingerprints are gone; recent ones survive.
        assert registry.get(fingerprint("where C0(x)")) is None
        assert registry.get(fingerprint("where C4(x)")) is not None

    def test_reobserving_refreshes_lru_position(self):
        registry = QueryStatsRegistry(max_fingerprints=2)
        registry.observe("where A(x)", span=_timed(0.001))
        registry.observe("where B(x)", span=_timed(0.001))
        registry.observe("where A(x)", span=_timed(0.001))  # A is now newest
        registry.observe("where C(x)", span=_timed(0.001))  # evicts B
        assert registry.get(fingerprint("where A(x)")) is not None
        assert registry.get(fingerprint("where B(x)")) is None

    def test_slow_query_event_and_metrics(self):
        span = _timed(0.002)
        with obs.recording() as rec:
            registry = QueryStatsRegistry(slow_seconds=0.0)
            entry = registry.observe("where C(x)", span=span,
                                     rows=3, optimizer="heuristic")
        assert entry.slow == 1
        [record] = span.notes
        assert (record["level"], record["name"]) == \
            ("warning", "struql.slow_query")
        assert record["attributes"] == {"rows": 3, "threshold_s": 0.0}
        metrics = rec.metrics.as_dict()
        assert metrics["counters"]["struql.slow_queries"] == 1
        assert metrics["counters"]["struql.queries_observed"] == 1
        assert metrics["gauges"]["struql.query_fingerprints"] == 1

    def test_fast_query_is_not_slow(self):
        span = _timed(0.001)
        with obs.recording():
            registry = QueryStatsRegistry(slow_seconds=10.0)
            entry = registry.observe("where C(x)", span=span)
        assert entry.slow == 0
        assert span.notes == []

    def test_slow_query_unnoted_while_recording_is_off(self):
        span = _timed(0.002)
        entry = QueryStatsRegistry(slow_seconds=0.0).observe(
            "where C(x)", span=span)
        assert entry.slow == 1
        assert span.notes == []

    def test_snapshot_sorted_and_limited(self):
        registry = QueryStatsRegistry()
        registry.observe("where Fast(x)", span=_timed(0.001))
        registry.observe("where Slow(x)", span=_timed(0.100))
        snap = registry.snapshot()
        assert snap["fingerprints"] == 2
        assert snap["queries"][0]["text"].startswith("where Slow")
        limited = registry.snapshot(limit=1)
        assert len(limited["queries"]) == 1
        assert limited["max_fingerprints"] == registry.max_fingerprints

    def test_clear(self):
        registry = QueryStatsRegistry(max_fingerprints=1)
        registry.observe("where A(x)", span=_timed(0.001))
        registry.observe("where B(x)", span=_timed(0.001))
        registry.clear()
        assert len(registry) == 0
        assert registry.evicted == 0
        assert registry.observed == 0


class TestMisestimateRatio:
    def test_symmetric_and_clamped(self):
        assert misestimate_ratio(None, 100) == 1.0
        assert misestimate_ratio(10, 10) == 1.0
        assert misestimate_ratio(100, 10) == pytest.approx(10.0)
        assert misestimate_ratio(10, 100) == pytest.approx(10.0)
        # Zero rows clamp to one instead of dividing by zero.
        assert misestimate_ratio(50, 0) == pytest.approx(50.0)
        assert misestimate_ratio(0, 0) == 1.0


def _skewed_graph(n: int = 100) -> Graph:
    """Every member of Big carries v=1, defeating the uniform-value
    selectivity guess — a deliberate misestimate factory."""
    graph = Graph("G")
    for i in range(n):
        node = Oid(f"n{i}")
        graph.add_to_collection("Big", node)
        graph.add_edge(node, "v", Atom.int(1))
        graph.add_edge(node, "w", Atom.int(i))
    return graph


MISEST_QUERY = """
    input G
    where Big(x), x -> "v" -> w, w = 1, w != 2
    collect Hit(x)
    output O
"""


class TestEngineIntegration:
    def test_evaluate_feeds_registry(self):
        engine = QueryEngine(optimizer="cost")
        result = engine.evaluate(MISEST_QUERY, _skewed_graph())
        assert result.fingerprint
        assert result.optimizer_name == "cost"
        entry = get_query_registry().get(result.fingerprint)
        assert entry is not None
        assert entry.count == 1
        assert entry.last_rows == result.total_bindings
        assert entry.last_optimizer == "cost"
        assert "member/filter" in entry.last_plan

    def test_misestimate_flagged_and_event_emitted(self):
        engine = QueryEngine(optimizer="cost")
        with obs.recording() as rec:
            result = engine.evaluate(MISEST_QUERY, _skewed_graph())
        flagged = misestimates_of(result)
        assert flagged, "skewed graph should trip the misestimate flag"
        assert all(f["ratio"] > MISESTIMATE_RATIO for f in flagged)
        noted = [span for span in rec.roots[-1].walk() if span.notes]
        assert noted and all(span.name == "struql.block" for span in noted)
        record = noted[0].notes[0]
        assert (record["level"], record["name"]) == \
            ("warning", "struql.misestimate")
        assert record["attributes"]["ratio"] > MISESTIMATE_RATIO
        # Label, estimate and actual rows are the span's own fields.
        assert {"label", "estimated_rows", "actual_rows"} <= \
            set(noted[0].attributes)
        entry = get_query_registry().get(result.fingerprint)
        assert entry.misestimates >= 1

    def test_slow_query_noted_on_query_span(self):
        set_query_registry(QueryStatsRegistry(slow_seconds=0.0))
        with obs.recording() as rec:
            result = QueryEngine().evaluate(MISEST_QUERY, _skewed_graph())
        root = rec.roots[-1]
        assert root.name == "struql.query"
        assert root.attributes["fingerprint"] == result.fingerprint
        assert [n["name"] for n in root.notes] == ["struql.slow_query"]

    def test_explain_analyze_rendering(self):
        engine = QueryEngine(optimizer="cost", decision_trace=True)
        result = engine.evaluate(MISEST_QUERY, _skewed_graph())
        text = result.explain_analyze()
        assert f"fingerprint={result.fingerprint}" in text
        assert "optimizer=cost" in text
        assert "est~" in text and "actual=" in text and "ms" in text
        assert "via " in text            # access path per operator
        assert "decisions:" in text
        assert "misestimates:" in text

    def test_op_profiles_and_access_paths(self):
        engine = QueryEngine(optimizer="cost")
        result = engine.evaluate(MISEST_QUERY, _skewed_graph())
        profiles = [p for t in result.traces for p in t.op_profiles]
        assert profiles
        for profile in profiles:
            assert profile.seconds >= 0
            assert profile.rows_out >= 0
        assert any(p.access_path for p in profiles)
        doc_ops = [p.to_dict() for p in profiles]
        assert {"op", "rows_in", "rows_out", "seconds", "est_rows",
                "access_path", "misestimate"} <= set(doc_ops[0])

    def test_one_timing_record_per_operator(self):
        with obs.recording() as rec:
            result = QueryEngine(optimizer="cost").evaluate(
                MISEST_QUERY, _skewed_graph())
        (root,) = [r for r in rec.roots if r.name == "struql.query"]
        profiles = []
        for trace in result.traces:
            # Each profile's span is a struql.op span under its block.
            ops = [s for s in trace.span.children if s.name == "struql.op"]
            assert len(ops) == len(trace.op_profiles)
            for profile, span in zip(trace.op_profiles, ops):
                assert profile.span is span
                assert profile.seconds == span.seconds
                assert span.attributes["op"] == profile.op
                assert span.attributes["rows_scanned"] == profile.rows_in
                assert span.attributes["rows_produced"] == profile.rows_out
                assert span.attributes["est_rows"] == profile.est_rows
                assert span.attributes["access_path"] == \
                    profile.access_path
            profiles.extend(trace.op_profiles)
        assert profiles
        # The counters are published from the same profiles.
        counters = rec.metrics.as_dict()["counters"]
        for name, field in (("struql.rows_scanned", "rows_in"),
                            ("struql.rows_produced", "rows_out"),
                            ("repository.index.hits", "index_hits"),
                            ("repository.index.misses", "index_misses")):
            assert counters.get(name, 0) == \
                sum(getattr(p, field) for p in profiles), name
        assert counters["repository.index.hits"] > 0
        # The registry's latency is the struql.query span's.
        entry = get_query_registry().get(result.fingerprint)
        assert entry.last_seconds == root.seconds

    def test_explain_document_shape(self):
        engine = QueryEngine(optimizer="cost", decision_trace=True)
        result = engine.evaluate(MISEST_QUERY, _skewed_graph())
        doc = explain_document(result, analyze=True)
        assert doc["analyze"] is True
        assert doc["fingerprint"] == result.fingerprint
        assert doc["blocks"]
        block = doc["blocks"][0]
        assert {"label", "plan", "estimated_rows", "decisions",
                "actual_rows", "seconds", "ops"} <= set(block)
        assert doc["summary"]["total_rows"] == result.total_bindings
        assert doc["misestimates"]

    def test_plan_only_does_not_execute(self):
        engine = QueryEngine(optimizer="cost", decision_trace=True)
        result = engine.plan_only(parse_query(MISEST_QUERY),
                                  _skewed_graph())
        assert result.traces
        for trace in result.traces:
            assert trace.executed is False
            assert trace.binding_rows == 0
            assert trace.estimated_rows is not None
        assert result.output.node_count == 0
        text = render_explain(result, analyze=False)
        assert "est~" in text
        # Plan-only never reports misestimates: nothing actually ran.
        assert misestimates_of(result) == []

    def test_registry_untouched_by_plan_only(self):
        engine = QueryEngine(optimizer="cost")
        engine.plan_only(parse_query(MISEST_QUERY), _skewed_graph())
        assert len(get_query_registry()) == 0

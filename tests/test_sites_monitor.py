"""The dogfooded monitoring dashboard site (repro.sites.monitor)."""

import pytest

from repro import obs
from repro.graph import Oid
from repro.obs.trace import TailSampler, TraceRecorder
from repro.site import DynamicSiteServer
from repro.sites.homepage import FIG3_QUERY, fig2_data, fig7_templates
from repro.sites.monitor import (
    MONITOR_QUERY,
    build_monitor_site,
    monitor_templates,
    telemetry_graph,
)


@pytest.fixture(autouse=True)
def _clean_recorder():
    obs.disable()
    yield
    obs.disable()


@pytest.fixture
def busy_recorder():
    """A recorder with real pipeline telemetry and tail-sampled traces."""
    with obs.recording(TraceRecorder(tail=TailSampler())) as rec:
        server = DynamicSiteServer(FIG3_QUERY, fig2_data(),
                                   fig7_templates())
        server.crawl()
        server.request("missing.html")
    return rec


class TestTelemetryGraph:
    def test_collections_always_declared(self):
        graph = telemetry_graph(obs.TraceRecorder())
        for name in ("Spans", "Traces", "Stages", "Counters", "Gauges",
                     "Histograms", "Events", "Requests", "Summary"):
            assert graph.has_collection(name), name
        assert len(graph.collection("Summary")) == 1

    def test_spans_and_stages_converted(self, busy_recorder):
        recorder = busy_recorder
        graph = telemetry_graph(recorder)
        assert graph.collection("Spans")
        assert graph.collection("Traces")
        stage_names = {
            str(graph.get_one(oid, "name").value)
            for oid in graph.collection("Stages")}
        assert "server.request" in stage_names
        assert graph.collection("Events")
        assert graph.collection("Requests")
        counters = {str(graph.get_one(oid, "name").value)
                    for oid in graph.collection("Counters")}
        assert "server.requests" in counters

    def test_span_budget_respected(self, busy_recorder):
        recorder = busy_recorder
        graph = telemetry_graph(recorder, max_spans=5)
        assert len(graph.collection("Spans")) == 5

    def test_requests_from_tail_sampler(self, busy_recorder):
        graph = telemetry_graph(busy_recorder)
        rows = graph.collection("Requests")
        assert rows
        by_rank = sorted(rows, key=lambda oid: graph.get_one(
            oid, "rank").value)
        ms = [graph.get_one(oid, "ms").value for oid in by_rank]
        assert ms == sorted(ms, reverse=True)
        statuses = {graph.get_one(oid, "status").value for oid in rows}
        assert 200 in statuses
        for oid in rows:
            assert str(graph.get_one(oid, "id").value).startswith("req-")
            assert graph.get_one(oid, "page").value != "-"

    def test_roots_without_server_request_skipped(self):
        recorder = TraceRecorder(tail=TailSampler())
        with recorder.span("site.build"):
            pass
        assert recorder.tail.slowest
        graph = telemetry_graph(recorder)
        assert graph.collection("Requests") == []

    def test_no_tail_no_requests(self, busy_recorder):
        busy_recorder.tail = None
        graph = telemetry_graph(busy_recorder)
        assert graph.collection("Requests") == []


class TestDashboardSite:
    def test_generates_browsable_site(self, busy_recorder, tmp_path):
        recorder = busy_recorder
        site = build_monitor_site(recorder)
        out = tmp_path / "dash"
        out.mkdir()
        pages = site.generate(str(out))
        assert (out / "Dashboard__.html").exists()
        dashboard = (out / "Dashboard__.html").read_text()
        # Overview links every section page.
        for target in ("StageIndex__.html", "TraceIndex__.html",
                       "MetricsPage__.html", "RequestsPage__.html",
                       "EventsPage__.html"):
            assert target in dashboard, target
        # Per-stage drilldowns exist and list spans.
        stage_pages = [p for p in out.iterdir()
                       if p.name.startswith("StagePage_")]
        assert stage_pages
        server_stage = next(p for p in stage_pages
                            if "server_request" in p.name)
        assert "request=req-" in server_stage.read_text()
        # Trace pages embed the recursive span tree.
        trace_pages = [p for p in out.iterdir()
                       if p.name.startswith("TracePage_")]
        assert trace_pages
        # Metrics tables carry real counter values.
        metrics_page = (out / "MetricsPage__.html").read_text()
        assert "server.requests" in metrics_page
        # Slowest requests table has ranked ids.
        requests_page = (out / "RequestsPage__.html").read_text()
        assert "req-" in requests_page
        # 404 warning made it into the event log page.
        events_page = (out / "EventsPage__.html").read_text()
        assert "server.not_found" in events_page
        assert len(pages) > 5

    def test_site_is_query_generated(self):
        """The dashboard comes from a StruQL query, not hand HTML."""
        assert "INPUT TELEMETRY" in MONITOR_QUERY
        assert "OUTPUT MONITOR" in MONITOR_QUERY
        with obs.recording() as rec:
            with rec.span("only"):
                pass
        site = build_monitor_site(rec)
        assert site.site_graph.has_node(Oid.skolem("Dashboard", ()))

    def test_empty_recorder_still_builds(self, tmp_path):
        site = build_monitor_site(obs.TraceRecorder())
        out = tmp_path / "empty"
        out.mkdir()
        site.generate(str(out))
        dashboard = (out / "Dashboard__.html").read_text()
        assert "0 spans" in dashboard
        requests_page = (out / "RequestsPage__.html").read_text()
        assert "No request log attached" in requests_page
        events_page = (out / "EventsPage__.html").read_text()
        assert "No events recorded" in events_page

    def test_templates_cover_every_skolem(self):
        """Every Skolem function the query creates has a template."""
        from repro.struql.parser import parse_query
        templates = monitor_templates()
        created = {term.fn
                   for block in parse_query(MONITOR_QUERY).blocks()
                   for term in block.creates}
        missing = {name for name in created
                   if templates.get(name) is None}
        assert not missing, missing


class TestLiveEndpoints:
    def test_summary_carries_live_links(self, busy_recorder):
        from repro.graph import Atom
        from repro.sites.monitor import LIVE_ENDPOINTS
        recorder = busy_recorder
        graph = telemetry_graph(recorder,
                                live_url="http://127.0.0.1:8080/")
        summary = graph.collection("Summary")[0]
        live = graph.get_one(summary, "live")
        assert isinstance(live, Atom)
        assert live.value == "http://127.0.0.1:8080"  # slash stripped
        endpoints = {str(v.value)
                     for v in graph.get(summary, "endpoint")}
        assert endpoints == {f"http://127.0.0.1:8080{p}"
                             for p in LIVE_ENDPOINTS}

    def test_no_live_url_no_edges(self, busy_recorder):
        recorder = busy_recorder
        graph = telemetry_graph(recorder)
        summary = graph.collection("Summary")[0]
        assert graph.get_one(summary, "live") is None
        assert graph.get(summary, "endpoint") == []

    def test_dashboard_renders_live_section(self, busy_recorder,
                                            tmp_path):
        recorder = busy_recorder
        site = build_monitor_site(recorder,
                                  live_url="http://127.0.0.1:9999")
        out = tmp_path / "live"
        out.mkdir()
        site.generate(str(out))
        dashboard = (out / "Dashboard__.html").read_text()
        assert "Live endpoints" in dashboard
        assert "http://127.0.0.1:9999/metrics" in dashboard
        assert "http://127.0.0.1:9999/readyz" in dashboard

    def test_dashboard_omits_live_section_by_default(self,
                                                     busy_recorder,
                                                     tmp_path):
        recorder = busy_recorder
        site = build_monitor_site(recorder)
        out = tmp_path / "nolive"
        out.mkdir()
        site.generate(str(out))
        assert "Live endpoints" not in \
            (out / "Dashboard__.html").read_text()


class TestQueriesPage:
    @pytest.fixture
    def registry(self):
        from repro.obs.queries import QueryStatsRegistry
        reg = QueryStatsRegistry()
        reg.observe('where Big(x), x = "a"', seconds=0.002, rows=5,
                    plan="member/filter", optimizer="cost")
        reg.observe('where Small(y)', seconds=0.050, rows=2,
                    plan="member", optimizer="heuristic", misestimates=1)
        return reg

    def test_query_nodes_in_graph(self, registry):
        from repro.graph import Atom

        graph = telemetry_graph(obs.TraceRecorder(), queries=registry)
        assert graph.has_collection("Queries")
        rows = graph.collection("Queries")
        assert len(rows) == 2
        # Worst p95 ranks first.
        first = next(r for r in rows
                     if graph.get(r, "rank") == [Atom.int(1)])
        assert graph.get(first, "text") == [Atom.string("where Small(y)")]
        assert graph.get(first, "misestimates") == [Atom.int(1)]
        summary = graph.collection("Summary")[0]
        assert graph.get(summary, "queries") == [Atom.int(2)]

    def test_accepts_snapshot_dict(self, registry):
        graph = telemetry_graph(obs.TraceRecorder(),
                                queries=registry.snapshot())
        assert len(graph.collection("Queries")) == 2

    def test_defaults_to_global_registry(self):
        from repro.obs.queries import (
            QueryStatsRegistry,
            get_query_registry,
            set_query_registry,
        )
        previous = get_query_registry()
        try:
            set_query_registry(QueryStatsRegistry())
            get_query_registry().observe("where C(x)", seconds=0.001)
            graph = telemetry_graph(obs.TraceRecorder())
            assert len(graph.collection("Queries")) == 1
        finally:
            set_query_registry(previous)

    def test_queries_page_rendered(self, registry, tmp_path):
        site = build_monitor_site(obs.TraceRecorder(), queries=registry)
        out = tmp_path / "dash"
        out.mkdir()
        site.generate(str(out))
        dashboard = (out / "Dashboard__.html").read_text()
        assert "QueriesPage__.html" in dashboard
        page = (out / "QueriesPage__.html").read_text()
        assert "Query registry" in page
        assert "where Small(y)" in page
        assert "cost" in page and "heuristic" in page

    def test_empty_registry_renders_placeholder(self, tmp_path):
        from repro.obs.queries import QueryStatsRegistry

        site = build_monitor_site(obs.TraceRecorder(),
                                  queries=QueryStatsRegistry())
        out = tmp_path / "dash"
        out.mkdir()
        site.generate(str(out))
        page = (out / "QueriesPage__.html").read_text()
        assert "No queries observed" in page


class TestAlertsPage:
    """Issue 9: SLO objectives and burn-rate alerts on the dashboard."""

    def _firing_evaluator(self):
        from repro.obs.slo import SLO, BurnRatePair, SLOEvaluator
        recorder = obs.TraceRecorder()
        slo = SLO(name="avail", kind="availability", target=0.99,
                  window_s=8.0, total_metric="req", bad_metric="err")
        pair = BurnRatePair(long_s=8.0, short_s=2.0, factor=10.0,
                            severity="page")
        evaluator = SLOEvaluator(recorder, slos=[slo], step=1.0,
                                 pairs=(pair,), for_ticks=2)
        evaluator.evaluate(now=100.0)
        for now in (101.0, 102.0):
            recorder.metrics.counter("req").inc(20)
            recorder.metrics.counter("err").inc(10)
            evaluator.evaluate(now=now)
        return evaluator

    def test_slo_collections_in_graph(self):
        from repro.graph import Atom
        evaluator = self._firing_evaluator()
        graph = telemetry_graph(obs.TraceRecorder(), slo=evaluator)
        (slo_row,) = graph.collection("Slos")
        assert graph.get(slo_row, "name") == [Atom.string("avail")]
        assert graph.get(slo_row, "status") == [Atom.string("VIOLATED")]
        assert str(graph.get_one(slo_row, "burn").value).endswith("x")
        (alert_row,) = graph.collection("Alerts")
        assert graph.get(alert_row, "name") == \
            [Atom.string("avail:page")]
        assert graph.get(alert_row, "state") == [Atom.string("firing")]
        summary = graph.collection("Summary")[0]
        assert graph.get(summary, "slos") == [Atom.int(1)]
        assert graph.get(summary, "alerts_firing") == [Atom.int(1)]

    def test_accepts_snapshot_dict(self):
        evaluator = self._firing_evaluator()
        graph = telemetry_graph(obs.TraceRecorder(),
                                slo=evaluator.snapshot())
        assert len(graph.collection("Slos")) == 1
        assert len(graph.collection("Alerts")) == 1

    def test_defaults_to_global_evaluator(self):
        from repro.obs.slo import set_slo_evaluator
        evaluator = self._firing_evaluator()
        set_slo_evaluator(evaluator)
        try:
            graph = telemetry_graph(obs.TraceRecorder())
            assert len(graph.collection("Slos")) == 1
        finally:
            set_slo_evaluator(None)

    def test_alerts_page_rendered(self, tmp_path):
        evaluator = self._firing_evaluator()
        site = build_monitor_site(obs.TraceRecorder(), slo=evaluator)
        out = tmp_path / "dash"
        out.mkdir()
        site.generate(str(out))
        dashboard = (out / "Dashboard__.html").read_text()
        assert "AlertsPage__.html" in dashboard
        assert "1 SLOs, 1 alerts firing" in dashboard
        page = (out / "AlertsPage__.html").read_text()
        assert "avail:page" in page
        assert "firing" in page
        assert "VIOLATED" in page
        assert "2s / 8s" in page  # short / long windows

    def test_no_evaluator_renders_placeholder(self, tmp_path):
        from repro.obs.slo import set_slo_evaluator
        set_slo_evaluator(None)
        site = build_monitor_site(obs.TraceRecorder())
        out = tmp_path / "dash"
        out.mkdir()
        site.generate(str(out))
        page = (out / "AlertsPage__.html").read_text()
        assert "No SLO evaluator ran" in page
        dashboard = (out / "Dashboard__.html").read_text()
        assert "alerts firing" not in dashboard


class TestFreshnessPage:
    """PR 8: the dashboard's source-freshness section."""

    def _stamp(self, name="feed.json"):
        from repro.mediator.sources import record_fetch
        record_fetch(name, "graph-json", "cafe1234", nodes=7, edges=9)

    def test_sources_collection_from_fetch_stamps(self):
        from repro.graph import Atom
        self._stamp()
        graph = telemetry_graph(obs.TraceRecorder())
        assert graph.has_collection("Sources")
        rows = graph.collection("Sources")
        # The stamp store is process-global, so other tests may have
        # contributed rows too — ours must be among them.
        row = next(oid for oid in rows
                   if graph.get(oid, "name") ==
                   [Atom.string("feed.json")])
        assert graph.get(row, "kind") == [Atom.string("graph-json")]
        assert graph.get(row, "hash") == [Atom.string("cafe1234")]
        assert graph.get(row, "nodes") == [Atom.int(7)]
        assert graph.get(row, "edges") == [Atom.int(9)]
        summary = graph.collection("Summary")[0]
        assert int(graph.get_one(summary, "sources").value) >= 1

    def test_freshness_page_rendered(self, tmp_path):
        self._stamp()
        site = build_monitor_site(obs.TraceRecorder())
        out = tmp_path / "dash"
        out.mkdir()
        site.generate(str(out))
        dashboard = (out / "Dashboard__.html").read_text()
        assert "FreshnessPage__.html" in dashboard
        assert "tracked sources" in dashboard
        page = (out / "FreshnessPage__.html").read_text()
        assert "feed.json" in page and "graph-json" in page

    def test_stale_pages_counted_with_lineage(self):
        import time

        from repro.graph import Atom, Graph
        from repro.obs.lineage import SourceRecord, lineage_recording
        now = time.time()
        with lineage_recording() as lineage:
            lineage.record_source(SourceRecord(
                source="old-src", kind="loader", fetched_at=now - 5000,
                content_hash="ff", nodes=1, edges=0))
            old_page = Oid.skolem("OldPage", (Oid("o1"),))
            lineage.record_node(old_page, "OldPage",
                                old_page.skolem_args)
            data = Graph("O")
            data.add_node(Oid("o1"))
            lineage.record_source_nodes("old-src", data)
            lineage.record_page("old.html", old_page, "T")
            graph = telemetry_graph(obs.TraceRecorder(), max_age=600.0)
            summary = graph.collection("Summary")[0]
            assert graph.get(summary, "stale_pages") == [Atom.int(1)]
            # The lineage source record surfaces as a Sources row even
            # without a mediator fetch stamp.
            rows = graph.collection("Sources")
            assert any(graph.get(r, "name") ==
                       [Atom.string("old-src")] for r in rows)

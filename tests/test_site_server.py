"""The dynamic page server: click-time rendering, crawling, caching."""

import pytest

from repro.graph import Atom, Oid
from repro.site import DynamicSiteServer
from repro.sites.homepage import FIG3_QUERY, fig7_templates


@pytest.fixture
def server(fig2_graph):
    return DynamicSiteServer(FIG3_QUERY, fig2_graph, fig7_templates())


class TestRequests:
    def test_root_served(self, server):
        root = server.roots()[0]
        response = server.request(root)
        assert response.status == 200
        assert "Publications" in response.body

    def test_request_by_path(self, server):
        response = server.request("RootPage__.html")
        assert response.status == 200

    def test_year_page_contains_presentation(self, server):
        response = server.request(
            Oid.skolem("YearPage", (Atom.int(1997),)))
        assert response.status == 200
        assert "Specifying Representations" in response.body

    def test_unknown_page_404(self, server):
        from repro import obs
        with obs.recording() as rec:
            response = server.request("nope.html")
        assert response.status == 404
        assert rec.metrics.counter("server.errors").value == 1

    def test_latencies_recorded(self, server):
        from repro import obs
        with obs.recording() as rec:
            first = server.request(server.roots()[0])
            second = server.request(server.roots()[0])
        assert rec.metrics.counter("server.requests").value == 2
        latency = rec.metrics.histogram("server.request_seconds")
        assert latency.count == 2
        assert latency.total == pytest.approx(first.seconds + second.seconds)

    def test_seconds_without_recorder(self, server):
        """With obs off each response still carries its span's time."""
        response = server.request(server.roots()[0])
        assert response.seconds > 0

    def test_percentile_latencies(self, server):
        from repro import obs
        with obs.recording() as rec:
            for _ in range(20):
                server.request(server.roots()[0])
        latency = rec.metrics.histogram("server.request_seconds")
        assert latency.percentile(0.50) > 0
        assert latency.percentile(0.95) >= latency.percentile(0.50)
        assert latency.count == 20

    def test_rendered_equals_materialized(self, server, fig4_site,
                                          fig2_graph):
        """Click-time HTML equals build-time HTML for every page."""
        from repro.templates import HtmlGenerator
        static = HtmlGenerator(fig4_site, fig7_templates())
        for page in static.pages():
            dynamic_body = server.request(page).body
            assert dynamic_body == static.render(page), str(page)


class TestCrawl:
    def test_crawl_visits_reachable_pages(self, server):
        responses = server.crawl()
        assert all(r.status == 200 for r in responses)
        # 9 pages: root, abstracts, 2 years, 3 categories, 2 abstracts.
        assert len(responses) == 9

    def test_crawl_limit(self, server):
        responses = server.crawl(limit=3)
        assert len(responses) == 3

    def test_crawl_from_specific_page(self, server):
        year = Oid.skolem("YearPage", (Atom.int(1997),))
        responses = server.crawl(start=year)
        urls = {r.oid for r in responses}
        assert year in urls

    def test_crawl_follows_links_inside_embedded_objects(self):
        """The org site links most pages only from embedded components
        (the person cards that the people index and project pages
        embed link to the person pages), so following a page's own
        out-edges alone misses them."""
        from repro.datagen.org import build_org_mediator
        from repro.site.builder import Website
        from repro.sites.org import ORG_QUERY, org_templates
        data = build_org_mediator(20, 4, 6, seed=1).warehouse()
        pages = Website(data, ORG_QUERY, org_templates()).generator().pages()
        server = DynamicSiteServer(ORG_QUERY, data, org_templates())
        responses = server.crawl()
        assert all(r.status == 200 for r in responses)
        assert len(responses) == len(pages)
        assert {r.oid for r in responses} == set(pages)

    def test_empty_roots(self, fig2_graph):
        server = DynamicSiteServer("""
            input BIBTEX
            where Publications(x)
            create P(x)
            link P(x) -> "of" -> x
            output O
        """, fig2_graph, fig7_templates())
        assert server.crawl() == []


class TestRouting:
    def test_resolve_path_matches_url_for(self, server):
        for page in server.crawl():
            url = server.generator.url_for(page.oid)
            assert server.resolve_path(url) == page.oid
            assert server.resolve_path("/" + url) == page.oid

    def test_resolve_unknown_path(self, server):
        assert server.resolve_path("nope.html") is None

    def test_url_map_tracks_lazy_materialization(self, server):
        root = server.roots()[0]
        root_url = server.generator.url_for(root)
        assert server.resolve_path(root_url) == root
        # Materialize more pages; the map must pick them up.
        year = Oid.skolem("YearPage", (Atom.int(1997),))
        server.request(year)
        assert server.resolve_path(server.generator.url_for(year)) == year

    def test_url_map_survives_invalidate(self, server):
        root = server.roots()[0]
        url = server.generator.url_for(root)
        assert server.resolve_path(url) == root
        server.invalidate()
        assert server.resolve_path(url) == root


class TestStaleness:
    def test_invalidate_refreshes(self, server, fig2_graph):
        before = server.request(server.roots()[0]).body
        pub3 = Oid("pub3")
        fig2_graph.add_to_collection("Publications", pub3)
        fig2_graph.add_edge(pub3, "year", Atom.int(2001))
        fig2_graph.add_edge(pub3, "title", Atom.string("Late Addition"))
        stale = server.request(server.roots()[0]).body
        assert stale == before  # cache serves the stale page
        server.invalidate()
        fresh = server.request(server.roots()[0]).body
        assert "2001" in fresh


class TestRequestRecords:
    """Each served request is recorded once: one span, one latency
    observation, one request count."""

    def test_request_ids_are_stable(self, server):
        first = server.request(server.roots()[0])
        second = server.request(server.roots()[0])
        first_n = int(first.request_id.removeprefix("req-"))
        assert first.request_id == f"req-{first_n}"
        assert second.request_id == f"req-{first_n + 1}"

    def test_one_record_per_request(self, server):
        from repro import obs
        with obs.recording() as rec:
            for _ in range(3):
                server.request(server.roots()[0])
            server.request("nope.html")
        metrics = rec.metrics
        assert metrics.counter("server.requests").value == 4
        assert metrics.histogram("server.request_seconds").count == 4
        assert metrics.counter("server.errors").value == 1
        spans = [root for root in rec.roots if root.name == "server.request"]
        assert len(spans) == 4

    def test_slowest_requests_ranked(self, server):
        from repro import obs
        from repro.obs.trace import TailSampler, TraceRecorder
        recorder = TraceRecorder(tail=TailSampler())
        with obs.recording(recorder):
            responses = server.crawl()
        slowest = recorder.tail.slowest
        assert slowest
        seconds = [root.seconds for root in slowest]
        assert seconds == sorted(seconds, reverse=True)
        ids = {response.request_id for response in responses}
        for root in slowest:
            assert root.attributes["request"] in ids
            assert root.attributes["status"] == 200
            assert root.attributes["page"]

    def test_counts_exact_under_threads(self, server):
        """8 threads x 100 requests: no count, observation or id lost."""
        import sys
        import threading
        from repro import obs
        root = server.roots()[0]
        ids = []

        def worker():
            for _ in range(50):
                ids.append(server.request(root).request_id)
                ids.append(server.request("nope.html").request_id)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with obs.recording() as rec:
                threads = [threading.Thread(target=worker)
                           for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        metrics = rec.metrics
        assert metrics.counter("server.requests").value == 8 * 100
        assert metrics.histogram("server.request_seconds").count == 8 * 100
        assert metrics.counter("server.errors").value == 8 * 50
        assert len(set(ids)) == len(ids) == 8 * 100

    def test_request_events_carry_request_id(self, server):
        from repro import obs
        with obs.recording() as rec:
            server.invalidate()  # fresh caches under the recorder
            response = server.request(server.roots()[0])
        events = [e for e in rec.events.records()
                  if e.name == "server.request"]
        assert events
        assert events[-1].attributes["request"] == response.request_id
        assert events[-1].trace_id
        obs.disable()


class TestRequestIdPassThrough:
    def test_front_end_id_wins(self, server):
        response = server.request(server.roots()[0], request_id="req-77")
        assert response.request_id == "req-77"
        assert response.span.attributes["request"] == "req-77"

    def test_passed_id_reaches_span_and_events(self, server):
        from repro import obs
        with obs.recording() as rec:
            server.invalidate()
            response = server.request(server.roots()[0],
                                      request_id="req-ext")
        assert response.span.attributes["request"] == "req-ext"
        served = [e for e in rec.events.records()
                  if e.name == "server.request"]
        assert served[-1].attributes["request"] == "req-ext"


class TestErrorClassification:
    def test_classify_error(self):
        from repro.errors import PageNotFoundError, SiteError
        from repro.site.server import classify_error
        assert classify_error(PageNotFoundError("x")) == \
            (404, "not_found")
        assert classify_error(SiteError("x")) == (500, "SiteError")
        assert classify_error(ValueError("x")) == (500, "internal")

    def test_render_failure_is_500(self, server, monkeypatch):
        from repro import obs

        def explode(oid):
            raise ValueError("render blew up")

        with obs.recording() as rec:
            server.invalidate()
            monkeypatch.setattr(server.generator, "render", explode)
            response = server.request(server.roots()[0])
        assert response.status == 500
        assert "500 Internal Server Error" in response.body
        assert "internal" in response.body
        assert response.span.attributes["error"] == "internal"
        assert rec.metrics.counter("server.errors").value == 1
        assert rec.metrics.counter("server.errors.internal").value == 1
        errors = [e for e in rec.events.records()
                  if e.name == "server.error"]
        assert errors and errors[-1].attributes["kind"] == "internal"

    def test_404_keeps_not_found_classification(self, server):
        from repro import obs
        with obs.recording() as rec:
            server.invalidate()
            response = server.request("nope.html")
        assert response.status == 404
        assert "error" not in response.span.attributes
        assert rec.metrics.counter(
            "server.errors.not_found").value == 1

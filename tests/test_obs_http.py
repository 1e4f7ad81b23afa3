"""The live telemetry HTTP plane (repro.obs.http) and repro serve."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

import repro
from repro import obs
from repro.obs.http import (
    DEBUG_ENDPOINTS,
    DEBUG_TRACE_DEPTH,
    SERVE_MAX_ROOTS,
    TelemetryHTTPServer,
    serving_recorder,
)
from repro.obs.metrics import family_total
from repro.obs.slo import (
    CanaryProber,
    SLOEvaluator,
    set_slo_evaluator,
)
from repro.obs.trace import (
    TAIL_ERRORS_KEPT,
    TAIL_RECENT_KEPT,
    TAIL_SLOWEST_KEPT,
    Span,
    TailSampler,
    TraceRecorder,
)
from repro.site import DynamicSiteServer
from repro.sites.homepage import (
    FIG2_DDL,
    FIG3_QUERY,
    fig2_data,
    fig7_templates,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _clean_recorder():
    obs.disable()
    yield
    obs.disable()


def _span(name, seconds, **attrs):
    span = Span(name, dict(attrs), start=0.0, end=seconds)
    return span


class TestTailSampler:
    def test_recent_ring_bounded_oldest_first(self):
        tail = TailSampler(recent=3)
        for i in range(5):
            tail.offer(_span(f"t{i}", 0.001))
        assert [s.name for s in tail.recent] == ["t2", "t3", "t4"]
        assert tail.offered == 5

    def test_slowest_survive_newer_faster_traces(self):
        tail = TailSampler(slow=2)
        tail.offer(_span("slow", 9.0))
        tail.offer(_span("slower", 10.0))
        for i in range(20):
            tail.offer(_span(f"fast{i}", 0.001))
        assert [s.name for s in tail.slowest] == ["slower", "slow"]

    def test_error_traces_kept(self):
        tail = TailSampler(errors=2)
        tail.offer(_span("ok", 0.001, status=200))
        child_fail = _span("parent", 0.002)
        child_fail.children.append(_span("child", 0.001, error="boom"))
        tail.offer(child_fail)
        tail.offer(_span("5xx", 0.001, status=503))
        assert [s.name for s in tail.errors] == ["parent", "5xx"]

    def test_is_error_trace(self):
        assert not TailSampler.is_error_trace(_span("ok", 0, status=200))
        assert TailSampler.is_error_trace(_span("e", 0, error="x"))
        assert TailSampler.is_error_trace(_span("s", 0, status=500))
        # Non-integer status attributes never classify as errors.
        assert not TailSampler.is_error_trace(_span("s", 0, status="bad"))
        assert not TailSampler.is_error_trace(
            _span("n", 0).note("info", "fine"))
        assert TailSampler.is_error_trace(
            _span("n", 0).note("warning", "odd"))

    def test_warning_noted_trace_survives_recent_turnover(self):
        tail = TailSampler()
        parent = _span("parent", 0.001)
        parent.children.append(
            _span("child", 0.001).note("warning", "struql.slow_query"))
        tail.offer(parent)
        for i in range(TAIL_RECENT_KEPT):
            tail.offer(_span(f"t{i}", 0.001, status=200))
        assert parent not in tail.recent
        assert tail.errors == [parent]

    def test_clear(self):
        tail = TailSampler()
        tail.offer(_span("a", 1.0, error="x"))
        tail.clear()
        assert tail.recent == [] and tail.slowest == []
        assert tail.errors == [] and tail.offered == 0

    def test_default_bounds(self):
        tail = TailSampler()
        for i in range(TAIL_RECENT_KEPT * 2):
            tail.offer(_span(f"t{i}", 0.001, error="x"))
        assert len(tail.recent) == TAIL_RECENT_KEPT
        assert len(tail.slowest) == TAIL_SLOWEST_KEPT
        assert len(tail.errors) == TAIL_ERRORS_KEPT


class TestServingRecorder:
    def test_roots_bounded_with_tail(self):
        recorder = serving_recorder()
        assert isinstance(recorder.tail, TailSampler)
        for i in range(SERVE_MAX_ROOTS + 10):
            with recorder.span(f"r{i}"):
                pass
        assert len(recorder.roots) == SERVE_MAX_ROOTS
        assert recorder.roots_dropped == 10
        assert recorder.tail.offered == SERVE_MAX_ROOTS + 10

    def test_completed_traces_offered_to_tail(self):
        recorder = TraceRecorder(tail=TailSampler())
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        # Only the completed *root* is offered, once.
        assert recorder.tail.offered == 1
        assert recorder.tail.recent[0].name == "outer"


def _get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, dict(resp.headers), resp.read().decode()


@pytest.fixture
def plane():
    """A ready TelemetryHTTPServer over the Fig 2/3 site, torn down."""
    recorder = obs.enable(serving_recorder())
    site = DynamicSiteServer(FIG3_QUERY, fig2_data(), fig7_templates())
    server = TelemetryHTTPServer(recorder, port=0, access_log=False)
    server.start_background()
    try:
        server.mount(site)
        site.warm()
        server.set_ready()
        yield server
    finally:
        server.request_shutdown()
        thread = server._serve_thread
        if thread is not None:
            thread.join(10)
        server.server_close()
        obs.disable()


class TestEndpoints:
    def test_healthz_before_ready(self):
        recorder = obs.enable(serving_recorder())
        server = TelemetryHTTPServer(recorder, port=0, access_log=False)
        server.start_background()
        try:
            status, _, body = _get(server.url + "/healthz")
            assert status == 200
            # First line stays "ok" (probe compatibility); the body
            # now also reports uptime, version and SLO state.
            lines = body.splitlines()
            assert lines[0] == "ok"
            assert lines[1].startswith("uptime_seconds: ")
            assert lines[2] == f"version: {repro.__version__}"
            assert lines[3].startswith("slo: ")
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/readyz")
            assert err.value.code == 503
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/RootPage__.html")
            assert err.value.code == 503
        finally:
            server.request_shutdown()
            server._serve_thread.join(10)
            server.server_close()

    def test_readyz_flips_after_warm(self, plane):
        status, _, body = _get(plane.url + "/readyz")
        assert (status, body) == (200, "ready\n")

    def test_root_page_served_with_request_id(self, plane):
        status, headers, body = _get(plane.url + "/")
        assert status == 200
        assert "Publications" in body
        assert headers["X-Request-Id"].startswith("req-")
        assert headers["Content-Type"].startswith("text/html")

    def test_named_page_served(self, plane):
        status, _, body = _get(plane.url + "/RootPage__.html")
        assert status == 200 and "Publications" in body

    def test_unknown_page_404(self, plane):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(plane.url + "/nope.html")
        assert err.value.code == 404

    def test_unknown_debug_endpoint_404(self, plane):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(plane.url + "/debug/nope")
        assert err.value.code == 404
        # The 404 body points at what does exist.
        body = err.value.read().decode()
        assert "/debug/traces" in body and "/debug/slo" in body

    def test_debug_index_text_and_json(self, plane):
        for path in ("/debug", "/debug/"):
            status, _, body = _get(plane.url + path)
            assert status == 200
            for endpoint in DEBUG_ENDPOINTS:
                assert endpoint in body
        status, _, body = _get(plane.url + "/debug/?format=json")
        document = json.loads(body)
        assert set(document["endpoints"]) == set(DEBUG_ENDPOINTS)

    def test_slo_endpoints_without_evaluator(self, plane):
        for path in ("/debug/slo", "/debug/alerts"):
            status, _, body = _get(plane.url + path)
            assert status == 200
            assert json.loads(body) == {"enabled": False}

    def test_slo_and_alerts_endpoints_with_evaluator(self, plane):
        evaluator = SLOEvaluator(plane.recorder, step=0.05)
        plane.slo_evaluator = evaluator
        canary = CanaryProber(plane.site_server, interval=60.0,
                              evaluator=evaluator)
        plane.canary = canary
        canary.probe()
        time.sleep(0.06)
        canary.probe()

        status, _, body = _get(plane.url + "/debug/slo")
        document = json.loads(body)
        assert document["enabled"] and document["ticks"] >= 2
        names = {entry["name"] for entry in document["slos"]}
        assert "canary-latency" in names and "server-latency" in names

        status, _, body = _get(plane.url + "/debug/alerts")
        document = json.loads(body)
        assert document["enabled"] and document["firing"] == 0
        assert document["canary"]["probes"] == 2
        states = {alert["state"] for alert in document["alerts"]}
        assert states == {"ok"}

    def test_healthz_reports_worst_burning_slo(self, plane):
        evaluator = SLOEvaluator(plane.recorder, step=0.05)
        plane.slo_evaluator = evaluator
        evaluator.evaluate(now=100.0)
        plane.site_server.request("RootPage__.html")
        evaluator.evaluate(now=100.1)
        _, _, body = _get(plane.url + "/healthz")
        assert "slo: worst burn " in body

    def test_metrics_parseable_and_counting(self, plane):
        _get(plane.url + "/")
        _, headers, text = _get(plane.url + "/metrics")
        assert headers["Content-Type"].startswith("text/plain")
        parsed = obs.parse_prometheus(text)
        requests = next(v for n, _, v in parsed["samples"]
                        if n == "strudel_http_requests_total")
        assert requests >= 1
        names = {n for n, _, _ in parsed["samples"]}
        assert "strudel_server_request_seconds_count" in names

    def test_debug_traces_correlate_request_id(self, plane):
        _, headers, _ = _get(plane.url + "/")
        request_id = headers["X-Request-Id"]
        _, _, text = _get(plane.url + "/debug/traces")
        doc = json.loads(text)
        assert doc["offered"] >= 1
        ids = {root["attributes"].get("request")
               for root in doc["recent"]}
        assert request_id in ids
        # The page request's whole tree hangs under one http.request
        # root (warm-up traces appear as separate roots alongside).
        assert any(root["name"] == "http.request"
                   and root["attributes"].get("request") == request_id
                   for root in doc["recent"])

    def test_debug_traces_depth_param(self, plane):
        _get(plane.url + "/")
        _, _, text = _get(plane.url + "/debug/traces?depth=1")
        doc = json.loads(text)
        page_roots = [r for r in doc["recent"]
                      if r["attributes"].get("path") == "/"]
        assert page_roots and all(r["children"] == []
                                  for r in page_roots)

    def test_debug_events_correlate_request_id(self, plane):
        """One request id on the plane's span and the site's span."""
        _, headers, _ = _get(plane.url + "/")
        request_id = headers["X-Request-Id"]
        _, _, text = _get(plane.url + "/debug/traces?depth=0")
        [root] = [r for r in json.loads(text)["recent"]
                  if r["attributes"].get("request") == request_id]
        assert root["name"] == "http.request"
        [served] = [c for c in root["children"]
                    if c["name"] == "server.request"]
        assert served["attributes"]["request"] == request_id
        assert served["trace_id"] == root["trace_id"]

    def test_debug_events_level_and_limit(self, plane):
        """The event log's endpoint is gone; traces carry the notes."""
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(plane.url + "/debug/events?level=warning&limit=1")
        assert err.value.code == 404
        assert "/debug/events" not in DEBUG_ENDPOINTS
        _, _, index = _get(plane.url + "/debug/")
        assert "/debug/events" not in index

    def test_debug_profile(self, plane):
        _get(plane.url + "/")
        _, _, text = _get(plane.url + "/debug/profile")
        entries = json.loads(text)
        names = {e["name"] for e in entries}
        assert "http.request" in names and "server.request" in names
        for entry in entries:
            assert entry["calls"] >= 1
            assert entry["cum_seconds"] >= entry["self_seconds"] >= 0

    def test_internal_route_error_is_500(self, plane):
        plane.mount(None)  # readiness stays set: _page now crashes...
        plane.site_server = _Exploder()
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(plane.url + "/")
        assert err.value.code == 500
        errors = plane.recorder.metrics.counter("http.errors").value
        assert errors == 1
        _, _, text = _get(plane.url + "/debug/traces")
        errors = json.loads(text)["errors"]
        assert errors, "error trace tail-sampled"
        [failed] = [r for r in errors if r["name"] == "http.request"]
        assert failed["attributes"]["error"] == "RuntimeError"
        [record] = failed["notes"]
        assert (record["level"], record["name"], record["message"]) == \
            ("error", "http.error", "boom")


def _served_total(path) -> float:
    """``strudel_server_requests_total`` from a flushed metrics.prom."""
    with open(path, encoding="utf-8") as handle:
        parsed = obs.parse_prometheus(handle.read())
    return next(v for n, _, v in parsed["samples"]
                if n == "strudel_server_requests_total")


class TestRequestIds:
    def test_plane_and_canary_ids_differ(self, plane):
        """The HTTP plane and the canary mint from one counter."""
        _get(plane.url + "/")
        CanaryProber(plane.site_server).probe()
        ids = [span.attributes["request"]
               for root in plane.recorder.roots
               if root.name in ("http.request", "canary.probe")
               for span in root.walk() if span.name == "server.request"]
        assert len(ids) == 2
        assert ids[0] != ids[1]


class _Exploder:
    def roots(self):
        raise RuntimeError("boom")


class TestSnapshot:
    def test_write_snapshot_files(self, plane, tmp_path):
        _get(plane.url + "/")
        paths = plane.write_snapshot(str(tmp_path / "snap"))
        assert set(paths) == {"metrics", "snapshot"}
        assert os.path.isfile(paths["metrics"])
        assert os.path.isfile(paths["snapshot"])
        assert not (tmp_path / "snap" / "events.jsonl").exists()
        obs.parse_prometheus(
            open(paths["metrics"], encoding="utf-8").read())
        with open(paths["snapshot"], encoding="utf-8") as handle:
            doc = json.load(handle)
        assert doc["uptime_seconds"] > 0
        assert "server" not in doc
        assert _served_total(paths["metrics"]) >= 1
        assert doc["traces"]["offered"] >= 1
        assert any(e["name"] == "http.request" for e in doc["profile"])


class TestConcurrency:
    THREADS = 8
    PER_THREAD = 50

    def test_no_lost_updates_under_load(self, plane):
        """8 threads x 50 requests: every counter lands exactly once."""
        page_fetches = 0
        metrics_bodies = []
        failures = []

        def worker(index):
            for i in range(self.PER_THREAD):
                try:
                    if i % 2:
                        _, _, text = _get(plane.url + "/metrics")
                        if index == 0 and i == self.PER_THREAD // 2:
                            metrics_bodies.append(text)
                    else:
                        _get(plane.url + "/")
                except Exception as exc:  # pragma: no cover - diagnostic
                    failures.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not failures
        total = self.THREADS * self.PER_THREAD
        page_fetches = self.THREADS * (self.PER_THREAD -
                                       self.PER_THREAD // 2)
        metrics = plane.recorder.metrics
        assert metrics.counter("http.requests").value == total
        assert metrics.counter("server.requests").value == page_fetches
        assert metrics.histogram(
            "server.request_seconds").count == page_fetches
        assert family_total(metrics.as_dict()["counters"],
                                "server.errors") is None
        # A mid-load exposition parsed cleanly.
        assert metrics_bodies
        obs.parse_prometheus(metrics_bodies[0])
        # And the final one accounts every request exactly.
        _, _, text = _get(plane.url + "/metrics")
        parsed = obs.parse_prometheus(text)
        served = next(v for n, _, v in parsed["samples"]
                      if n == "strudel_server_requests_total")
        assert served == page_fetches


class TestServeCLI:
    """End-to-end: repro serve as a real subprocess over real HTTP."""

    def _workspace(self, tmp_path):
        (tmp_path / "pubs.ddl").write_text(FIG2_DDL)
        (tmp_path / "site.struql").write_text(FIG3_QUERY)
        templates_dir = tmp_path / "templates"
        templates_dir.mkdir()
        templates = fig7_templates()
        for name in templates.names():
            suffix = ".tmpl" if templates.is_page_template(name) \
                else ".component.tmpl"
            (templates_dir / f"{name}{suffix}").write_text(
                templates.get(name).source)
        return tmp_path

    def test_serve_integration(self, tmp_path):
        workspace = self._workspace(tmp_path)
        snap = tmp_path / "snap"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--snapshot-dir", str(snap), "build",
             "--data", str(workspace / "pubs.ddl"),
             "--query", str(workspace / "site.struql"),
             "--templates", str(workspace / "templates")],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env, cwd=str(tmp_path))
        try:
            banner = proc.stdout.readline().strip()
            assert banner.startswith("serving on http://")
            base = banner.split("serving on ", 1)[1]

            deadline = time.time() + 30
            ready = False
            while time.time() < deadline:
                try:
                    status, _, _ = _get(base + "/readyz", timeout=2)
                    if status == 200:
                        ready = True
                        break
                except (urllib.error.HTTPError, urllib.error.URLError,
                        OSError):
                    pass
                time.sleep(0.1)
            assert ready, "server never became ready"

            status, _, _ = _get(base + "/healthz")
            assert status == 200
            status, headers, body = _get(base + "/")
            assert status == 200 and "Publications" in body
            request_id = headers["X-Request-Id"]

            _, _, metrics_text = _get(base + "/metrics")
            parsed = obs.parse_prometheus(metrics_text)
            assert any(n == "strudel_http_requests_total"
                       for n, _, _ in parsed["samples"])

            _, _, traces_text = _get(base + "/debug/traces")
            traces = json.loads(traces_text)
            ids = {root["attributes"].get("request")
                   for root in traces["recent"]}
            assert request_id in ids

            with pytest.raises(urllib.error.HTTPError) as err:
                _get(base + "/debug/events")
            assert err.value.code == 404
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(10)
            proc.stdout.close()
        assert proc.returncode == 0
        # Graceful shutdown flushed the final snapshot.
        assert (snap / "metrics.prom").is_file()
        assert not (snap / "events.jsonl").exists()
        assert (snap / "snapshot.json").is_file()
        assert _served_total(snap / "metrics.prom") >= 1


class TestDebugQueries:
    @pytest.fixture(autouse=True)
    def _fresh_registry(self):
        from repro.obs.queries import (
            QueryStatsRegistry,
            get_query_registry,
            set_query_registry,
        )
        previous = get_query_registry()
        set_query_registry(QueryStatsRegistry())
        yield
        set_query_registry(previous)

    def test_debug_queries_snapshot(self, plane):
        from repro.obs.queries import fingerprint

        # Warming the mounted site computed its root pages, and each
        # click-time compute is observed under the site query's
        # fingerprint.
        status, headers, text = _get(plane.url + "/debug/queries")
        assert status == 200
        snapshot = json.loads(text)
        assert {"fingerprints", "observed", "evicted", "max_fingerprints",
                "slow_seconds", "queries"} <= set(snapshot)
        assert snapshot["fingerprints"] >= 1
        fps = {entry["fingerprint"] for entry in snapshot["queries"]}
        assert fingerprint(FIG3_QUERY) in fps
        entry = snapshot["queries"][0]
        assert {"fingerprint", "text", "count", "p50_s", "p95_s",
                "last_plan"} <= set(entry)
        assert entry["p50_s"] > 0

    def test_debug_queries_limit_param(self, plane):
        from repro.obs.queries import get_query_registry
        for i in range(3):
            get_query_registry().observe(
                f"where C{i}(x)", span=_span("q", 0.001))
        _, _, text = _get(plane.url + "/debug/queries?limit=2")
        snapshot = json.loads(text)
        assert len(snapshot["queries"]) == 2
        assert snapshot["fingerprints"] >= 3  # population unaffected

    def test_debug_endpoints_json_content_type(self, plane):
        for path in ("/debug/traces", "/debug/profile",
                     "/debug/queries"):
            _, headers, _ = _get(plane.url + path)
            assert headers["Content-Type"] == \
                "application/json; charset=utf-8", path

    def test_snapshot_document_includes_queries(self, plane, tmp_path):
        paths = plane.write_snapshot(str(tmp_path / "snap"))
        document = json.loads(
            open(paths["snapshot"], encoding="utf-8").read())
        assert "queries" in document
        assert document["queries"]["fingerprints"] >= 1


@pytest.fixture
def lineage_plane():
    """The telemetry plane with lineage recording on (serve mode)."""
    from repro.obs.lineage import lineage_recording
    with lineage_recording():
        recorder = obs.enable(serving_recorder())
        site = DynamicSiteServer(FIG3_QUERY, fig2_data(),
                                 fig7_templates())
        server = TelemetryHTTPServer(recorder, port=0, access_log=False,
                                     max_age=3600.0)
        server.start_background()
        try:
            server.mount(site)
            site.warm()
            server.set_ready()
            yield server
        finally:
            server.request_shutdown()
            thread = server._serve_thread
            if thread is not None:
                thread.join(10)
            server.server_close()
            obs.disable()


class TestDebugLineage:
    def test_disabled_summary(self, plane):
        status, _, text = _get(plane.url + "/debug/lineage")
        assert status == 200
        assert json.loads(text) == {"enabled": False}

    def test_enabled_summary(self, lineage_plane):
        _get(lineage_plane.url + "/")  # pages join as they are served
        _, _, text = _get(lineage_plane.url + "/debug/lineage")
        doc = json.loads(text)
        assert doc["enabled"] is True
        assert doc["nodes"] > 0 and doc["pages"] > 0
        assert doc["max_age_seconds"] == 3600.0
        assert "source_records" in doc

    def test_served_page_resolves(self, lineage_plane):
        _get(lineage_plane.url + "/")
        _, _, text = _get(lineage_plane.url +
                          "/debug/lineage?page=RootPage__.html")
        doc = json.loads(text)
        assert doc["derivation"]["fn"] == "RootPage"
        assert doc["template"] == "RootPage"
        assert doc["url"] == "RootPage__.html"

    def test_page_reads_are_the_response_reads(self, lineage_plane):
        # The why-tree lists the same read set the body view keeps.
        response = lineage_plane.site_server.request("YearPage_1997_.html")
        assert response.status == 200
        _, _, text = _get(lineage_plane.url +
                          "/debug/lineage?page=YearPage_1997_.html")
        doc = json.loads(text)
        assert doc["reads"] == sorted(oid.name for oid in response.reads)
        assert doc["oid"] in doc["reads"]

    def test_unvisited_page_materialized_on_demand(self, lineage_plane):
        # Click-time pages that no visitor has requested yet are
        # resolved and materialized by the endpoint itself.
        _, _, text = _get(lineage_plane.url +
                          "/debug/lineage?page=YearPage_1997_.html")
        doc = json.loads(text)
        assert doc["derivation"]["fn"] == "YearPage"

    def test_unvisited_page_by_oid_name(self, lineage_plane):
        # ?page= takes an oid display name as well as a URL; the page
        # is known to the site graph after warm() but not yet served.
        target = urllib.parse.quote("YearPage(1997)")
        _, _, text = _get(lineage_plane.url +
                          f"/debug/lineage?page={target}")
        doc = json.loads(text)
        assert doc["derivation"]["fn"] == "YearPage"
        assert doc["url"] == "YearPage_1997_.html"

    def test_unknown_page_404(self, lineage_plane):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(lineage_plane.url + "/debug/lineage?page=nope.html")
        assert err.value.code == 404

    def test_metrics_carry_freshness_gauges(self, lineage_plane):
        _, _, text = _get(lineage_plane.url + "/metrics")
        names = {n for n, _, _ in obs.parse_prometheus(text)["samples"]}
        assert "strudel_lineage_sources" in names, sorted(
            n for n in names if "lineage" in n)
        assert "strudel_lineage_pages_stale_total" in names

    def test_snapshot_document_includes_lineage(self, lineage_plane,
                                                tmp_path):
        paths = lineage_plane.write_snapshot(str(tmp_path / "snap"))
        document = json.loads(
            open(paths["snapshot"], encoding="utf-8").read())
        assert document["lineage"]["enabled"] is True
        assert "sources" in document


class TestDebugMatviews:
    def test_endpoint_reports_registry_state(self, plane):
        _get(plane.url + "/")  # one served page -> one body view
        _get(plane.url + "/")  # and one hit
        status, headers, text = _get(plane.url + "/debug/matviews")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        doc = json.loads(text)
        assert doc["enabled"] is True
        assert doc["views"] >= 1
        assert doc["hits"] >= 1 and doc["misses"] >= 1
        top = doc["top"][0]
        assert "key" in top and "reads" in top and "hits" in top

    def test_limit_parameter_caps_top(self, plane):
        for path in ("/", "/YearPage_1997_.html",
                     "/YearPage_1998_.html"):
            _get(plane.url + path)
        _, _, text = _get(plane.url + "/debug/matviews?limit=1")
        doc = json.loads(text)
        assert doc["views"] >= 2
        assert len(doc["top"]) == 1

    def test_unmounted_plane_reports_disabled(self):
        recorder = obs.enable(serving_recorder())
        server = TelemetryHTTPServer(recorder, port=0, access_log=False)
        server.start_background()
        try:
            server.set_ready()
            _, _, text = _get(server.url + "/debug/matviews")
            assert json.loads(text) == {"enabled": False}
        finally:
            server.request_shutdown()
            server._serve_thread.join(10)
            server.server_close()
            obs.disable()

    def test_snapshot_document_includes_matviews(self, plane, tmp_path):
        _get(plane.url + "/")
        paths = plane.write_snapshot(str(tmp_path / "snap"))
        document = json.loads(
            open(paths["snapshot"], encoding="utf-8").read())
        assert document["matviews"]["enabled"] is True
        assert document["matviews"]["views"] >= 1

    def test_counters_reach_metrics_endpoint(self, plane):
        _get(plane.url + "/")
        _get(plane.url + "/")
        _, _, text = _get(plane.url + "/metrics")
        names = {n for n, _, _ in obs.parse_prometheus(text)["samples"]}
        assert "strudel_matview_hits_total" in names, sorted(
            n for n in names if "matview" in n)
        assert "strudel_matview_misses_total" in names

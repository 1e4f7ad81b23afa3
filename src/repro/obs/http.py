"""The live telemetry HTTP plane: serving pages and state side by side.

The paper's dynamic-evaluation mode (§5) computes pages at click time;
:class:`~repro.site.server.DynamicSiteServer` does that in-process, and
this module puts a real socket in front of it.  A
:class:`TelemetryHTTPServer` is a threaded stdlib HTTP server that
answers two kinds of traffic on one port:

* **site traffic** — any other ``GET`` path is resolved against the
  mounted site server and rendered at click time;
* **the telemetry plane** — the live state of the process, the way a
  production service exposes itself while running rather than as
  post-hoc dumps:

  ============== =====================================================
  path            payload
  ============== =====================================================
  ``/metrics``    Prometheus text exposition of the recorder's
                  registry (scrape-ready)
  ``/healthz``    liveness — 200 as soon as the socket answers
  ``/readyz``     readiness — 503 until the data graph and site query
                  are loaded and warmed, 200 after
  ``/debug/traces``   the tail sampler's recent / slowest / error
                  traces as JSON span trees
  ``/debug/events``   the most recent structured events (filter with
                  ``?level=`` and ``?name=``)
  ``/debug/profile``  the per-stage hotspot profile
  ``/debug/queries``  the bounded query plan registry: per-fingerprint
                  counts, p50/p95 latency, rows, last plan
  ``/debug/lineage``  provenance: the backward derivation tree for
                  ``?page=<url|oid>``, or an index summary without it
  ``/debug/matviews`` the materialized-view registry: hit/miss/
                  invalidation counters and per-view read sets
  ``/debug/slo``  every service-level objective with its windowed
                  compliance, burn rate and remaining error budget
  ``/debug/alerts``   the burn-rate alert rules and their
                  pending/firing state (plus the canary's stats)
  ``/debug/``     an index of the debug endpoints above (text, or
                  JSON with ``?format=json``)
  ============== =====================================================

Every request gets a ``req-N`` id stamped into its span attributes,
its events, an access-log line on stderr, and the ``X-Request-Id``
response header, so one request correlates across every signal.
``SIGINT``/``SIGTERM`` trigger graceful shutdown: the accept loop
stops, in-flight requests drain (non-daemon handler threads are joined
by ``server_close``), and a final metrics/events snapshot is written to
disk.  ``repro serve <command> --port N`` is the CLI front end.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.obs.export import span_to_dict
from repro.obs.lineage import get_lineage, update_freshness_gauges
from repro.obs.promexport import to_prometheus, write_prometheus
from repro.obs.queries import get_query_registry
from repro.obs.slo import get_slo_evaluator
from repro.obs.trace import (
    NullRecorder,
    TailSampler,
    TraceRecorder,
    aggregate_profile,
    next_request_id,
)

#: Content types served by the plane.
CONTENT_TEXT = "text/plain; charset=utf-8"
CONTENT_HTML = "text/html; charset=utf-8"
CONTENT_JSON = "application/json; charset=utf-8"
CONTENT_PROM = "text/plain; version=0.0.4; charset=utf-8"

#: Root-span bound for a serving recorder: one ``http.request`` root
#: accumulates per request, so a long-running server must evict — the
#: tail sampler keeps the traces worth keeping past this window.
SERVE_MAX_ROOTS = 256

#: Default depth to which ``/debug/traces`` serializes span trees
#: (override per-request with ``?depth=N``; ``0`` means unlimited).
DEBUG_TRACE_DEPTH = 4

#: Default number of events ``/debug/events`` returns, newest last
#: (override with ``?limit=N``).
DEBUG_EVENT_LIMIT = 200

#: Default number of fingerprints ``/debug/queries`` returns, slowest
#: (by p95) first (override with ``?limit=N``).
DEBUG_QUERY_LIMIT = 50

#: The discoverable debug surface: path -> one-line description.
#: ``/debug/`` renders this as an index, and unknown ``/debug/*``
#: paths list it in their 404 body.
DEBUG_ENDPOINTS: dict[str, str] = {
    "/debug/traces": ("tail-sampled recent / slowest / error traces "
                      "(?depth=N)"),
    "/debug/events": ("recent structured events "
                      "(?level=&name=&limit=N)"),
    "/debug/profile": "per-stage hotspot profile (?limit=N)",
    "/debug/queries": ("query plan registry: counts, p50/p95, "
                       "last plan (?limit=N)"),
    "/debug/lineage": ("page provenance (?page=<url|oid>), or a "
                       "source-freshness summary"),
    "/debug/matviews": ("materialized-view registry: hit/miss/"
                        "invalidation counters and per-view read sets "
                        "(?limit=N)"),
    "/debug/slo": ("service-level objectives: compliance, burn rate, "
                   "error budget"),
    "/debug/alerts": "burn-rate alert rules and their firing state",
}


def serving_recorder(name: str = "serve") -> TraceRecorder:
    """A recorder configured for a long-running server: bounded roots
    plus a tail sampler so slow and failed traces survive eviction."""
    return TraceRecorder(name, tail=TailSampler(),
                         max_roots=SERVE_MAX_ROOTS)


class _Handler(BaseHTTPRequestHandler):
    """Per-connection handler; all logic lives on the server object."""

    # Close each connection after its response: keep-alive connections
    # would otherwise hold non-daemon handler threads open during the
    # graceful-shutdown drain.
    protocol_version = "HTTP/1.0"
    server: "TelemetryHTTPServer"

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        self.server.dispatch(self)

    def do_HEAD(self) -> None:  # noqa: N802
        self.server.dispatch(self)

    def log_message(self, format: str, *args) -> None:
        # The plane writes its own access-log line with the request id.
        pass


class TelemetryHTTPServer(ThreadingHTTPServer):
    """A threaded HTTP front end over a site server and its telemetry.

    Construct with a recorder (usually :func:`serving_recorder`), then
    :meth:`mount` a ``DynamicSiteServer`` and :meth:`set_ready` once
    its data is warmed; until then ``/readyz`` answers 503 while the
    telemetry plane is already live.  ``port=0`` binds an ephemeral
    port (read it back from :attr:`port`).
    """

    # Non-daemon handler threads + block_on_close: server_close() waits
    # for in-flight requests — the graceful-shutdown drain.
    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True

    def __init__(self, recorder: TraceRecorder | NullRecorder,
                 host: str = "127.0.0.1", port: int = 0,
                 site_server=None, access_log: bool = True,
                 max_age: float | None = None) -> None:
        super().__init__((host, port), _Handler)
        self.recorder = recorder
        self.site_server = site_server
        self.access_log = access_log
        #: Freshness threshold (seconds): pages whose newest
        #: contributing source is older count into
        #: ``lineage.pages_stale_total`` on each ``/metrics`` scrape.
        self.max_age = max_age
        #: The SLO evaluator surfaced at ``/debug/slo`` and
        #: ``/debug/alerts`` (falls back to the process-global one).
        self.slo_evaluator = None
        #: The canary prober, if ``repro serve`` started one — its
        #: stats join the ``/debug/alerts`` payload.
        self.canary = None
        self.started = time.time()
        self.tail: TailSampler | None = getattr(recorder, "tail", None)
        if self.tail is None and recorder.enabled:
            # Mounting the plane turns tail sampling on.
            self.tail = recorder.tail = TailSampler()
        self._ready = threading.Event()
        self._serve_thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The actually-bound port (useful with ``port=0``)."""
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.server_address[0]}:{self.port}"

    def mount(self, site_server) -> None:
        """Attach the ``DynamicSiteServer`` that answers page paths."""
        self.site_server = site_server

    def set_ready(self) -> None:
        """Flip ``/readyz`` to 200: data graph + site query are loaded."""
        self._ready.set()

    @property
    def ready(self) -> bool:
        return self._ready.is_set()

    def start_background(self) -> threading.Thread:
        """Run the accept loop in a (non-daemon) background thread."""
        thread = threading.Thread(target=self.serve_forever,
                                  kwargs={"poll_interval": 0.1},
                                  name="telemetry-http")
        thread.start()
        self._serve_thread = thread
        return thread

    def request_shutdown(self) -> None:
        """Stop the accept loop without blocking the caller.

        Safe from a signal handler: ``shutdown()`` itself waits for the
        serve loop to exit, which deadlocks when called on the thread
        running it, so the wait happens on a helper thread.
        """
        threading.Thread(target=self.shutdown, name="telemetry-stop",
                         daemon=True).start()

    def install_signal_handlers(self) -> None:
        """Route ``SIGINT``/``SIGTERM`` into graceful shutdown."""
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, self._on_signal)

    def _on_signal(self, signum, frame) -> None:
        self.recorder.events.emit(
            "info", "http.shutdown",
            f"signal {signal.Signals(signum).name}: draining")
        self.request_shutdown()

    def write_snapshot(self, directory: str) -> dict:
        """Flush the final telemetry state to ``directory``.

        Writes ``metrics.prom`` (Prometheus exposition),
        ``events.jsonl`` (the event ring) and ``snapshot.json`` (hotspot
        profile, tail-sampled trace summaries, SLO and alert state,
        uptime); returns ``{name: path}`` for what was written.  Request
        counts live in ``metrics.prom``; the slowest requests are the
        ``traces`` section's ``slowest`` roots.
        """
        os.makedirs(directory, exist_ok=True)
        paths = {
            "metrics": os.path.join(directory, "metrics.prom"),
            "events": os.path.join(directory, "events.jsonl"),
            "snapshot": os.path.join(directory, "snapshot.json"),
        }
        write_prometheus(self.recorder.metrics, paths["metrics"])
        self.recorder.events.write_jsonl(paths["events"])
        from repro.mediator.sources import recent_fetches
        site = self.site_server
        cache_snapshot = getattr(site, "cache_snapshot", None)
        document = {
            "uptime_seconds": time.time() - self.started,
            # Fetch stamps are recorded even with lineage off (each
            # carries source id, wrapper kind, timestamp, content hash).
            "sources": recent_fetches(),
            "lineage": (get_lineage().summary()
                        if get_lineage().enabled
                        else {"enabled": False}),
            "profile": self._profile_payload(limit=None),
            "traces": self._traces_payload(DEBUG_TRACE_DEPTH),
            "queries": get_query_registry().snapshot(
                limit=DEBUG_QUERY_LIMIT),
            # Click-time cache counters, split page/bindings so the
            # hit/miss totals reconcile with pages_computed.
            "site_cache": (cache_snapshot()
                           if callable(cache_snapshot) else None),
            # Materialized-view registry state (hit/miss/invalidation
            # counters, per-view read sets) — absent on pre-matview
            # snapshots, so consumers must tolerate a missing key.
            "matviews": self._matviews_payload(limit=DEBUG_QUERY_LIMIT),
            # Objective judgements and alert state at drain time, so
            # `repro slo check snapshot.json` can gate on the run.
            "slo": self._slo_snapshot(),
        }
        with open(paths["snapshot"], "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
        return paths

    def _matviews_payload(self, limit: int = 50) -> dict:
        """The mounted site's materialized-view registry state."""
        registry = getattr(self.site_server, "matviews", None)
        if registry is None:
            return {"enabled": False}
        return registry.snapshot(limit=limit)

    def _slo_snapshot(self) -> dict | None:
        evaluator = self._slo()
        if evaluator is None:
            return None
        document = evaluator.snapshot()
        if self.canary is not None:
            document["canary"] = self.canary.as_dict()
        return document

    # -- request handling ----------------------------------------------------

    def dispatch(self, handler: _Handler) -> None:
        """Answer one request (called on the handler's thread)."""
        request_id = next_request_id()
        recorder = self.recorder
        method = handler.command
        split = urlsplit(handler.path)
        path, query = split.path, parse_qs(split.query)
        with recorder.span("http.request", request=request_id,
                           method=method, path=path) as span:
            try:
                status, content_type, body = self._route(
                    path, query, request_id)
            except Exception as exc:  # noqa: BLE001 — a 500, not a crash
                status, content_type = 500, CONTENT_TEXT
                body = f"internal error: {type(exc).__name__}\n"
                span.set(error=type(exc).__name__)
                recorder.metrics.counter("http.errors").inc()
                recorder.events.emit("error", "http.error", str(exc),
                                     span=span, request=request_id,
                                     path=path)
            span.set(status=status)
            seconds = span.seconds
            recorder.metrics.counter("http.requests").inc()
            recorder.metrics.histogram(
                "http.request_seconds").observe(seconds)
            recorder.events.emit(
                "info", "http.access", span=span, request=request_id,
                method=method, path=path, status=status,
                ms=round(seconds * 1000, 3))
        payload = body if isinstance(body, bytes) \
            else body.encode("utf-8")
        try:
            handler.send_response(status)
            handler.send_header("Content-Type", content_type)
            handler.send_header("Content-Length", str(len(payload)))
            handler.send_header("X-Request-Id", request_id)
            handler.end_headers()
            if method != "HEAD":
                handler.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            recorder.metrics.counter("http.client_disconnects").inc()
        if self.access_log:
            print(f'{request_id} "{method} {path}" {status} '
                  f"{seconds * 1000:.1f}ms", file=sys.stderr)

    def _slo(self):
        """The evaluator to surface: the mounted one, else the global."""
        return self.slo_evaluator or get_slo_evaluator()

    def _healthz_body(self) -> str:
        """Liveness with something worth logging: uptime, version, and
        the worst-burning SLO (probes keep the first line ``ok``)."""
        from repro import __version__
        lines = [
            "ok",
            f"uptime_seconds: {time.time() - self.started:.1f}",
            f"version: {__version__}",
        ]
        evaluator = self._slo()
        worst = evaluator.worst() if evaluator is not None else None
        if evaluator is None:
            lines.append("slo: disabled")
        elif worst is None:
            lines.append("slo: no data yet")
        else:
            name, burn = worst
            lines.append(f"slo: worst burn {name} at {burn:.2f}x")
        return "\n".join(lines) + "\n"

    def _route(self, path: str, query: dict,
               request_id: str) -> tuple[int, str, str]:
        if path == "/healthz":
            return 200, CONTENT_TEXT, self._healthz_body()
        if path == "/readyz":
            if self.ready:
                return 200, CONTENT_TEXT, "ready\n"
            return 503, CONTENT_TEXT, "loading\n"
        if path == "/metrics":
            if self.recorder.enabled and get_lineage().enabled:
                # Freshness is scrape-time state: age every source
                # record (and re-count stale pages) per scrape.
                update_freshness_gauges(self.recorder.metrics,
                                        max_age=self.max_age)
            return 200, CONTENT_PROM, to_prometheus(self.recorder.metrics)
        if path == "/debug/traces":
            depth = _int_param(query, "depth", DEBUG_TRACE_DEPTH)
            return 200, CONTENT_JSON, json.dumps(
                self._traces_payload(depth), indent=2)
        if path == "/debug/events":
            return 200, CONTENT_JSON, json.dumps(
                self._events_payload(query), indent=2)
        if path == "/debug/profile":
            limit = _int_param(query, "limit", 0) or None
            return 200, CONTENT_JSON, json.dumps(
                self._profile_payload(limit), indent=2)
        if path == "/debug/queries":
            limit = _int_param(query, "limit", DEBUG_QUERY_LIMIT)
            return 200, CONTENT_JSON, json.dumps(
                get_query_registry().snapshot(limit=limit), indent=2)
        if path == "/debug/matviews":
            limit = _int_param(query, "limit", DEBUG_QUERY_LIMIT)
            return 200, CONTENT_JSON, json.dumps(
                self._matviews_payload(limit), indent=2)
        if path == "/debug/lineage":
            return self._lineage_route(query)
        if path == "/debug/slo":
            return self._slo_route()
        if path == "/debug/alerts":
            return self._alerts_route()
        if path in ("/debug", "/debug/"):
            return self._debug_index(query)
        if path.startswith("/debug/"):
            available = " ".join(sorted(DEBUG_ENDPOINTS))
            return 404, CONTENT_TEXT, (
                f"no such debug endpoint: {path}\n"
                f"available: {available}\n")
        return self._page(path, request_id)

    def _debug_index(self, query: dict) -> tuple[int, str, str]:
        """``/debug/``: what the debug surface offers."""
        if query.get("format", [None])[0] == "json":
            return 200, CONTENT_JSON, json.dumps(
                {"endpoints": DEBUG_ENDPOINTS}, indent=2)
        width = max(len(path) for path in DEBUG_ENDPOINTS)
        lines = [f"{path:<{width}}  {blurb}"
                 for path, blurb in sorted(DEBUG_ENDPOINTS.items())]
        return 200, CONTENT_TEXT, "\n".join(lines) + "\n"

    def _slo_route(self) -> tuple[int, str, str]:
        evaluator = self._slo()
        if evaluator is None:
            return 200, CONTENT_JSON, json.dumps(
                {"enabled": False}, indent=2)
        snapshot = evaluator.snapshot()
        return 200, CONTENT_JSON, json.dumps({
            "enabled": True,
            "ticks": snapshot["ticks"],
            "step_s": snapshot["step_s"],
            "coverage_s": snapshot["coverage_s"],
            "slos": snapshot["slos"],
        }, indent=2)

    def _alerts_route(self) -> tuple[int, str, str]:
        evaluator = self._slo()
        if evaluator is None:
            return 200, CONTENT_JSON, json.dumps(
                {"enabled": False}, indent=2)
        snapshot = evaluator.snapshot()
        document = {
            "enabled": True,
            "firing": snapshot["firing"],
            "alerts": snapshot["alerts"],
        }
        if self.canary is not None:
            document["canary"] = self.canary.as_dict()
        return 200, CONTENT_JSON, json.dumps(document, indent=2)

    def _lineage_route(self, query: dict) -> tuple[int, str, str]:
        """``/debug/lineage``: a why-tree for ``?page=``, else a summary."""
        lineage = get_lineage()
        target = query.get("page", [None])[0]
        if not lineage.enabled:
            return 200, CONTENT_JSON, json.dumps(
                {"enabled": False}, indent=2)
        if target is None:
            document = dict(lineage.summary())
            document["source_records"] = [
                record.to_dict() for record in lineage.sources()]
            document["max_age_seconds"] = self.max_age
            return 200, CONTENT_JSON, json.dumps(document, indent=2)
        target = target.lstrip("/")
        site = self.site_server
        if site is not None and lineage.resolve(target) == (None, None):
            # Serve mode computes pages on demand; a click-time page
            # that hasn't been requested yet has no lineage. Resolve
            # the path to its oid and materialize it first.
            oid = site.resolve_path(target)
            if oid is not None:
                try:
                    site.graph.ensure(oid)
                except Exception:  # noqa: BLE001 — fall through to 404
                    pass
                template = getattr(site, "generator", None)
                if template is not None:
                    lineage.record_page(
                        target, oid,
                        site.generator.template_for(oid) or "")
        document = lineage.why(target, max_age=self.max_age)
        if document is None:
            return 404, CONTENT_JSON, json.dumps(
                {"error": f"no lineage for {target!r}"}, indent=2)
        return 200, CONTENT_JSON, json.dumps(document, indent=2)

    def _page(self, path: str, request_id: str) -> tuple[int, str, str]:
        site = self.site_server
        if site is None or not self.ready:
            return 503, CONTENT_TEXT, "site not ready\n"
        if path in ("", "/"):
            roots = site.roots()
            if not roots:
                return 404, CONTENT_TEXT, "site has no root pages\n"
            response = site.request(roots[0], request_id=request_id)
        else:
            response = site.request(path.lstrip("/"),
                                    request_id=request_id)
        return response.status, CONTENT_HTML, response.body

    # -- debug payloads ------------------------------------------------------

    def _traces_payload(self, depth: int) -> dict:
        max_depth = depth if depth > 0 else None

        def dump(spans) -> list[dict]:
            return [span_to_dict(span, max_depth) for span in spans]

        tail = self.tail
        if tail is None:
            return {"offered": 0, "recent": [], "slowest": [],
                    "errors": []}
        return {
            "offered": tail.offered,
            "recent": dump(tail.recent),
            "slowest": dump(tail.slowest),
            "errors": dump(tail.errors),
        }

    def _events_payload(self, query: dict) -> list[dict]:
        limit = _int_param(query, "limit", DEBUG_EVENT_LIMIT)
        level = query.get("level", [None])[0]
        name = query.get("name", [None])[0]
        events = self.recorder.events.records(level, name=name)
        if limit > 0:
            events = events[-limit:]
        return [event.to_dict() for event in events]

    def _profile_payload(self, limit: int | None) -> list[dict]:
        entries = aggregate_profile(self.recorder)
        if limit:
            entries = entries[:limit]
        return [entry.to_dict() for entry in entries]


def _int_param(query: dict, name: str, default: int) -> int:
    try:
        return int(query.get(name, [default])[0])
    except (TypeError, ValueError):
        return default

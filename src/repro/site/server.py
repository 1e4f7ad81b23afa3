"""A dynamic page server simulation over click-time evaluation.

The paper notes STRUDEL's prototype precomputes sites and that
supporting dynamic generation "requires significant systems-design
effort"; this module provides the in-process equivalent: a
:class:`DynamicSiteServer` that answers page requests by computing the
requested page's query at click time (through
:class:`~repro.site.incremental.DynamicSite` /
:class:`~repro.site.incremental.LazySiteGraph`) and rendering it with
the ordinary HTML generator.  Request latencies are recorded through
the shared observability layer (:mod:`repro.obs`), so the
materialized-vs-dynamic trade-off of benchmark A3 can be measured and
long crawls no longer grow an unbounded latency list.
"""

from __future__ import annotations

import heapq
import itertools
import random
import threading
from dataclasses import dataclass

from repro.errors import PageNotFoundError, StrudelError
from repro.graph.model import Graph, Oid
from repro.obs.lineage import get_lineage
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram
from repro.obs.trace import TimedResult, emit_event, get_recorder, timed
from repro.site.incremental import DynamicSite, LazySiteGraph
from repro.struql.ast import Query
from repro.struql.evaluator import QueryEngine
from repro.struql.matview import ChangeSummary, MatViewRegistry
from repro.templates.generator import HtmlGenerator, TemplateSet

#: Histogram bucket bounds (seconds) for request latencies — the shared
#: per-request defaults (100 µs .. 10 s, roughly geometric).
SERVER_LATENCY_BUCKETS: tuple[float, ...] = DEFAULT_BUCKETS

#: Reservoir size for the raw-latency sample: large enough for stable
#: percentile sanity checks, small enough to stay O(1) per crawl.
SERVER_RESERVOIR_SIZE = 512

#: Fixed seed for the reservoir's RNG so crawls sample reproducibly.
SERVER_RESERVOIR_SEED = 0x5EED

#: How many slowest requests the log keeps for the dashboard.
SERVER_SLOWEST_KEPT = 16

#: Default ``server.slow_request`` warn threshold, in seconds.  At 0
#: every request that enters the slowest-requests heap emits the WARN
#: event, so the event log and the heap tell the same story; raise it
#: (``ServerLog.slow_warn_seconds``, or ``repro serve --slow-ms``) to
#: warn only on genuinely slow requests.
SERVER_SLOW_WARN_SECONDS = 0.0


def classify_error(exc: BaseException) -> tuple[int, str]:
    """Map an exception raised while serving to ``(status, kind)``.

    ``PageNotFoundError`` is the client's fault (404, ``not_found``);
    any other library error is a server-side failure (500) classified
    by subsystem so error counters stay diagnosable.
    """
    if isinstance(exc, PageNotFoundError):
        return 404, "not_found"
    if isinstance(exc, StrudelError):
        return 500, type(exc).__name__
    return 500, "internal"


@dataclass
class Response(TimedResult):
    """One served page; ``seconds`` comes from its request span."""

    oid: Oid
    status: int
    body: str
    request_id: str = ""


class ServerLog:
    """Aggregated request statistics.

    Latencies feed a fixed-bucket :class:`~repro.obs.metrics.Histogram`
    (bounded memory, percentile summaries) plus a small reservoir
    sample.  The old unbounded ``latencies`` list is deprecated: the
    property now exposes the reservoir as a read-only tuple, capped at
    :data:`SERVER_RESERVOIR_SIZE` entries however long the crawl.  The
    log also keeps the :data:`SERVER_SLOWEST_KEPT` slowest requests
    (id, page, status, seconds) for the monitoring dashboard, and
    :meth:`snapshot` returns the whole picture as a plain dict.
    """

    #: Back-compat alias of :data:`SERVER_RESERVOIR_SIZE`.
    MAX_SAMPLES = SERVER_RESERVOIR_SIZE

    def __init__(self,
                 slow_warn_seconds: float = SERVER_SLOW_WARN_SECONDS
                 ) -> None:
        self.requests = 0
        self.errors = 0
        self.total_seconds = 0.0
        self.slow_warn_seconds = slow_warn_seconds
        self.histogram = Histogram("server.request_seconds",
                                   SERVER_LATENCY_BUCKETS)
        self._samples: list[float] = []
        self._rng = random.Random(SERVER_RESERVOIR_SEED)
        self._request_ids = itertools.count(1)
        # Min-heap of (seconds, tiebreak, entry) keeping the slowest.
        self._slowest: list[tuple[float, int, dict]] = []
        self._slowest_seq = itertools.count()
        # Guards requests/errors/total_seconds/samples/slowest so the
        # threaded HTTP front end never loses an update; the histogram
        # and the metrics registry carry their own locks.
        self._lock = threading.Lock()

    def next_request_id(self) -> str:
        """A fresh stable request id (``req-1``, ``req-2``, ...)."""
        return f"req-{next(self._request_ids)}"

    def count_request(self) -> None:
        """Account one request arrival (atomic under concurrency)."""
        with self._lock:
            self.requests += 1

    def count_error(self) -> None:
        """Account one failed request (atomic under concurrency)."""
        with self._lock:
            self.errors += 1

    def record(self, seconds: float, request_id: str = "",
               page: str = "", status: int | None = None) -> None:
        """Account one served request's latency.

        ``request_id``/``page``/``status`` are optional context; when
        given, the request competes for the slowest-requests table, and
        landing there at or above :attr:`slow_warn_seconds` emits a
        ``server.slow_request`` WARN event — the event log and the heap
        tell the same story.
        """
        self.histogram.observe(seconds)
        get_recorder().metrics.histogram(
            "server.request_seconds").observe(seconds)
        entered_slowest = False
        with self._lock:
            self.total_seconds += seconds
            if len(self._samples) < self.MAX_SAMPLES:
                self._samples.append(seconds)
            else:
                slot = self._rng.randrange(self.histogram.count)
                if slot < self.MAX_SAMPLES:
                    self._samples[slot] = seconds
            if request_id or page:
                entry = {"id": request_id, "page": page,
                         "status": status, "seconds": seconds}
                item = (seconds, next(self._slowest_seq), entry)
                if len(self._slowest) < SERVER_SLOWEST_KEPT:
                    heapq.heappush(self._slowest, item)
                    entered_slowest = True
                elif seconds > self._slowest[0][0]:
                    heapq.heapreplace(self._slowest, item)
                    entered_slowest = True
        if entered_slowest and seconds >= self.slow_warn_seconds:
            get_recorder().metrics.counter("server.slow_requests").inc()
            emit_event("warning", "server.slow_request",
                       f"{request_id or page} took "
                       f"{seconds * 1000:.1f} ms",
                       request=request_id, page=page, status=status,
                       ms=round(seconds * 1000, 3))

    @property
    def slowest(self) -> list[dict]:
        """The slowest recorded requests, slowest first."""
        with self._lock:
            items = list(self._slowest)
        return [entry for _, _, entry in sorted(items, reverse=True)]

    def snapshot(self) -> dict:
        """The full request-log state as a plain dict (dashboard food)."""
        return {
            "requests": self.requests,
            "errors": self.errors,
            "total_seconds": self.total_seconds,
            "mean_latency": self.mean_latency,
            "p50_latency": self.p50_latency,
            "p95_latency": self.p95_latency,
            "histogram": self.histogram.summary(),
            "samples": list(self.latencies),
            "slowest": self.slowest,
        }

    @property
    def latencies(self) -> tuple[float, ...]:
        """A bounded reservoir sample of per-request seconds.

        Deprecated as a mutable list; kept as a read-only view for
        existing consumers.
        """
        with self._lock:
            return tuple(self._samples)

    @property
    def mean_latency(self) -> float:
        """Mean per-request seconds (0 when nothing served)."""
        return self.total_seconds / self.requests if self.requests else 0.0

    @property
    def p50_latency(self) -> float:
        """Median request seconds, from the histogram."""
        return self.histogram.percentile(0.50)

    @property
    def p95_latency(self) -> float:
        """95th-percentile request seconds, from the histogram."""
        return self.histogram.percentile(0.95)


#: Default bound on concurrent page computations per server (the
#: admission guard of the body materialized-view registry).
SERVER_MAX_INFLIGHT = 8


class DynamicSiteServer:
    """Serves one site's pages, computing each at click time.

    Rendered page bodies are materialized views
    (:class:`~repro.struql.matview.MatViewRegistry`): a hit serves
    bytes without touching the site graph or holding any site lock,
    and a miss computes once per page however many threads ask
    (single-flight), with at most :data:`SERVER_MAX_INFLIGHT`
    computations running at a time.  Each body's view records the
    Skolem functions its render actually read, so
    :meth:`invalidate` with a
    :class:`~repro.struql.matview.ChangeSummary` drops only the
    bodies whose footprint the change intersects.

    Below the body views sit :class:`LazySiteGraph`'s materialized page
    views and :class:`DynamicSite`'s bindings cache; :attr:`graph` and
    :attr:`generator` are the same objects for the server's lifetime,
    and every invalidation, full or selective, takes one path through
    all three layers.
    """

    def __init__(self, query: Query | str, data: Graph,
                 templates: TemplateSet,
                 engine: QueryEngine | None = None,
                 cache: bool = True, loader=None,
                 max_inflight: int = SERVER_MAX_INFLIGHT) -> None:
        self.site = DynamicSite(query, data, engine=engine, cache=cache)
        self.graph = LazySiteGraph(self.site)
        self.generator = HtmlGenerator(self.graph, templates, loader=loader)
        self.log = ServerLog()
        self.matviews = MatViewRegistry(max_views=self.site.max_pages,
                                        max_inflight=max_inflight)
        self._body_cache_enabled = cache
        self._url_map: dict[str, Oid] = {}
        self._url_map_size = -1

    # -- routing -------------------------------------------------------------

    def roots(self) -> list[Oid]:
        """The site's precomputed entry points."""
        return self.site.roots()

    def resolve_path(self, path: str) -> Oid | None:
        """Map a URL path back to a page oid (inverse of ``url_for``).

        Backed by a url->oid map extended only when the lazy graph has
        gained nodes, so steady-state resolution is O(1) instead of a
        linear scan over every page per request.  Invalidation detaches
        pages but keeps their nodes, so learned routes stay valid.
        """
        wanted = path.lstrip("/")
        # Under the site lock: concurrent handler threads must not
        # iterate the lazy graph while another one materializes.
        with self.site.lock:
            if self._url_map_size != self.graph.node_count:
                for node in list(self.graph.nodes()):
                    self._url_map.setdefault(
                        self.generator.url_for(node), node)
                self._url_map_size = self.graph.node_count
            return self._url_map.get(wanted)

    def _remember_route(self, oid: Oid) -> None:
        """Register a served page's URL in the route map.

        Serving by oid (priming, crawling, link traversal) teaches the
        router the page's URL immediately, so a URL request never
        depends on a prior ``resolve_path`` scan having seen the page
        materialized.
        """
        with self.site.lock:
            self._url_map.setdefault(self.generator.url_for(oid), oid)

    def warm(self) -> int:
        """Compute the site query and materialize every root page.

        The readiness gate of the HTTP front end: once this returns,
        the data graph is loaded and the site query has produced its
        entry points, so click-time requests can be answered.  Returns
        the number of roots warmed.
        """
        roots = self.roots()
        for oid in roots:
            self.graph.ensure(oid)
        return len(roots)

    def _serve_body(self, oid: Oid) -> str:
        """One page's HTML, served from the body view cache.

        A miss renders through :meth:`LazySiteGraph.collecting_deps`,
        so the stored view's footprint is the union of the footprints
        of every page view the render touched — templates traverse
        links, so a body can depend on more pages than its own.  Only
        successful renders are cached; errors propagate uncached.
        """
        graph = self.graph
        generator = self.generator
        site = self.site
        deps: set[str] = set()

        def compute() -> str:
            with graph.collecting_deps() as touched:
                graph.ensure(oid)
                if not graph.has_node(oid):
                    raise PageNotFoundError(oid)
                rendered = generator.render(oid)
            deps.update(touched)
            return rendered

        if not self._body_cache_enabled:
            return compute()
        return self.matviews.get_or_compute(
            str(oid), compute,
            fingerprint=site.fingerprint,
            footprint=lambda: site.footprint_for_fns(deps),
            sources=(site.data.name,))

    def request(self, page: Oid | str,
                request_id: str | None = None) -> Response:
        """Serve one page by oid or URL path.

        Every request gets a stable id (``req-N``) stamped onto its
        span, its :class:`Response`, and the events it emits, so one
        request's records correlate across the span tree, the event
        log and the slowest-requests table.  A front end that already
        assigned an id (the HTTP plane's ``X-Request-Id``) passes it as
        ``request_id`` so all layers tell one story.

        Failures are classified (:func:`classify_error`): unknown pages
        are 404s; any other error is answered as a 500 whose span gains
        an ``error`` attribute, which keeps the trace in the tail
        sampler's error ring.
        """
        self.log.count_request()
        if request_id is None:
            request_id = self.log.next_request_id()
        with timed("server.request", request=request_id) as span:
            oid = page if isinstance(page, Oid) else self.resolve_path(page)
            try:
                if oid is None:
                    raise PageNotFoundError(page)
                body = self._serve_body(oid)
                status = 200
                self._remember_route(oid)
                lineage = get_lineage()
                if lineage.enabled:
                    # Served pages join the lineage index as they are
                    # clicked, so /debug/lineage?page= answers for any
                    # page a visitor has actually seen.
                    lineage.record_page(
                        self.generator.url_for(oid), oid,
                        self.generator.template_for(oid) or "")
            except Exception as exc:
                status, kind = classify_error(exc)
                self.log.count_error()
                get_recorder().metrics.counter("server.errors").inc()
                get_recorder().metrics.counter(
                    f"server.errors.{kind}").inc()
                if status == 404:
                    body = "<h1>404 Not Found</h1>"
                    emit_event("warning", "server.not_found",
                               f"no page for {page}",
                               request=request_id, page=str(page))
                else:
                    body = (f"<h1>500 Internal Server Error</h1>"
                            f"<p>{kind}</p>")
                    span.set(error=kind)
                    emit_event("error", "server.error", str(exc),
                               request=request_id, page=str(page),
                               kind=kind)
            span.set(page=str(page), status=status)
            # Emit before the span closes so the event carries its ids.
            emit_event("info", "server.request", request=request_id,
                       page=str(page), status=status,
                       ms=round(span.seconds * 1000, 3))
        self.log.record(span.seconds, request_id=request_id,
                        page=str(page), status=status)
        get_recorder().metrics.counter("server.requests").inc()
        return Response(oid if isinstance(oid, Oid) else Oid("<unknown>"),
                        status, body, span=span, request_id=request_id)

    def crawl(self, start: Oid | None = None,
              limit: int | None = None) -> list[Response]:
        """Breadth-first crawl following page links (a synthetic user).

        Serves ``start`` (default: the first root) and every page
        reachable from it, up to ``limit`` pages.
        """
        roots = [start] if start is not None else self.roots()[:1]
        if not roots:
            return []
        out: list[Response] = []
        queue: list[Oid] = list(roots)
        seen: set[Oid] = set(queue)
        while queue:
            if limit is not None and len(out) >= limit:
                break
            oid = queue.pop(0)
            response = self.request(oid)
            out.append(response)
            for edge in self.graph.out_edges(oid):
                target = edge.target
                if isinstance(target, Oid) and target not in seen \
                        and target.skolem_fn is not None \
                        and self.generator.is_page(target):
                    seen.add(target)
                    queue.append(target)
        return out

    def cache_snapshot(self) -> dict:
        """The click-time cache statistics, reconciled.

        One consistent read of :meth:`DynamicSite.stats_snapshot`:
        ``pages_computed`` counts page-view computes and the bindings
        counters add up (``bindings_cache_misses == unit_evaluations``).
        """
        return self.site.stats_snapshot()

    def invalidate(self, change: ChangeSummary | None = None) -> None:
        """Propagate a data-graph update: drop what it may affect.

        Only the bindings, page views and rendered bodies whose
        footprint intersects the
        :class:`~repro.struql.matview.ChangeSummary` are dropped: the
        rest keep serving from cache.  Without one (the sound fallback
        when the caller cannot describe what changed), or with a full
        one, every entry's footprint intersects and all are dropped.
        """
        with self.site.lock:
            self.graph.unmaterialize(self.site.invalidate(change))
            self.matviews.invalidate(change)

    def update(self, mutate, change: ChangeSummary | None = None):
        """Apply a data mutation and propagate invalidation atomically.

        ``mutate(data_graph)`` runs under the site lock, so concurrent
        page computes never observe a half-applied change; ``change``
        then drives :meth:`invalidate` before the lock is released.
        When ``change`` is omitted and ``mutate`` returns a
        :class:`~repro.struql.matview.ChangeSummary`, that summary
        drives the invalidation; any other return value falls back to
        the full flush.  Returns whatever ``mutate`` returned.
        """
        with self.site.lock:
            result = mutate(self.site.data)
            if change is None and isinstance(result, ChangeSummary):
                change = result
            self.invalidate(change)
            return result

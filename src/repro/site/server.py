"""A dynamic page server simulation over click-time evaluation.

The paper notes STRUDEL's prototype precomputes sites and that
supporting dynamic generation "requires significant systems-design
effort"; this module provides the in-process equivalent: a
:class:`DynamicSiteServer` that answers page requests by computing the
requested page's query at click time (through
:class:`~repro.site.incremental.DynamicSite`, which plans each unit once
per data version, and the page snapshots of
:class:`~repro.site.incremental.LazySiteGraph`) and rendering it with
the ordinary HTML generator.  Rendered bodies are cached as
materialized views that keep the site-graph nodes their render read
(:meth:`~repro.templates.generator.HtmlGenerator.render_recorded`), the same
dependency record the offline build cache keeps.  Each page snapshot
keeps the data-graph reads of its compute, so a data change, journaled
while :meth:`DynamicSiteServer.update` applies it, drops the snapshots
whose reads it meets and the bodies that read one of those pages.
Each request is recorded once, through the shared observability layer
(:mod:`repro.obs`): one ``server.request`` span, one
``server.request_seconds`` observation and one ``server.requests``
count, so the materialized-vs-dynamic trade-off of benchmark A3 can be
measured in bounded memory.  A failed request adds one
``server.error`` note to that span.  With observability off,
:attr:`Response.seconds` still carries each request's latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet

from repro.errors import PageNotFoundError, StrudelError
from repro.graph.model import Graph, Oid
from repro.obs.lineage import get_lineage
from repro.obs.trace import (
    TimedResult,
    get_recorder,
    next_request_id,
    note,
    timed,
)
from repro.site.incremental import DynamicSite, LazySiteGraph
from repro.struql.ast import Query
from repro.struql.evaluator import QueryEngine
from repro.struql.matview import MatViewRegistry
from repro.templates.generator import HtmlGenerator, TemplateSet


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
    #: The site-graph nodes the body's render read (empty on errors).
    reads: frozenset[Oid] = frozenset()


class DynamicSiteServer:
    """Serves one site's pages, computing each at click time.

    Rendered page bodies are materialized views
    (:class:`~repro.struql.matview.MatViewRegistry`): a hit serves
    bytes without touching the site graph or holding any site lock,
    and a miss computes once per page however many threads ask
    (single-flight), with at most
    :data:`~repro.struql.matview.DEFAULT_MAX_INFLIGHT` computations
    running at a time.  Each body's view keeps the site-graph nodes its
    render read.

    Below the body views sit :class:`LazySiteGraph`'s immutable page
    snapshots, computed by :class:`DynamicSite` from plans it builds
    once per data version; each keeps the read keys of the data-graph
    reads its compute made.  :meth:`update` journals the read keys its
    mutation meets and drops the snapshots that recorded one of them,
    then the bodies that read one of those pages; the rest keep serving
    from cache.  :attr:`graph` and :attr:`generator` are the same
    objects for the server's lifetime, and every invalidation, full or
    selective, takes one path through both cache layers.  The site
    lock is held only to compute a page, to drop pages, or to scan
    newly known pages into the router: a render over computed pages,
    and a body-view hit by oid or by URL, take none.
    """

    def __init__(self, query: Query | str, data: Graph,
                 templates: TemplateSet,
                 engine: QueryEngine | None = None,
                 loader=None) -> None:
        self.site = DynamicSite(query, data, engine=engine)
        self.graph = LazySiteGraph(self.site)
        self.generator = HtmlGenerator(self.graph, templates, loader=loader)
        self.matviews = MatViewRegistry()
        self._url_map: dict[str, Oid] = {}
        self._url_map_size = -1

    # -- routing -------------------------------------------------------------

    def roots(self) -> list[Oid]:
        """The site's precomputed entry points."""
        return self.site.roots()

    def resolve_path(self, path: str) -> Oid | None:
        """Map a URL path back to a page oid (inverse of ``url_for``).

        Backed by a url->oid map extended only when the lazy graph
        knows more nodes than at the last scan, so steady-state
        resolution is one dict lookup and takes no lock.  Invalidation
        keeps known nodes, so learned routes stay valid.
        """
        wanted = path.lstrip("/")
        if self._url_map_size != self.graph.node_count:
            # The lock serializes scans with each other and with page
            # computes, which add nodes.
            with self.site.lock:
                for node in self.graph.nodes():
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

    def _serve_body(self, oid: Oid, reads: set[Oid]) -> str:
        """One page's HTML, served from the body view cache.

        A miss renders the page recording into ``reads`` every node the
        render read, pages reached through links and embedded objects
        included; the stored view keeps that set, and a hit fills
        ``reads`` from it.  Only successful renders are cached; errors
        propagate uncached.
        """
        graph, generator = self.graph, self.generator

        def compute() -> str:
            graph.ensure(oid)
            if not graph.has_node(oid):
                raise PageNotFoundError(oid)
            html = generator.render_recorded(oid, reads)
            lineage = get_lineage()
            if lineage.enabled:
                # Computed pages join the lineage index with their read
                # set, so /debug/lineage?page= answers for any page a
                # visitor has seen.
                lineage.record_page(generator.url_for(oid), oid,
                                    generator.template_for(oid) or "",
                                    reads)
            return html

        return self.matviews.get_or_compute(str(oid), compute, reads)

    def request(self, page: Oid | str,
                request_id: str | None = None) -> Response:
        """Serve one page by oid or URL path.

        Every request gets a process-unique id (``req-N``) stamped onto
        its ``server.request`` span and its :class:`Response`, so one
        request's records correlate across the span tree and the tail
        sampler's slowest traces.  A front end that already assigned an
        id (the HTTP plane's ``X-Request-Id``) passes it as
        ``request_id`` so all layers tell one story.

        Failures are classified (:func:`classify_error`): unknown pages
        are 404s; any other error is answered as a 500 whose span gains
        an ``error`` attribute and a ``server.error`` note carrying the
        exception message, which keeps the trace in the tail sampler's
        error ring.
        """
        if request_id is None:
            request_id = next_request_id()
        with timed("server.request", request=request_id) as span:
            oid = page if isinstance(page, Oid) else self.resolve_path(page)
            reads: set[Oid] = set()
            try:
                if oid is None:
                    raise PageNotFoundError(page)
                body = self._serve_body(oid, reads)
                status = 200
                self._remember_route(oid)
            except Exception as exc:
                status, kind = classify_error(exc)
                get_recorder().metrics.counter(
                    "server.errors", kind=kind).inc()
                if status == 404:
                    body = "<h1>404 Not Found</h1>"
                else:
                    body = (f"<h1>500 Internal Server Error</h1>"
                            f"<p>{kind}</p>")
                    span.set(error=kind)
                    note("error", "server.error", str(exc))
            span.set(page=str(page), status=status)
        metrics = get_recorder().metrics
        metrics.histogram("server.request_seconds").observe(span.seconds)
        metrics.counter("server.requests").inc()
        return Response(oid if isinstance(oid, Oid) else Oid("<unknown>"),
                        status, body, span=span, request_id=request_id,
                        reads=frozenset(reads) if status == 200
                        else frozenset())

    def crawl(self, start: Oid | None = None,
              limit: int | None = None) -> list[Response]:
        """Breadth-first crawl following page links (a synthetic user).

        Serves ``start`` (default: the first root) and every page
        reachable from it, up to ``limit`` pages.  A page's links are
        the pages its body's render read (:attr:`Response.reads`), so
        links inside embedded objects are followed too; they are
        visited in ``str(oid)`` order, which is the same in every
        process.
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
            for target in sorted(response.reads, key=str):
                if target not in seen and target.skolem_fn is not None \
                        and self.generator.is_page(target):
                    seen.add(target)
                    queue.append(target)
        return out

    def cache_snapshot(self) -> dict:
        """The click-time compute statistics: one consistent read of
        :meth:`DynamicSite.stats_snapshot` (``pages_computed``,
        ``unit_evaluations``, ``invalidations``)."""
        return self.site.stats_snapshot()

    def invalidate(self, keys: AbstractSet[tuple] | None = None) -> None:
        """Propagate a data-graph update: drop what it may affect.

        :meth:`DynamicSite.invalidate` drops the data version's plans;
        the page snapshots whose recorded read keys meet ``keys`` (the
        keys a change met, see :mod:`repro.graph.model`) and the
        rendered bodies that read one of those pages are dropped, and
        the rest keep serving from cache.  Without ``keys`` (the sound
        fallback when the caller cannot say what changed) everything is
        dropped.
        """
        with self.site.lock:
            self.site.invalidate()
            pages = self.graph.unmaterialize(keys)
            self.matviews.invalidate(None if keys is None else pages)

    def update(self, mutate):
        """Apply a data mutation and propagate invalidation atomically.

        ``mutate(data_graph)`` runs under the site lock with a journal
        open on the data graph, so concurrent page computes never
        observe a half-applied change; the read keys the journal
        collected then drive :meth:`invalidate` before the lock is
        released, also when ``mutate`` raises.  Returns whatever
        ``mutate`` returned.
        """
        data = self.site.data
        with self.site.lock:
            data.journal = keys = set()
            try:
                return mutate(data)
            finally:
                data.journal = None
                self.invalidate(keys)

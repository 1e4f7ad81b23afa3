"""Incremental / "click-time" evaluation of Web sites [FER 98c].

    Another approach is to precompute the root(s) of a Web site, then
    compute at click time the query that obtains the information
    required to display the next page.  (paper, section 1)

The decomposition: for each Skolem function ``F``, the query's flattened
units contribute *page queries* — every ``link F(X) -> L -> T`` governed
by conjunction ``Q`` becomes, for a concrete page ``F(a)``, the query
``Q[X := a]`` whose rows yield the page's ``L`` attributes.  Computing a
page therefore never materializes the whole site, only the bindings its
own links need.

:class:`DynamicSite` serves pages this way, with an optional result
cache ("our optimization techniques cache query results to reduce click
time for future queries").  :class:`LazySiteGraph` wraps a dynamic site
behind the :class:`~repro.graph.Graph` interface so the HTML generator
can render dynamic pages without a materialized site graph — the state
the paper says must live "in a client-side browser and/or a server-side
query processor" lives in the wrapper's materialized-page set.

A data change reaches both stores through one decision:
:meth:`DynamicSite.invalidate` drops the bindings whose unit footprint
the :class:`~repro.struql.matview.ChangeSummary` intersects and returns
the Skolem functions whose pages it may affect
(:meth:`DynamicSite.affected_fns`); every store above it, the
materialized pages here and the rendered bodies of
:class:`~repro.site.server.DynamicSiteServer`, drops by that set.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import PageNotFoundError, UnboundTermError
from repro.graph.model import Graph, GraphObject, Oid
from repro.graph.values import Atom
from repro.obs.lineage import get_lineage
from repro.obs.queries import fingerprint, get_query_registry
from repro.obs.trace import get_recorder
from repro.repository.indexes import GraphIndex
from repro.repository.stats import GraphStatistics
from repro.struql.analysis import ANY_FOOTPRINT, Footprint, unit_footprint
from repro.struql.ast import AggregateCond, Const, Query, SkolemTerm, Var
from repro.struql.bindings import Binding, RuntimeValue, as_label
from repro.struql.construction import TermFn, compile_term
from repro.struql.evaluator import QueryEngine, _enforce_aggregate_order
from repro.struql.parser import parse_query
from repro.struql.plan import ExecutionContext, Plan
from repro.struql.rewriter import ConjunctiveUnit, flatten
from repro.struql.skolem import SkolemRegistry


#: Default LRU bound for the click-time bindings cache (and, on the
#: server, the body views): a long-running ``repro serve`` must not grow
#: memory with the number of distinct pages ever visited (same
#: discipline as :class:`~repro.obs.queries.QueryStatsRegistry`).
DEFAULT_MAX_PAGES = 4096


@dataclass
class PageView:
    """One dynamically computed page: its outgoing edges and
    collection memberships."""

    oid: Oid
    edges: list[tuple[str, GraphObject]] = field(default_factory=list)
    collections: list[str] = field(default_factory=list)


class DynamicSite:
    """Serves site pages computed at click time from the data graph.

    :meth:`get_page` computes a page's view on every call; what it
    caches is the per-unit query result (the bindings cache), keyed by
    the unit and the page's Skolem arguments, so sibling pages and
    recomputes after an unrelated change reuse each other's rows.  The
    per-page store is :class:`LazySiteGraph`'s materialized set.

    Thread-safe: the bindings cache, the graph index and statistics and
    :attr:`stats` are guarded by one reentrant :attr:`lock`, and
    :meth:`invalidate` is atomic with respect to in-flight
    :meth:`get_page` calls — the threaded HTTP plane
    (:class:`~repro.obs.http.TelemetryHTTPServer`) serves click-time
    pages from many handler threads at once.  The bindings cache is an
    LRU ring capped at ``max_pages`` entries
    (``site.bindings_cache_evictions`` counts what falls out).
    """

    def __init__(self, query: Query | str, data: Graph,
                 engine: QueryEngine | None = None,
                 cache: bool = True,
                 max_pages: int = DEFAULT_MAX_PAGES) -> None:
        if isinstance(query, str):
            query = parse_query(query)
        self.query = query
        self.data = data
        self.engine = engine or QueryEngine()
        self.units = flatten(query)
        #: Static read footprint of each flattened unit (keyed by the
        #: unit's identity, which is also the bindings-cache key head).
        self.unit_footprints: dict[int, Footprint] = {
            id(unit): unit_footprint(unit) for unit in self.units}
        #: Skolem function -> union of the footprints of every unit
        #: that contributes links or collections to its pages: the data
        #: a page of that function may read when computed.
        self.fn_footprints = self._compute_fn_footprints()
        self.skolem = SkolemRegistry()
        #: Each unit's links, parallel to :attr:`units`, with their
        #: label and target terms compiled once into the closures the
        #: construction stage uses.
        self._unit_links = [
            [(link, compile_term(link.label, self.skolem),
              compile_term(link.target, self.skolem))
             for link in unit.links]
            for unit in self.units]
        #: The site query's fingerprint, also used as the lineage query
        #: context for click-time Skolem mints.
        self.fingerprint = fingerprint(query)
        self._cache_enabled = cache
        self.max_pages = max(int(max_pages), 1)
        self._bindings_cache: "OrderedDict[tuple, list[Binding]]" = \
            OrderedDict()
        #: The data graph's index and optimizer statistics, built
        #: together once per data version and dropped together by
        #: :meth:`invalidate`.
        self._index = None
        self._stats = None
        #: Guards the cache, the index and ``stats``; reentrant so
        #: ``get_page`` -> ``_unit_rows`` nests, and exposed so
        #: :class:`LazySiteGraph` can serialize materialization with
        #: cache invalidation.
        self.lock = threading.RLock()
        #: Click-time statistics for benchmarking.  They reconcile by
        #: construction: ``pages_computed`` equals ``get_page`` calls,
        #: and ``bindings_cache_misses == unit_evaluations``.
        self.stats = {"pages_computed": 0, "unit_evaluations": 0,
                      "bindings_cache_hits": 0,
                      "bindings_cache_misses": 0,
                      "bindings_cache_evictions": 0,
                      "invalidations": 0,
                      "bindings_invalidated": 0}

    def _compute_fn_footprints(self) -> dict[str, Footprint]:
        out: dict[str, Footprint] = {
            fn: Footprint() for fn in self.query.skolem_functions()}
        for unit in self.units:
            footprint = self.unit_footprints[id(unit)]
            touched = {link.source.fn for link in unit.links}
            touched.update(c.term.fn for c in unit.collects
                           if isinstance(c.term, SkolemTerm))
            for fn in touched:
                out[fn] = out.get(fn, Footprint()).union(footprint)
        return out

    def affected_fns(self, change) -> set[str]:
        """Skolem functions whose pages ``change`` may affect: all of
        them for a full or an unknown (``None``) change."""
        return {fn for fn, footprint in self.fn_footprints.items()
                if footprint.intersects(change)}

    # -- roots -----------------------------------------------------------------

    def roots(self) -> list[Oid]:
        """The precomputable root pages: zero-argument Skolem creates."""
        roots: dict[Oid, None] = {}
        lineage = get_lineage()
        for unit in self.units:
            for term in unit.creates:
                if not term.args and not unit.conditions:
                    with lineage.query_context(
                            fingerprint=self.fingerprint,
                            block=unit.label, input=self.data.name):
                        roots.setdefault(
                            self.skolem.apply(term.fn, ()), None)
        return list(roots)

    # -- page computation ------------------------------------------------------------

    def get_page(self, oid: Oid) -> PageView:
        """Compute one page's view from the current data.

        Holds :attr:`lock` across the compute, so a concurrent
        :meth:`invalidate` never interleaves with it (bindings computed
        from pre-update data could otherwise be cached after the
        post-update flush).
        """
        if oid.skolem_fn is None:
            raise PageNotFoundError(oid)
        recorder = get_recorder()
        with self.lock:
            started = time.perf_counter()
            with recorder.span("site.compute_page",
                               page=str(oid)) as span:
                view = self._compute(oid)
                span.set(edges=len(view.edges))
            seconds = time.perf_counter() - started
            self.stats["pages_computed"] += 1
        # Click-time computes are partial evaluations of the one site
        # query, so they aggregate under its fingerprint: the registry's
        # p50/p95 become the site's live page-compute latency.
        get_query_registry().observe(
            self.query, seconds=seconds,
            rows=len(view.edges),
            optimizer=getattr(self.engine.optimizer, "name",
                              str(self.engine.optimizer)),
            fp=self.fingerprint)
        return view

    def invalidate(self, change=None) -> set[str]:
        """Drop cached results affected by a data-graph update.

        Bindings whose unit footprint intersects ``change`` (a
        :class:`~repro.struql.matview.ChangeSummary`) are dropped —
        all of them when ``change`` is omitted or full.  The graph index
        and statistics are always discarded (the data did change).
        Returns :meth:`affected_fns`, the one answer every store above
        drops by.

        Atomic with in-flight :meth:`get_page` calls: waits for any
        compute holding :attr:`lock`, then flushes at once.
        """
        with self.lock:
            self._index = self._stats = None
            stale = [key for key in self._bindings_cache
                     if self.unit_footprints.get(
                         key[0], ANY_FOOTPRINT).intersects(change)]
            for key in stale:
                del self._bindings_cache[key]
            self.stats["invalidations"] += 1
            self.stats["bindings_invalidated"] += len(stale)
            return self.affected_fns(change)

    def stats_snapshot(self) -> dict:
        """A consistent copy of :attr:`stats` plus cache occupancy."""
        with self.lock:
            snapshot = dict(self.stats)
            snapshot["bindings_cache_size"] = len(self._bindings_cache)
            snapshot["max_pages"] = self.max_pages
            snapshot["cache_enabled"] = self._cache_enabled
        return snapshot

    # -- internals ---------------------------------------------------------------

    def _compute(self, oid: Oid) -> PageView:
        fn = oid.skolem_fn
        assert fn is not None
        view = PageView(oid)
        seen_edges: set[tuple[str, GraphObject]] = set()
        for unit, unit_links in zip(self.units, self._unit_links):
            relevant = False
            for link in unit.links:
                if link.source.fn == fn and \
                        len(link.source.args) == len(oid.skolem_args):
                    relevant = True
            collecting = [c for c in unit.collects
                          if isinstance(c.term, SkolemTerm)
                          and c.term.fn == fn
                          and len(c.term.args) == len(oid.skolem_args)]
            if not relevant and not collecting:
                continue
            lineage = get_lineage()
            with lineage.query_context(fingerprint=self.fingerprint,
                                       block=unit.label,
                                       input=self.data.name):
                for link, label_of, target_of in unit_links:
                    if link.source.fn != fn or \
                            len(link.source.args) != len(oid.skolem_args):
                        continue
                    for row in self._unit_rows(unit, link.source, oid):
                        label_value = _resolve(label_of, row)
                        label = as_label(label_value) \
                            if label_value is not None else None
                        target = _resolve(target_of, row)
                        if label is None or target is None:
                            continue
                        if isinstance(target, str):
                            target = Atom.string(target)
                        key = (label, target)
                        if key not in seen_edges:
                            seen_edges.add(key)
                            view.edges.append(key)
                            if lineage.enabled:
                                lineage.record_dep(oid, target)
                for collect in collecting:
                    assert isinstance(collect.term, SkolemTerm)
                    for row in self._unit_rows(unit, collect.term, oid):
                        if collect.name not in view.collections:
                            view.collections.append(collect.name)
        return view

    def _unit_rows(self, unit: ConjunctiveUnit, source: SkolemTerm,
                   oid: Oid) -> list[Binding]:
        """Bindings of the unit's conditions consistent with ``oid``'s
        Skolem arguments bound into the source term's variables."""
        seed: Binding = {}
        for arg_term, arg_value in zip(source.args, oid.skolem_args):
            if isinstance(arg_term, Var):
                seed[arg_term.name] = arg_value
            elif isinstance(arg_term, Const):
                from repro.struql.bindings import runtime_eq
                if not runtime_eq(arg_term.value, arg_value):
                    return []
        key = (id(unit), tuple(sorted(seed.items(),
                                      key=lambda kv: kv[0])),
               tuple(str(v) for _, v in sorted(seed.items())))
        with self.lock:
            if self._cache_enabled and key in self._bindings_cache:
                self.stats["bindings_cache_hits"] += 1
                self._bindings_cache.move_to_end(key)
                get_recorder().metrics.counter(
                    "site.bindings_cache_hits").inc()
                return self._bindings_cache[key]
            self.stats["bindings_cache_misses"] += 1
        if self._index is None or not self._index.fresh:
            self._index = GraphIndex.build(self.data)
            self._stats = GraphStatistics.gather(self.data)
        ctx = ExecutionContext(self.data, index=self._index,
                               predicates=self.engine.predicates)
        # Aggregates partition the FULL binding relation.  Seeding the
        # page's Skolem arguments before an aggregate whose group does
        # not cover them would aggregate over the restricted rows and
        # disagree with the materialized site, so such units evaluate
        # unseeded and filter afterwards.
        seeded = seed
        post_filter: Binding = {}
        for condition in unit.conditions:
            if isinstance(condition, AggregateCond):
                group_names = {g.name for g in condition.group}
                if not set(seed) <= group_names:
                    seeded, post_filter = {}, seed
                    break
        ordered = self.engine.optimizer.order(
            unit.conditions, set(seeded), self.data, ctx.predicates,
            self._stats)
        ordered = _enforce_aggregate_order(ordered)
        rows = Plan.from_conditions(ordered).execute(ctx, [dict(seeded)])
        if post_filter:
            from repro.struql.bindings import runtime_eq
            rows = [row for row in rows
                    if all(name in row and runtime_eq(row[name], value)
                           for name, value in post_filter.items())]
        with self.lock:
            self.stats["unit_evaluations"] += 1
            if self._cache_enabled:
                self._bindings_cache[key] = rows
                while len(self._bindings_cache) > self.max_pages:
                    self._bindings_cache.popitem(last=False)
                    self.stats["bindings_cache_evictions"] += 1
                    get_recorder().metrics.counter(
                        "site.bindings_cache_evictions").inc()
        get_recorder().metrics.counter("site.unit_evaluations").inc()
        return rows


def _resolve(term_of: TermFn, row: Binding) -> RuntimeValue | None:
    """A compiled term's value under ``row``; ``None`` when it needs a
    variable the row leaves unbound (the row contributes no edge)."""
    try:
        return term_of(row)
    except UnboundTermError:
        return None


class LazySiteGraph(Graph):
    """A :class:`Graph` facade over a :class:`DynamicSite`.

    Pages materialize into the underlying graph structures on first
    access, so the HTML generator (which only reads outgoing edges and
    collection memberships) renders against it unmodified.  Incoming
    edges are complete only for already-materialized pages — sufficient
    for serving, by construction of the template language's bounded
    forward traversals.
    """

    def __init__(self, site: DynamicSite) -> None:
        super().__init__(site.query.output_name)
        self._site = site
        self._materialized: set[Oid] = set()
        for root in site.roots():
            self.add_node(root)

    def ensure(self, oid: Oid) -> None:
        """Materialize ``oid``'s page if it is dynamic and not yet done.

        Serialized on the site's lock: concurrent handler threads must
        not interleave graph mutation (or materialize the same page
        twice), and materialization must not overlap an
        :meth:`DynamicSite.invalidate` flush.
        """
        if oid.skolem_fn is None:
            return
        with self._site.lock:
            if oid in self._materialized:
                return
            self._materialized.add(oid)
            view = self._site.get_page(oid)
            self.add_node(oid)
            for label, target in view.edges:
                self.add_edge(oid, label, target)
            for name in view.collections:
                self.add_to_collection(name, oid)

    def unmaterialize(self, fns: set[str]) -> int:
        """Forget materialized pages so they recompute on next access.

        Only pages minted by the Skolem functions ``fns`` are flushed
        (:meth:`DynamicSite.affected_fns` names them all for a full
        change).  Nodes stay in the graph — links from other pages and the URL map
        remain valid — but their outgoing edges and collection
        memberships are detached, so the next read recomputes the page
        view against the updated data.
        """
        with self._site.lock:
            victims = [oid for oid in self._materialized
                       if oid.skolem_fn in fns]
            for oid in victims:
                self._materialized.discard(oid)
                self.detach_node(oid)
            return len(victims)

    # -- read paths used by the HTML generator ------------------------------------
    #
    # Each read holds the site lock across ensure + read so a concurrent
    # unmaterialize/invalidate never interleaves mid-read; the serving
    # hot path (materialized-view hits) bypasses this graph entirely.

    def out_edges(self, source: Oid):  # type: ignore[override]
        with self._site.lock:
            self.ensure(source)
            return super().out_edges(source)

    def get(self, source: Oid, label: str):  # type: ignore[override]
        with self._site.lock:
            self.ensure(source)
            return super().get(source, label)

    def get_one(self, source: Oid, label: str, default=None):  # type: ignore[override]
        with self._site.lock:
            self.ensure(source)
            return super().get_one(source, label, default)

    def labels_of(self, source: Oid):  # type: ignore[override]
        with self._site.lock:
            self.ensure(source)
            return super().labels_of(source)

    def collections_of(self, obj):  # type: ignore[override]
        with self._site.lock:
            if isinstance(obj, Oid):
                self.ensure(obj)
            return super().collections_of(obj)

    @property
    def materialized_count(self) -> int:
        """How many pages have been computed so far."""
        return len(self._materialized)

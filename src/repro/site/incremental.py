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

:class:`DynamicSite` serves pages this way, planning each unit once
per data version.  Query results are cached above it ("our optimization
techniques cache query results to reduce click time for future
queries"): :class:`LazySiteGraph` offers a dynamic site through the
reads the HTML generator makes of a site :class:`~repro.graph.Graph`,
so dynamic pages render without a materialized site graph — the state
the paper says must live "in a client-side browser and/or a server-side
query processor" is the view's immutable page snapshots, read without a
lock — and :class:`~repro.site.server.DynamicSiteServer` keeps the
rendered bodies.

One dependency model runs from data to page.  Each page compute
records the read keys of the data-graph reads its units made
(:class:`~repro.struql.plan.ExecutionContext`, keys as in
:mod:`repro.graph.model`), and its snapshot keeps them.  A data change
is the set of read keys its mutations met (the data graph's
``journal``); :meth:`LazySiteGraph.unmaterialize` drops the snapshots
whose keys it meets and names their pages, and the rendered bodies of
:class:`~repro.site.server.DynamicSiteServer` that read one of those
pages go with them.

Computes are counted once, in :attr:`DynamicSite.stats`, which the
telemetry plane publishes as the ``site.*`` counters.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import AbstractSet, Iterator, NamedTuple

from repro.errors import PageNotFoundError, UnboundTermError
from repro.graph.model import Edge, Graph, GraphObject, Oid
from repro.graph.values import Atom
from repro.obs.lineage import get_lineage
from repro.obs.queries import fingerprint, get_query_registry
from repro.obs.trace import timed
from repro.repository.indexes import GraphIndex
from repro.struql.ast import AggregateCond, Const, Query, SkolemTerm, Var
from repro.struql.bindings import Binding, RuntimeValue, as_label, runtime_eq
from repro.struql.construction import TermFn, compile_term
from repro.struql.evaluator import QueryEngine
from repro.struql.parser import parse_query
from repro.struql.plan import ExecutionContext, Plan
from repro.struql.rewriter import ConjunctiveUnit, flatten
from repro.struql.skolem import SkolemRegistry


@dataclass
class PageView:
    """One dynamically computed page: its outgoing edges and
    collection memberships."""

    oid: Oid
    edges: list[tuple[str, GraphObject]] = field(default_factory=list)
    collections: list[str] = field(default_factory=list)
    #: The read keys of every data-graph read the compute made.
    reads: set[tuple] = field(default_factory=set)
    #: Whether the site has this page: it has an edge or a collection,
    #: or a unit that creates its function yields a row for it.
    exists: bool = False


class DynamicSite:
    """Serves site pages computed at click time from the data graph.

    :meth:`get_page` computes a page's view on every call, evaluating
    each contributing unit once with the page's Skolem arguments bound,
    and records what those evaluations read; the per-page store is
    :class:`LazySiteGraph`'s page snapshots.
    What it keeps is per data version: the data graph's index, its
    optimizer statistics, and one plan per (unit, names of the bound
    variables), built on first use.  The bound names come from the
    query's Skolem terms, not from the argument values, so the plans
    are bounded by the query, however many pages are visited.  All
    three are dropped together when the data changes
    (:meth:`invalidate`, or an index found stale by the next compute).

    Thread-safe: the index, statistics, plans and :attr:`stats` are
    written under one reentrant :attr:`lock`, held across each page
    compute (a scrape reads :attr:`stats` without it, each int whole),
    and :meth:`invalidate` is atomic with respect to in-flight
    :meth:`get_page` calls — the threaded HTTP plane
    (:class:`~repro.obs.http.TelemetryHTTPServer`) serves click-time
    pages from many handler threads at once.
    """

    def __init__(self, query: Query | str, data: Graph,
                 engine: QueryEngine | None = None) -> None:
        if isinstance(query, str):
            query = parse_query(query)
        self.query = query
        self.data = data
        self.engine = engine or QueryEngine()
        self.units = flatten(query)
        self.skolem = SkolemRegistry()
        #: Each unit's links, parallel to :attr:`units`, with their
        #: label and target terms compiled once into the closures the
        #: construction stage uses.
        self._unit_links = [
            [(link, compile_term(link.label, self.skolem),
              compile_term(link.target, self.skolem))
             for link in unit.links]
            for unit in self.units]
        #: The site query's fingerprint.
        self.fingerprint = fingerprint(query)
        #: The precomputable root pages: zero-argument Skolem creates
        #: of condition-free units, fixed by the query.
        self._roots = list(dict.fromkeys(
            self.skolem.apply(term.fn, ())
            for unit in self.units if not unit.conditions
            for term in unit.creates if not term.args))
        #: The data graph's index (which keeps its optimizer
        #: statistics) and unit plans (keyed by the unit's identity and
        #: the bound variable names), built once per data version and
        #: dropped together.
        self._index = None
        self._plans: dict[tuple[int, frozenset[str]], Plan] = {}
        #: Guards the index, statistics, plans and ``stats``; reentrant
        #: and exposed so :class:`LazySiteGraph` can serialize page
        #: computes with invalidation.
        self.lock = threading.RLock()
        #: Click-time counts: ``pages_computed`` equals ``get_page``
        #: calls.
        self.stats = {"pages_computed": 0, "unit_evaluations": 0}
        get_lineage().record_query(query, data)

    def roots(self) -> list[Oid]:
        """The precomputable root pages: zero-argument Skolem creates."""
        return list(self._roots)

    # -- page computation ------------------------------------------------------------

    def get_page(self, oid: Oid) -> PageView:
        """Compute one page's view from the current data.

        Holds :attr:`lock` across the compute, so a concurrent
        :meth:`invalidate` never interleaves with it (a plan or index
        built from pre-update data could otherwise be kept after the
        post-update drop).
        """
        if oid.skolem_fn is None:
            raise PageNotFoundError(oid)
        with self.lock, timed("site.compute_page", page=str(oid),
                              fingerprint=self.fingerprint) as span:
            view = self._compute(oid)
            span.set(edges=len(view.edges))
            self.stats["pages_computed"] += 1
        # Click-time computes are partial evaluations of the one site
        # query, so they aggregate under its fingerprint: the registry's
        # p50/p95 become the site's live page-compute latency.
        get_query_registry().observe(
            self.query, span=span,
            rows=len(view.edges),
            optimizer=getattr(self.engine.optimizer, "name",
                              str(self.engine.optimizer)),
            fp=self.fingerprint)
        return view

    def invalidate(self) -> None:
        """Drop the data version's index, statistics and plans after a
        data-graph update.

        Atomic with in-flight :meth:`get_page` calls: waits for any
        compute holding :attr:`lock`, then drops at once.
        """
        with self.lock:
            self._drop_data_version()

    def stats_snapshot(self) -> dict:
        """A consistent copy of :attr:`stats`."""
        with self.lock:
            return dict(self.stats)

    # -- internals ---------------------------------------------------------------

    def _drop_data_version(self) -> None:
        self._index = None
        self._plans = {}

    def _compute(self, oid: Oid) -> PageView:
        fn = oid.skolem_fn
        assert fn is not None
        arity = len(oid.skolem_args)
        view = PageView(oid)
        if self._index is None or not self._index.fresh:
            # A new data version: its statistics may order units
            # differently, so the plans go with the old index.
            self._drop_data_version()
            self._index = GraphIndex.build(self.data)
        ctx = ExecutionContext(self.data, index=self._index,
                               predicates=self.engine.predicates)
        ctx.reads = view.reads
        seen_edges: set[tuple[str, GraphObject]] = set()
        for unit, unit_links in zip(self.units, self._unit_links):
            links = [entry for entry in unit_links
                     if entry[0].source.fn == fn
                     and len(entry[0].source.args) == arity]
            collecting = [c for c in unit.collects
                          if isinstance(c.term, SkolemTerm)
                          and c.term.fn == fn
                          and len(c.term.args) == arity]
            if not links and not collecting:
                continue
            # The unit's rows for each source term, evaluated once and
            # shared by the links and collects that have it.
            terms = [link.source for link, _, _ in links]
            terms.extend(c.term for c in collecting)
            rows_of = {term: self._unit_rows(unit, term, oid, ctx)
                       for term in dict.fromkeys(terms)}
            for link, label_of, target_of in links:
                for row in rows_of[link.source]:
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
            for collect in collecting:
                if rows_of[collect.term] and \
                        collect.name not in view.collections:
                    view.collections.append(collect.name)
        view.exists = bool(view.edges or view.collections) or any(
            self._unit_rows(unit, term, oid, ctx)
            for unit in self.units for term in unit.creates
            if term.fn == fn and len(term.args) == arity)
        return view

    def _unit_rows(self, unit: ConjunctiveUnit, source: SkolemTerm,
                   oid: Oid, ctx: ExecutionContext) -> list[Binding]:
        """Bindings of the unit's conditions consistent with ``oid``'s
        Skolem arguments bound into the source term's variables.

        Runs inside :meth:`get_page`'s hold of :attr:`lock`.
        """
        seed: Binding = {}
        for arg_term, arg_value in zip(source.args, oid.skolem_args):
            if isinstance(arg_term, Var):
                seed[arg_term.name] = arg_value
            elif isinstance(arg_term, Const):
                if not runtime_eq(arg_term.value, arg_value):
                    return []
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
        key = (id(unit), frozenset(seeded))
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self.engine.plan(
                unit.conditions, set(seeded), self.data,
                self._index.statistics())
        rows = plan.execute(ctx, [dict(seeded)])
        if post_filter:
            rows = [row for row in rows
                    if all(name in row and runtime_eq(row[name], value)
                           for name, value in post_filter.items())]
        self.stats["unit_evaluations"] += 1
        return rows


def _resolve(term_of: TermFn, row: Binding) -> RuntimeValue | None:
    """A compiled term's value under ``row``; ``None`` when it needs a
    variable the row leaves unbound (the row contributes no edge)."""
    try:
        return term_of(row)
    except UnboundTermError:
        return None


class _PageSnapshot(NamedTuple):
    """One computed page, never mutated: attribute label -> targets in
    computed order, the page's collections, sorted, and the read keys
    of its compute."""

    attrs: dict[str, tuple[GraphObject, ...]]
    collections: tuple[str, ...]
    reads: frozenset[tuple]


_EMPTY = _PageSnapshot({}, (), frozenset())


class LazySiteGraph:
    """The read interface of a site :class:`Graph` over a
    :class:`DynamicSite`, for the HTML generator (which reads only
    outgoing edges and collection memberships).

    Each page is computed on first read into an immutable snapshot held
    in a dict keyed by oid, with the read keys of its compute;
    :meth:`unmaterialize` drops the snapshots a data change meets so
    they recompute.  Thread-safety without a lock on the read path:

    * snapshots are never mutated after they are built;
    * a dict lookup or insert is atomic, so a read sees a snapshot
      either whole or not at all;
    * a miss computes and inserts under :attr:`DynamicSite.lock`,
      which :meth:`DynamicSiteServer.update
      <repro.site.server.DynamicSiteServer.update>` also holds, so no
      snapshot computed from pre-change data survives an invalidation;
    * a render that races an update can read some pages before and
      some after it, as it could when every read took the lock; the
      body views' generation check
      (:class:`~repro.struql.matview.MatViewRegistry`) keeps such a
      render out of the cache.

    The known nodes (roots, computed pages the site has and the oids
    they link to) answer :meth:`nodes`, :meth:`has_node` and
    :attr:`node_count`; they change only under the lock, and
    invalidation keeps them, so routes learned from them stay valid.
    """

    def __init__(self, site: DynamicSite) -> None:
        self._site = site
        self._pages: dict[Oid, _PageSnapshot] = {}
        self._known: dict[Oid, None] = dict.fromkeys(site.roots())

    def ensure(self, oid: Oid) -> _PageSnapshot:
        """``oid``'s page snapshot, computed on first use; empty for
        a non-Skolem oid.

        A computed oid becomes known, and keeps its snapshot, only if
        the site has it: it is already known (a root, or the target of
        a computed page's link) or its compute found it
        (:attr:`PageView.exists`).  Any other oid names no page: it
        stays unknown and reads as empty.
        """
        if oid.skolem_fn is None:
            return _EMPTY
        page = self._pages.get(oid)
        if page is not None:
            return page
        # Look the lock up per call: it may be replaced (a timing wrapper).
        with self._site.lock:
            page = self._pages.get(oid)
            if page is None:
                view = self._site.get_page(oid)
                if not view.exists and oid not in self._known:
                    return _EMPTY
                attrs: dict[str, list[GraphObject]] = {}
                for label, target in view.edges:
                    attrs.setdefault(label, []).append(target)
                    if isinstance(target, Oid):
                        self._known.setdefault(target)
                page = _PageSnapshot(
                    {label: tuple(targets)
                     for label, targets in attrs.items()},
                    tuple(sorted(view.collections)),
                    frozenset(view.reads))
                self._known.setdefault(oid)
                self._pages[oid] = page
            return page

    def unmaterialize(self, keys: AbstractSet[tuple] | None) -> list[Oid]:
        """Drop the snapshots whose recorded read keys meet ``keys``
        (every snapshot when ``None``), so the next read recomputes
        them against the updated data, and return their oids.  Their
        oids stay known."""
        with self._site.lock:
            victims = [oid for oid, page in self._pages.items()
                       if keys is None or not page.reads.isdisjoint(keys)]
            for oid in victims:
                del self._pages[oid]
            return victims

    # -- the Graph reads the HTML generator uses ------------------------------

    def nodes(self) -> Iterator[Oid]:
        # A copy: reading the pages it yields may compute more of them.
        return iter(list(self._known))

    def has_node(self, oid: Oid) -> bool:
        return oid in self._known

    @property
    def node_count(self) -> int:
        return len(self._known)

    def out_edges(self, source: Oid) -> list[Edge]:
        return [Edge(source, label, target)
                for label, targets in self.ensure(source).attrs.items()
                for target in targets]

    def get(self, source: Oid, label: str) -> list[GraphObject]:
        return list(self.ensure(source).attrs.get(label, ()))

    def get_one(self, source: Oid, label: str,
                default: GraphObject | None = None) -> GraphObject | None:
        targets = self.ensure(source).attrs.get(label)
        return targets[0] if targets else default

    def labels_of(self, source: Oid) -> list[str]:
        return list(self.ensure(source).attrs)

    def collections_of(self, obj: GraphObject) -> list[str]:
        if not isinstance(obj, Oid):
            return []
        return list(self.ensure(obj).collections)

    @property
    def materialized_count(self) -> int:
        """How many pages have been computed so far."""
        return len(self._pages)

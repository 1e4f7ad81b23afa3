"""Provenance and freshness: the "why" plane of the observability stack.

STRUDEL pages are *derived artifacts*: a source object flows through a
wrapper, a mediator mapping, a StruQL block, a Skolem function, and a
template before it becomes HTML.  The span/metric layers answer "how
fast"; this module answers "why does this page exist, and how stale is
it?".  Each fact comes from the one record the pipeline already keeps:

* **sources** — the fetch log: one :class:`SourceRecord` (wrapper
  kind, fetch time, content hash, node/edge counts) per recently
  loaded source, always on and bounded to :data:`FETCH_LOG_LIMIT`
  names.  :func:`record_fetch` is called by
  :meth:`repro.mediator.sources.DataSource.load` and by the CLI's file
  loaders.
* **Skolem lineage** — the oid itself.  "A Skolem function applied to
  the same inputs produces the same node oid" (paper, section 3), so a
  minted :class:`~repro.graph.model.Oid` names its function and its
  arguments (``skolem_fn``, ``skolem_args``, which survive graph
  serialization).  The query that made it comes from a per-query table
  that :meth:`LineageIndex.record_query` fills once per
  :meth:`~repro.struql.evaluator.QueryEngine.evaluate` and once per
  click-time :class:`~repro.site.incremental.DynamicSite`: for each
  Skolem function, the query fingerprint, the label of the first block
  (preorder) that creates it, and the input graph.  Offline builds and
  click-time serving therefore report the same derivation for a page.
* **pages** — :class:`PageRecord`: ``page url -> (site-graph oid,
  template name, read set)``, where the read set holds every site-graph
  node the page's render read: the one dependency record the build
  cache (:mod:`repro.site.buildcache`) and the click-time body views
  already keep.  Recorded by :func:`~repro.site.buildcache
  .cached_generate` for every page of a build (cache-skipped pages
  take their manifest read set, resolved through the site graph) and
  by :class:`~repro.site.server.DynamicSiteServer` when it computes a
  page body.
* **membership** — which source each loaded data node came from
  (:meth:`LineageIndex.record_source_nodes`).

:meth:`LineageIndex.why` walks one path backwards — page -> the nodes
its render read -> their Skolem functions and arguments -> sources —
and returns a derivation-tree document; :func:`render_why` prints it.
Nothing is persisted.

Like the trace recorder, the global index follows the Null-object
pattern: :func:`get_lineage` returns a no-op unless
:func:`enable_lineage` (or the ``lineage_recording`` context manager)
turned recording on.

Freshness rides on the same walk: :func:`freshness_report` ages every
source record, flags pages whose *newest* contributing source is older
than ``max_age``, and :func:`update_freshness_gauges` exports the result as
``lineage.source_age_seconds{source}`` gauges plus a
``lineage.pages_stale_total`` gauge for Prometheus scrapes.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, NamedTuple

from repro.graph.model import Oid
from repro.graph.values import Atom
from repro.obs.queries import fingerprint

#: Caps keeping the index bounded on long-running servers.
MAX_PAGE_RECORDS = 16384
MAX_SOURCE_MEMBER_RECORDS = 131072

#: How many source names the fetch log remembers (oldest fall out).
FETCH_LOG_LIMIT = 256

#: Depth cap for derivation-tree walks (a Skolem arg can itself be a
#: Skolem oid, e.g. ``PersonCard(PersonPage(p))``).
MAX_WHY_DEPTH = 8


def graph_content_hash(graph) -> str:
    """A stable content hash of a graph (nodes, edges, collections).

    Cheap enough to run on every source load: one pass over the edge
    list feeding sha1, no sorting (wrapper output order is
    deterministic for unchanged input).
    """
    digest = hashlib.sha1()
    for source, label, target in graph.edges():
        digest.update(repr(source).encode())
        digest.update(str(label).encode())
        digest.update(repr(target).encode())
        digest.update(b"\x00")
    for name in graph.collection_names():
        digest.update(name.encode())
        for member in graph.collection(name):
            digest.update(repr(member).encode())
        digest.update(b"\x01")
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class SourceRecord:
    """One fetch of a source: the fetch log's entry."""

    source: str
    kind: str = "loader"
    fetched_at: float = 0.0
    content_hash: str = ""
    nodes: int = 0
    edges: int = 0
    version: int = 0

    def to_dict(self) -> dict:
        return {"source": self.source, "kind": self.kind,
                "fetched_at": self.fetched_at,
                "content_hash": self.content_hash,
                "nodes": self.nodes, "edges": self.edges,
                "version": self.version}

    def aged(self, now: float) -> dict:
        """:meth:`to_dict` plus the record's age at ``now``."""
        return dict(self.to_dict(),
                    age_seconds=max(now - self.fetched_at, 0.0))


# -- the fetch log ----------------------------------------------------
#
# Kept even when lineage is off, so the ``/debug`` snapshot can always
# answer "what did we load, when, and did its content change?".

_FETCHES: "OrderedDict[str, SourceRecord]" = OrderedDict()
_FETCH_LOCK = threading.Lock()


def record_fetch(name: str, kind: str, content_hash: str,
                 nodes: int, edges: int, version: int = 0,
                 fetched_at: float | None = None) -> SourceRecord:
    """Log one source fetch, replacing the source's previous entry."""
    record = SourceRecord(
        source=name, kind=kind,
        fetched_at=time.time() if fetched_at is None else fetched_at,
        content_hash=content_hash, nodes=nodes, edges=edges,
        version=version)
    with _FETCH_LOCK:
        _FETCHES[name] = record
        _FETCHES.move_to_end(name)
        while len(_FETCHES) > FETCH_LOG_LIMIT:
            _FETCHES.popitem(last=False)
    return record


def recent_fetches() -> list[SourceRecord]:
    """The latest fetch of every recently loaded source, newest last."""
    with _FETCH_LOCK:
        return list(_FETCHES.values())


def _arg_entry(value: Any) -> dict:
    """One serialized non-oid Skolem argument: its kind and value."""
    if isinstance(value, Atom):
        return {"kind": "atom", "value": str(value.value)}
    return {"kind": "value", "value": str(value)}


class Creator(NamedTuple):
    """One query that creates a Skolem function: its fingerprint, the
    label of the block that creates the function, and its input graph."""

    fingerprint: str
    block: str
    input: str


@dataclass(frozen=True)
class PageRecord:
    """One generated page: url -> site-graph oid -> template, plus the
    site-graph nodes its render read, ordered by name."""

    url: str
    page: Oid
    template: str = ""
    reads: tuple[Oid, ...] = ()

    @property
    def oid(self) -> str:
        """The page oid's display name."""
        return self.page.name


def _creating_blocks(query) -> dict[str, str]:
    """Skolem function -> the label of the block that creates it.

    The first block in preorder whose ``create`` clause names the
    function, labelled as its ``struql.block`` span is (``(top)`` for
    the root); a function no block creates takes the first block that
    links it.
    """
    created: dict[str, str] = {}
    linked: dict[str, str] = {}
    for block in query.blocks():
        label = block.label or "(top)"
        for term in block.creates:
            created.setdefault(term.fn, label)
        for link in block.links:
            for term in (link.source, link.target):
                fn = getattr(term, "fn", None)
                if fn is not None:
                    linked.setdefault(fn, label)
    return {**linked, **created}


class NullLineage:
    """Disabled lineage: every operation is a cheap no-op."""

    enabled = False

    def record_source_nodes(self, source, graph) -> None:
        pass

    def record_query(self, query, graph) -> None:
        pass

    def record_page(self, url, oid, template, reads) -> None:
        pass

    def forget_pages(self, urls) -> None:
        pass

    def sources(self) -> list:
        return []

    def page_records(self) -> list:
        return []

    def __len__(self) -> int:
        return 0


NULL_LINEAGE = NullLineage()


class LineageIndex:
    """Bounded, queryable provenance store.

    Thread safe: ``repro serve`` computes pages from request threads,
    all of which record into one index.  ``len(index)`` counts page
    records.
    """

    enabled = True

    def __init__(self, max_pages: int = MAX_PAGE_RECORDS,
                 max_members: int = MAX_SOURCE_MEMBER_RECORDS) -> None:
        self.max_pages = max_pages
        self.max_members = max_members
        self._lock = threading.Lock()
        #: Skolem function -> query fingerprint -> the entry of each
        #: query that creates it, in the order first recorded.
        self._functions: dict[str, dict[str, Creator]] = {}
        self._members: dict[str, str] = {}  # oid/atom key -> source id
        self._inputs: dict[str, set[str]] = {}  # graph name -> source ids
        self._pages: dict[str, PageRecord] = {}
        self.dropped = 0

    # -- recording ----------------------------------------------------

    def record_source_nodes(self, source: str, graph) -> None:
        """Map every node of a freshly loaded graph to its source."""
        with self._lock:
            for node in graph.nodes():
                if len(self._members) >= self.max_members:
                    self.dropped += 1
                    return
                self._members.setdefault(node.name, source)

    def record_query(self, query, graph) -> None:
        """Record which block of ``query`` creates each Skolem
        function, and the sources ``graph``'s nodes reach."""
        fp = fingerprint(query)
        creators = _creating_blocks(query)
        with self._lock:
            for fn, block in creators.items():
                self._functions.setdefault(fn, {})[fp] = \
                    Creator(fp, block, graph.name)
            self._inputs[graph.name] = self._source_ids(graph.nodes())

    def record_page(self, url: str, oid: Oid, template: str,
                    reads: Iterable[Oid]) -> None:
        """Attach a page to its site-graph node, its template and its
        read set: the nodes its render read."""
        record = PageRecord(url=url, page=oid, template=template,
                            reads=tuple(sorted(set(reads),
                                               key=lambda o: o.name)))
        with self._lock:
            if len(self._pages) >= self.max_pages and url not in self._pages:
                self.dropped += 1
                return
            self._pages[url] = record

    def forget_pages(self, urls: Iterable[str]) -> None:
        """Drop the records of pages that left the site."""
        with self._lock:
            for url in urls:
                self._pages.pop(url, None)

    # -- introspection ------------------------------------------------

    def sources(self) -> list[SourceRecord]:
        """The fetch log, by source name."""
        return sorted(recent_fetches(), key=lambda r: r.source)

    def page_records(self) -> list[PageRecord]:
        with self._lock:
            return sorted(self._pages.values(), key=lambda r: r.url)

    def creators(self, fn: str) -> list[Creator]:
        """The queries that create Skolem function ``fn``."""
        with self._lock:
            return list(self._functions.get(fn, {}).values())

    def source_of(self, key: str) -> SourceRecord | None:
        with self._lock:
            source = self._members.get(key)
        return _FETCHES.get(source) if source else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._pages)

    # -- the backward derivation tree ---------------------------------

    def resolve(self, target: str | Oid
                ) -> tuple[Oid | None, PageRecord | None]:
        """A page url, oid display name or oid -> (oid, page record).

        Pages resolve by url or oid name; other site-graph nodes by
        name among the recorded read sets; data nodes by source
        membership.  An oid resolves to itself.
        """
        name = target.name if isinstance(target, Oid) else target
        with self._lock:
            page = self._pages.get(name) or self._pages.get(name.lstrip("/"))
            if page is not None:
                return page.page, page
            # An oid that is a page: keep its url/template context.
            for record in self._pages.values():
                if record.page.name == name:
                    return record.page, record
            if isinstance(target, Oid):
                return target, None
            for record in self._pages.values():
                for read in record.reads:
                    if read.name == target:
                        return read, None
            if target in self._members:
                return Oid(target), None
        return None, None

    def why(self, target: str | Oid, now: float | None = None,
            max_age: float | None = None) -> dict | None:
        """The backward derivation tree for a page url, oid name or oid.

        Returns ``None`` when the target is unknown.  The document
        nests ``inputs`` recursively: each Skolem argument that is
        itself a Skolem oid expands into its own derivation, and every
        leaf carries its source record when one is known.  A page's
        document also lists ``reads``, the sorted names of its
        complete read set, and its ``sources`` are those of the page
        and of every node it read.
        """
        oid, page = self.resolve(target)
        if oid is None:
            return None
        now = time.time() if now is None else now
        doc: dict[str, Any] = {"target": str(target), "oid": oid.name}
        if page is not None:
            doc["url"] = page.url
            doc["template"] = page.template
            doc["reads"] = [read.name for read in page.reads]
        doc["derivation"] = self._derive(oid, now, frozenset(), 0)
        contributing = self.page_sources(page) if page is not None \
            else self._walk_sources((oid,))
        doc["sources"] = [record.aged(now) for record in contributing]
        ages = [entry["age_seconds"] for entry in doc["sources"]]
        doc["newest_source_age_seconds"] = min(ages) if ages else None
        if max_age is not None:
            doc["stale"] = bool(ages) and min(ages) > max_age
        return doc

    def _derive(self, oid: Oid, now: float, seen: frozenset,
                depth: int) -> dict:
        entry: dict[str, Any] = {"oid": oid.name}
        source = self.source_of(oid.name)
        if source is not None:
            entry["source"] = source.aged(now)
        # A Skolem oid that no recorded query creates (one loaded as
        # data, say) is a leaf like any other data node.
        creators = self.creators(oid.skolem_fn) if oid.skolem_fn else ()
        if not creators or depth >= MAX_WHY_DEPTH or oid in seen:
            return entry
        seen = seen | {oid}
        entry["fn"] = oid.skolem_fn
        entry.update(creators[0]._asdict())
        entry["inputs"] = [
            self._derive(arg, now, seen, depth + 1)
            if isinstance(arg, Oid) else _arg_entry(arg)
            for arg in oid.skolem_args]
        return entry

    def _source_ids(self, oids: Iterable[Oid]) -> set[str]:
        """The ids of the sources reached from ``oids``.

        A node reaches its own source, and a Skolem oid also what its
        oid arguments reach, recursively.  Oids that reach no source
        node (a root page that only links other pages) are credited
        with the sources of the input graphs of every query that
        creates a function passed: the query over the whole input made
        them.  The caller holds the lock.
        """
        sources: set[str] = set()
        inputs: set[str] = set()
        seen: set[Oid] = set()
        stack = list(oids)
        while stack:
            oid = stack.pop()
            if oid in seen:
                continue
            seen.add(oid)
            source = self._members.get(oid.name)
            if source is not None:
                sources.add(source)
            if oid.skolem_fn is not None:
                inputs.update(creator.input for creator in
                              self._functions.get(oid.skolem_fn, {}).values())
                stack.extend(arg for arg in oid.skolem_args
                             if isinstance(arg, Oid))
        if not sources:
            sources = {name for graph in inputs
                       for name in self._inputs.get(graph, ())}
        return sources

    def _walk_sources(self, oids: Iterable[Oid]) -> list[SourceRecord]:
        """The fetch-log records of the sources ``oids`` reach."""
        with self._lock:
            names = self._source_ids(oids)
        return sorted((record for name in names
                       if (record := _FETCHES.get(name)) is not None),
                      key=lambda r: r.source)

    def page_sources(self, page: PageRecord) -> list[SourceRecord]:
        """Every source contributing to a page: the walk from its oid
        and from every node its render read."""
        return self._walk_sources((page.page, *page.reads))

    def summary(self) -> dict:
        with self._lock:
            return {"enabled": True, "sources": len(_FETCHES),
                    "functions": len(self._functions),
                    "members": len(self._members),
                    "pages": len(self._pages), "dropped": self.dropped}


# -- the process-global index -----------------------------------------

_LINEAGE: LineageIndex | NullLineage = NULL_LINEAGE


def get_lineage() -> LineageIndex | NullLineage:
    """The active lineage index (a no-op unless enabled)."""
    return _LINEAGE


def enable_lineage(index: LineageIndex | None = None) -> LineageIndex:
    """Install (and return) a live lineage index."""
    global _LINEAGE
    _LINEAGE = index if index is not None else LineageIndex()
    return _LINEAGE


def disable_lineage() -> None:
    """Return to the no-op index."""
    global _LINEAGE
    _LINEAGE = NULL_LINEAGE


@contextlib.contextmanager
def lineage_recording(index: LineageIndex | None = None) \
        -> Iterator[LineageIndex]:
    """Enable lineage for a scope, restoring the previous index after."""
    global _LINEAGE
    previous = _LINEAGE
    active = enable_lineage(index)
    try:
        yield active
    finally:
        _LINEAGE = previous


# -- freshness --------------------------------------------------------

def freshness_report(index: LineageIndex | NullLineage | None = None,
                     max_age: float | None = None,
                     now: float | None = None) -> dict:
    """Per-source ages plus the pages whose sources exceed ``max_age``.

    A page is *stale* when its **newest** contributing source is older
    than ``max_age`` — i.e. nothing fresh has flowed into it recently.
    """
    index = get_lineage() if index is None else index
    now = time.time() if now is None else now
    sources = [record.aged(now) for record in index.sources()]
    pages = index.page_records()
    stale_pages: list[str] = []
    if max_age is not None and isinstance(index, LineageIndex):
        for page in pages:
            contributing = index.page_sources(page)
            if not contributing:
                continue
            newest = min(max(now - r.fetched_at, 0.0)
                         for r in contributing)
            if newest > max_age:
                stale_pages.append(page.url)
    return {"sources": sources, "stale_pages": stale_pages,
            "max_age_seconds": max_age,
            "pages": len(pages)}


def update_freshness_gauges(metrics, index=None, max_age=None,
                            now=None) -> dict:
    """Export the freshness report as gauges; returns the report.

    Each source's age is one series of the
    ``lineage.source_age_seconds{source}`` family.
    """
    report = freshness_report(index, max_age=max_age, now=now)
    for entry in report["sources"]:
        metrics.gauge("lineage.source_age_seconds", source=entry["source"]
                      ).set(round(entry["age_seconds"], 3))
    metrics.gauge("lineage.sources").set(len(report["sources"]))
    if max_age is not None:
        metrics.gauge("lineage.pages_stale_total").set(
            len(report["stale_pages"]))
    return report


# -- rendering --------------------------------------------------------

def render_why(doc: dict) -> str:
    """The derivation tree as indented text for ``repro why``."""
    lines: list[str] = []
    title = doc.get("url") or doc.get("target", "")
    lines.append(str(title))
    template = doc.get("template")
    if template:
        lines.append(f"└─ template {template}")
    _render_entry(doc.get("derivation", {}), lines, depth=1)
    reads = doc.get("reads", ())
    if reads:
        shown = ", ".join(reads[:4])
        more = f", +{len(reads) - 4} more" if len(reads) > 4 else ""
        lines.append(f"   └─ reads → {shown}{more}")
    sources = doc.get("sources", ())
    if sources:
        lines.append("sources:")
        for entry in sources:
            lines.append(
                f"  - {entry['source']} ({entry['kind']}, "
                f"hash {entry['content_hash'] or '?'}, "
                f"age {entry['age_seconds']:.1f}s, "
                f"{entry['nodes']} nodes / {entry['edges']} edges)")
    if doc.get("stale"):
        lines.append("STALE: newest contributing source is older "
                     "than --max-age")
    return "\n".join(lines)


def _render_entry(entry: dict, lines: list[str], depth: int) -> None:
    pad = "   " * depth
    if "fn" in entry:
        block = entry.get("block") or "(top)"
        fingerprint = entry.get("fingerprint") or "?"
        where = f"block {block} of query {fingerprint}"
        if entry.get("input"):
            where += f" on {entry['input']}"
        lines.append(f"{pad}└─ {entry['oid']}  ← Skolem "
                     f"{entry['fn']}(...) in {where}")
        for child in entry.get("inputs", ()):
            if "oid" in child:
                _render_entry(child, lines, depth + 1)
            else:
                lines.append(f"{pad}   └─ {child.get('kind', 'value')} "
                             f"{child.get('value', '')!r}")
    else:
        source = entry.get("source")
        if source:
            lines.append(
                f"{pad}└─ {entry['oid']}  ← source {source['source']} "
                f"({source['kind']}, age {source['age_seconds']:.1f}s)")
        else:
            lines.append(f"{pad}└─ {entry['oid']}")


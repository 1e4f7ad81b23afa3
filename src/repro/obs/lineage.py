"""Provenance and freshness: the "why" plane of the observability stack.

STRUDEL pages are *derived artifacts*: a source object flows through a
wrapper, a mediator mapping, a StruQL block, a Skolem function, and a
template before it becomes HTML.  The span/metric/event layers (PRs
1/3/4/6) answer "how fast"; this module answers "why does this page
exist, and how stale is it?".

The pieces:

* :class:`SourceRecord` — one per loaded source: wrapper kind, fetch
  timestamp, content hash, node/edge counts.  Stamped by
  :meth:`repro.mediator.sources.DataSource.load` and by the CLI's file
  loaders.
* :class:`NodeRecord` — one per Skolem-minted oid: ``(fn, args, query
  block label, query fingerprint, input graph)``.  Recorded by
  :meth:`repro.struql.skolem.SkolemRegistry.apply`; the block label and
  fingerprint come from a thread-local *query context* that the StruQL
  evaluator (and the click-time :class:`~repro.site.incremental
  .DynamicSite`) push around construction.
* :class:`PageRecord` — ``page url -> (site-graph oid, template name,
  read set)``, where the read set names every site-graph node the
  page's render read: the one dependency record the build cache
  (:mod:`repro.site.buildcache`) and the click-time body views already
  keep.  Recorded by :func:`~repro.site.buildcache.cached_generate` for
  every page of a build (cache-skipped pages take their manifest read
  set) and by :class:`~repro.site.server.DynamicSiteServer` when it
  computes a page body.
* :class:`LineageIndex` — the bounded, queryable store of all of the
  above.  :meth:`LineageIndex.why` walks one path backwards — page ->
  the nodes its render read -> their Skolem mints -> sources — and
  returns a derivation-tree document; :func:`render_why` prints it.
  Nothing is persisted: each build re-records its sources and Skolem
  mints, and the build-cache manifest keeps the read sets.

Like the trace recorder, the global index follows the Null-object
pattern: :func:`get_lineage` returns a no-op unless
:func:`enable_lineage` (or the ``lineage_recording`` context manager)
turned recording on, so the Skolem hot path pays one attribute check
when lineage is off.

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
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

#: Caps keeping the index bounded on long-running servers.
MAX_NODE_RECORDS = 65536
MAX_PAGE_RECORDS = 16384
MAX_SOURCE_MEMBER_RECORDS = 131072

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


def _arg_entry(value: Any) -> dict:
    """One serialized Skolem argument: its kind plus display string."""
    # Imported lazily: graph.model must stay importable without obs.
    from repro.graph.model import Oid
    from repro.graph.values import Atom
    if isinstance(value, Oid):
        return {"kind": "oid", "value": value.name}
    if isinstance(value, Atom):
        return {"kind": "atom", "value": str(value.value)}
    return {"kind": "value", "value": str(value)}


@dataclass
class SourceRecord:
    """Provenance of one loaded source."""

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


@dataclass
class NodeRecord:
    """Provenance of one Skolem-minted oid."""

    oid: str
    fn: str
    args: list = field(default_factory=list)
    block: str = ""
    fingerprint: str = ""
    input: str = ""


@dataclass
class PageRecord:
    """One generated page: url -> site-graph oid -> template, plus the
    sorted names of the site-graph nodes its render read."""

    url: str
    oid: str
    template: str = ""
    reads: tuple[str, ...] = ()


class _QueryContext(threading.local):
    """Thread-local (fingerprint, block label, input graph) stack."""

    def __init__(self) -> None:
        self.stack: list[tuple[str, str, str]] = []


class NullLineage:
    """Disabled lineage: every operation is a cheap no-op."""

    enabled = False

    def record_source(self, record) -> None:
        pass

    def record_source_nodes(self, source, graph) -> None:
        pass

    def record_input(self, graph) -> None:
        pass

    def record_node(self, oid, fn, args) -> None:
        pass

    def record_page(self, url, oid, template, reads) -> None:
        pass

    def forget_pages(self, urls) -> None:
        pass

    @contextlib.contextmanager
    def query_context(self, fingerprint="", block="", input=""):
        yield

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
    all of which record into one index.
    """

    enabled = True

    def __init__(self, max_nodes: int = MAX_NODE_RECORDS,
                 max_pages: int = MAX_PAGE_RECORDS,
                 max_members: int = MAX_SOURCE_MEMBER_RECORDS) -> None:
        self.max_nodes = max_nodes
        self.max_pages = max_pages
        self.max_members = max_members
        self._lock = threading.Lock()
        self._sources: dict[str, SourceRecord] = {}
        self._nodes: dict[str, NodeRecord] = {}
        self._members: dict[str, str] = {}  # oid/atom key -> source id
        self._inputs: dict[str, set[str]] = {}  # graph name -> source ids
        self._pages: dict[str, PageRecord] = {}
        self._context = _QueryContext()
        self.dropped = 0

    # -- recording ----------------------------------------------------

    def record_source(self, record: SourceRecord) -> None:
        """Remember (or refresh) the provenance of one source."""
        with self._lock:
            self._sources[record.source] = record

    def record_source_nodes(self, source: str, graph) -> None:
        """Map every node of a freshly loaded graph to its source."""
        with self._lock:
            for node in graph.nodes():
                if len(self._members) >= self.max_members:
                    self.dropped += 1
                    return
                self._members.setdefault(node.name, source)

    def record_input(self, graph) -> None:
        """Remember the sources a query input graph's nodes reach."""
        with self._lock:
            self._inputs[graph.name] = self._reach(
                node.name for node in graph.nodes())[0]

    def record_node(self, oid, fn: str, args) -> None:
        """Record one Skolem mint, merging the active query context."""
        key = oid.name
        stack = self._context.stack
        ctx = stack[-1] if stack else None
        # Lock-free fast path: Skolem mints repeat for every binding
        # row that references an already-created node, and a plain dict
        # read is safe under the GIL.  First mint wins, but a
        # context-bearing mint upgrades a context-free one (e.g.
        # warm-up vs click-time).
        existing = self._nodes.get(key)
        if existing is not None and (existing.block
                                     or ctx is None or not ctx[1]):
            return
        fingerprint, block, input_name = ctx if ctx else ("", "", "")
        with self._lock:
            existing = self._nodes.get(key)
            if existing is not None and (existing.block or not block):
                return
            if len(self._nodes) >= self.max_nodes and key not in self._nodes:
                self.dropped += 1
                return
            self._nodes[key] = NodeRecord(
                oid=key, fn=fn, args=[_arg_entry(a) for a in args],
                block=block, fingerprint=fingerprint, input=input_name)

    def record_page(self, url: str, oid, template: str,
                    reads: Iterable) -> None:
        """Attach a page to its site-graph node, its template and its
        read set: the nodes (or node names) its render read."""
        key = oid if isinstance(oid, str) else oid.name
        names = tuple(sorted({read if isinstance(read, str) else read.name
                              for read in reads}))
        with self._lock:
            if len(self._pages) >= self.max_pages and url not in self._pages:
                self.dropped += 1
                return
            self._pages[url] = PageRecord(url=url, oid=key,
                                          template=template, reads=names)

    def forget_pages(self, urls: Iterable[str]) -> None:
        """Drop the records of pages that left the site."""
        with self._lock:
            for url in urls:
                self._pages.pop(url, None)

    @contextlib.contextmanager
    def query_context(self, fingerprint: str = "", block: str = "",
                      input: str = "") -> Iterator[None]:
        """Scope Skolem mints to (query fingerprint, block, input)."""
        self._context.stack.append((fingerprint, block, input))
        try:
            yield
        finally:
            self._context.stack.pop()

    # -- introspection ------------------------------------------------

    def sources(self) -> list[SourceRecord]:
        with self._lock:
            return sorted(self._sources.values(),
                          key=lambda r: r.source)

    def page_records(self) -> list[PageRecord]:
        with self._lock:
            return sorted(self._pages.values(), key=lambda r: r.url)

    def node(self, key: str) -> NodeRecord | None:
        with self._lock:
            return self._nodes.get(key)

    def source_of(self, key: str) -> SourceRecord | None:
        with self._lock:
            source = self._members.get(key)
            return self._sources.get(source) if source else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._nodes)

    # -- the backward derivation tree ---------------------------------

    def resolve(self, target: str) -> tuple[str | None, PageRecord | None]:
        """A page url or oid display name -> (oid key, page record)."""
        with self._lock:
            page = self._pages.get(target) \
                or self._pages.get(target.lstrip("/"))
            if page is not None:
                return page.oid, page
            # An oid that is a page: keep its url/template context.
            for record in self._pages.values():
                if record.oid == target:
                    return record.oid, record
            if target in self._nodes or target in self._members:
                return target, None
        return None, None

    def why(self, target: str, now: float | None = None,
            max_age: float | None = None) -> dict | None:
        """The backward derivation tree for a page url or oid name.

        Returns ``None`` when the target is unknown.  The document
        nests ``inputs`` recursively: each Skolem argument that is
        itself a Skolem oid expands into its own derivation, and every
        leaf carries its source record when one is known.  A page's
        document also lists ``reads``, its complete read set, and its
        ``sources`` are those of the page and of every node it read.
        """
        key, page = self.resolve(target)
        if key is None:
            return None
        now = time.time() if now is None else now
        doc: dict[str, Any] = {"target": target, "oid": key}
        if page is not None:
            doc["url"] = page.url
            doc["template"] = page.template
            doc["reads"] = list(page.reads)
        doc["derivation"] = self._derive(key, now, set(), 0)
        contributing = self.page_sources(page) if page is not None \
            else self._walk_sources((key,))
        doc["sources"] = [dict(record.to_dict(),
                               age_seconds=max(now - record.fetched_at, 0.0))
                          for record in contributing]
        ages = [entry["age_seconds"] for entry in doc["sources"]]
        doc["newest_source_age_seconds"] = min(ages) if ages else None
        if max_age is not None:
            doc["stale"] = bool(ages) and min(ages) > max_age
        return doc

    def _derive(self, key: str, now: float, seen: set[str],
                depth: int) -> dict:
        node = self.node(key)
        entry: dict[str, Any] = {"oid": key}
        source = self.source_of(key)
        if source is not None:
            entry["source"] = dict(
                source.to_dict(),
                age_seconds=max(now - source.fetched_at, 0.0))
        if node is None or depth >= MAX_WHY_DEPTH or key in seen:
            return entry
        seen = seen | {key}
        entry.update({"fn": node.fn, "block": node.block,
                      "fingerprint": node.fingerprint,
                      "input": node.input})
        inputs = []
        for arg in node.args:
            if arg.get("kind") == "oid":
                inputs.append(self._derive(arg["value"], now, seen,
                                           depth + 1))
            else:
                inputs.append({"value": arg.get("value", ""),
                               "kind": arg.get("kind", "value")})
        entry["inputs"] = inputs
        return entry

    def _reach(self, keys: Iterable[str]) -> tuple[set[str], set[str]]:
        """The ids of the sources reached from ``keys`` — a node's own
        source, and the same for each Skolem argument that is an oid,
        recursively — and the input graphs of the Skolem mints passed.
        The caller holds the lock."""
        sources: set[str] = set()
        inputs: set[str] = set()
        seen: set[str] = set()
        stack = list(keys)
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            if key in self._members:
                sources.add(self._members[key])
            node = self._nodes.get(key)
            if node is not None:
                inputs.add(node.input)
                stack.extend(arg["value"] for arg in node.args
                             if arg.get("kind") == "oid")
        return sources, inputs

    def _walk_sources(self, keys: Iterable[str]) -> list[SourceRecord]:
        """Every source reached from ``keys`` (see :meth:`_reach`).

        Keys that reach no source node (a root page that only links
        other pages) are credited with the sources of their Skolem
        mints' input graphs: the query over the whole input made them.
        """
        with self._lock:
            sources, inputs = self._reach(keys)
            if not sources:
                sources = {name for graph in inputs
                           for name in self._inputs.get(graph, ())}
            return sorted((self._sources[name] for name in sources
                           if name in self._sources),
                          key=lambda r: r.source)

    def page_sources(self, page: PageRecord) -> list[SourceRecord]:
        """Every source contributing to a page: the walk from its oid
        and from every node its render read."""
        return self._walk_sources((page.oid, *page.reads))

    def summary(self) -> dict:
        with self._lock:
            return {"enabled": True, "sources": len(self._sources),
                    "nodes": len(self._nodes),
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
    sources = [dict(record.to_dict(),
                    age_seconds=max(now - record.fetched_at, 0.0))
               for record in index.sources()]
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


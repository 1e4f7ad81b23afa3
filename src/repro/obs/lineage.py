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
* :class:`PageRecord` — ``page url -> (site-graph oid, template name)``
  edges attached by the site builder / :class:`HtmlGenerator`.
* :class:`LineageIndex` — the bounded, queryable store of all of the
  above.  :meth:`LineageIndex.why` walks the chain backwards and
  returns a derivation-tree document; :func:`render_why` prints it.
  The index serializes to JSON next to the BuildCache manifest
  (``lineage.json``) so lineage survives incremental rebuilds.

Like the trace recorder, the global index follows the Null-object
pattern: :func:`get_lineage` returns a no-op unless
:func:`enable_lineage` (or the ``lineage_recording`` context manager)
turned recording on, so the Skolem hot path pays one attribute check
when lineage is off.

Freshness rides on top: :func:`freshness_report` ages every source
record, flags pages whose *newest* contributing source is older than
``max_age``, and :func:`update_freshness_gauges` exports the result as
``lineage.source_age_seconds.<source>`` gauges plus a
``lineage.pages_stale_total`` gauge for Prometheus scrapes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

#: Caps keeping the index bounded on long-running servers.
MAX_NODE_RECORDS = 65536
MAX_PAGE_RECORDS = 16384
MAX_SOURCE_MEMBER_RECORDS = 131072

#: Serialized-index schema version and file name (lives next to the
#: BuildCache manifest).
LINEAGE_SCHEMA = 1
LINEAGE_NAME = "lineage.json"

#: Depth cap for derivation-tree walks (a Skolem arg can itself be a
#: Skolem oid, e.g. ``PersonCard(PersonPage(p))``).
MAX_WHY_DEPTH = 8

#: Link-target dependencies kept per created node.  Zero-argument
#: Skolem pages (``OrgIndex()``) reach their sources only through the
#: edges linked out of them, so construction records those too.
MAX_DEPS_PER_NODE = 32

#: Lazily cached Oid type — this module must not import the graph
#: model at import time (skolem.py imports us), and a per-call import
#: in record_dep shows up in build profiles.
_OID = None


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


@dataclass(eq=False)  # identity hash: records live in sets
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

    @staticmethod
    def from_dict(data: dict) -> "SourceRecord":
        return SourceRecord(
            source=str(data.get("source", "")),
            kind=str(data.get("kind", "loader")),
            fetched_at=float(data.get("fetched_at", 0.0)),
            content_hash=str(data.get("content_hash", "")),
            nodes=int(data.get("nodes", 0)),
            edges=int(data.get("edges", 0)),
            version=int(data.get("version", 0)))


@dataclass
class NodeRecord:
    """Provenance of one Skolem-minted oid."""

    oid: str
    fn: str
    args: list = field(default_factory=list)
    block: str = ""
    fingerprint: str = ""
    input: str = ""

    def to_dict(self) -> dict:
        return {"oid": self.oid, "fn": self.fn, "args": self.args,
                "block": self.block, "fingerprint": self.fingerprint,
                "input": self.input}

    @staticmethod
    def from_dict(data: dict) -> "NodeRecord":
        return NodeRecord(
            oid=str(data.get("oid", "")), fn=str(data.get("fn", "")),
            args=list(data.get("args", ())),
            block=str(data.get("block", "")),
            fingerprint=str(data.get("fingerprint", "")),
            input=str(data.get("input", "")))


@dataclass
class PageRecord:
    """One generated page: url -> site-graph oid -> template."""

    url: str
    oid: str
    template: str = ""

    def to_dict(self) -> dict:
        return {"url": self.url, "oid": self.oid,
                "template": self.template}

    @staticmethod
    def from_dict(data: dict) -> "PageRecord":
        return PageRecord(url=str(data.get("url", "")),
                          oid=str(data.get("oid", "")),
                          template=str(data.get("template", "")))


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

    def record_node(self, oid, fn, args) -> None:
        pass

    def record_page(self, url, oid, template="") -> None:
        pass

    def record_dep(self, oid, target) -> None:
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
        # oid -> linked node keys (dict-as-ordered-set: membership is
        # checked once per link row, so O(1) matters).
        self._deps: dict[str, dict[str, None]] = {}
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

    def record_dep(self, oid, target) -> None:
        """Record that a created node links to ``target`` (a node)."""
        global _OID
        if _OID is None:
            from repro.graph.model import Oid
            _OID = Oid
        if not isinstance(target, _OID):
            return
        key = oid.name
        target_name = target.name
        if target_name == key:
            return
        # Lock-free fast path for the common repeat (every binding row
        # re-adds the same edge) and for saturated dep lists.
        deps = self._deps.get(key)
        if deps is not None and (target_name in deps
                                 or len(deps) >= MAX_DEPS_PER_NODE):
            return
        with self._lock:
            deps = self._deps.setdefault(key, {})
            if target_name not in deps and len(deps) < MAX_DEPS_PER_NODE:
                deps[target_name] = None

    def record_page(self, url: str, oid, template: str = "") -> None:
        """Attach a generated page to its site-graph node + template."""
        key = oid if isinstance(oid, str) else oid.name
        with self._lock:
            if len(self._pages) >= self.max_pages and url not in self._pages:
                self.dropped += 1
                return
            self._pages[url] = PageRecord(url=url, oid=key,
                                          template=template)

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
        leaf carries its source record when one is known.
        """
        key, page = self.resolve(target)
        if key is None:
            return None
        now = time.time() if now is None else now
        doc: dict[str, Any] = {"target": target, "oid": key}
        if page is not None:
            doc["url"] = page.url
            doc["template"] = page.template
        doc["derivation"] = self._derive(key, now, set(), 0)
        contributing = sorted(self._collect_sources(key, set(), 0),
                              key=lambda r: r.source)
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
        with self._lock:
            deps = list(self._deps.get(key, ()))
        if deps:
            entry["links"] = deps
        return entry

    def _collect_sources(self, key: str, seen: set[str],
                         depth: int) -> set[SourceRecord]:
        out: set[SourceRecord] = set()
        if key in seen or depth > MAX_WHY_DEPTH:
            return out
        seen.add(key)
        source = self.source_of(key)
        if source is not None:
            out.add(source)
        node = self.node(key)
        if node is not None:
            if node.input:
                with self._lock:
                    record = self._sources.get(node.input)
                if record is not None:
                    out.add(record)
            for arg in node.args:
                if arg.get("kind") == "oid":
                    out |= self._collect_sources(arg["value"], seen,
                                                 depth + 1)
        with self._lock:
            deps = list(self._deps.get(key, ()))
        for dep in deps:
            out |= self._collect_sources(dep, seen, depth + 1)
        return out

    def page_sources(self, key: str) -> list[SourceRecord]:
        """Every source contributing to one oid's derivation."""
        return sorted(self._collect_sources(key, set(), 0),
                      key=lambda r: r.source)

    # -- persistence --------------------------------------------------

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "schema": LINEAGE_SCHEMA,
                "sources": [r.to_dict() for r in self._sources.values()],
                "nodes": [r.to_dict() for r in self._nodes.values()],
                "members": dict(self._members),
                "deps": {key: list(deps)
                         for key, deps in self._deps.items()},
                "pages": [r.to_dict() for r in self._pages.values()],
            }

    def merge_dict(self, data: dict) -> None:
        """Merge a serialized index; records already present win.

        This is the incremental-rebuild path: the fresh build re-records
        everything it touched, then merges the previous build's file so
        untouched (cache-skipped) pages keep their lineage.
        """
        if int(data.get("schema", 0)) != LINEAGE_SCHEMA:
            return
        for entry in data.get("sources", ()):  # refresh wins on sources
            record = SourceRecord.from_dict(entry)
            with self._lock:
                self._sources.setdefault(record.source, record)
        for entry in data.get("nodes", ()):
            record = NodeRecord.from_dict(entry)
            with self._lock:
                if len(self._nodes) < self.max_nodes:
                    self._nodes.setdefault(record.oid, record)
        with self._lock:
            for key, source in dict(data.get("members", {})).items():
                if len(self._members) >= self.max_members:
                    break
                self._members.setdefault(str(key), str(source))
            for key, deps in dict(data.get("deps", {})).items():
                self._deps.setdefault(str(key), dict.fromkeys(
                    [str(d) for d in deps][:MAX_DEPS_PER_NODE]))
        for entry in data.get("pages", ()):
            record = PageRecord.from_dict(entry)
            with self._lock:
                if len(self._pages) < self.max_pages:
                    self._pages.setdefault(record.url, record)

    def save(self, path: str) -> None:
        """Write the index to ``path`` atomically: a save that dies
        midway leaves the previous file intact."""
        # Imported here: repro.repository imports repro.obs.
        from repro.repository.storage import write_atomic
        write_atomic(path, json.dumps(self.to_dict(), indent=1))

    def load(self, path: str) -> bool:
        """Merge a previously saved index; False when absent/corrupt."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return False
        if not isinstance(data, dict):
            return False
        self.merge_dict(data)
        return True

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
    stale_pages: list[str] = []
    if max_age is not None and isinstance(index, LineageIndex):
        for page in index.page_records():
            contributing = index.page_sources(page.oid)
            if not contributing:
                continue
            newest = min(max(now - r.fetched_at, 0.0)
                         for r in contributing)
            if newest > max_age:
                stale_pages.append(page.url)
    return {"sources": sources, "stale_pages": stale_pages,
            "max_age_seconds": max_age,
            "pages": len(index.page_records())}


def update_freshness_gauges(metrics, index=None, max_age=None,
                            now=None) -> dict:
    """Export the freshness report as gauges; returns the report.

    The metrics registry has no label support, so per-source series use
    the established suffix convention:
    ``lineage.source_age_seconds.<source>``.
    """
    report = freshness_report(index, max_age=max_age, now=now)
    for entry in report["sources"]:
        metrics.gauge(
            f"lineage.source_age_seconds.{entry['source']}"
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
        links = entry.get("links", ())
        if links:
            shown = ", ".join(links[:4])
            more = f", +{len(links) - 4} more" if len(links) > 4 else ""
            lines.append(f"{pad}   └─ links → {shown}{more}")
    else:
        source = entry.get("source")
        if source:
            lines.append(
                f"{pad}└─ {entry['oid']}  ← source {source['source']} "
                f"({source['kind']}, age {source['age_seconds']:.1f}s)")
        else:
            lines.append(f"{pad}└─ {entry['oid']}")


def lineage_path(directory: str) -> str:
    """Where the serialized index lives next to a BuildCache manifest."""
    return os.path.join(directory, LINEAGE_NAME)

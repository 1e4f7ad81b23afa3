"""Content-hash build cache + rebuild planner: the offline incremental
site update of paper section 6 ([FER 98c]).

STRUDEL's core promise is cheap regeneration: "multiple versions of a
site can be generated from the same data".  Regenerating a large site
from scratch on every data edit throws that away, so this module makes
``Website.build_site(out, cache_dir=...)`` / ``repro build`` — the one
offline build path — *incremental*:

* :class:`BuildCache` — a persistent cache directory holding a
  manifest (per-page content fingerprints, the template-set hash, the
  generator options) plus the previous build's site graph.  A page is
  skipped when its fingerprint, the templates, the options **and** its
  output file are all unchanged.
* the **rebuild planner** (:meth:`BuildCache.plan`) — diffs the old
  site graph against the new one (:func:`repro.site.diff.diff_graphs`)
  and invalidates only the pages reachable from changed data-graph
  nodes (:meth:`~repro.site.diff.SiteDiff.dirty_pages`'s conservative
  reverse closure); clean pages skip without even being fingerprinted.
* :func:`cached_generate` — the one-call pipeline used by both
  :meth:`repro.site.builder.Website.build_site` and ``repro build
  --cache-dir/--incremental``: plan, render only the dirty pages,
  delete removed pages' files, persist the updated manifest.

Crash safety: before the first page file is written, the manifest is
atomically rewritten without the fingerprints of the pages about to
render and without the site hash, so a build killed at any point
leaves a cache that makes the next build re-render whatever it may
have half-done.  ``site.json`` and the final manifest are then written
in that order, each atomically.

Fingerprints are content hashes over a page's *forward-reachable*
subgraph (its bindings: every node, edge, atom and collection
membership its template can possibly traverse), so they are sound for
the template language's forward-only attribute paths.  Template edits
hash into ``templates_hash`` and invalidate everything — the safe
interpretation of "the same templates are used in both sites".

Known limitation: external file contents referenced through
``Atom.file`` and resolved by a :class:`~repro.templates.formats
.FileLoader` are not fingerprinted; touch the cache directory (or pass
a fresh one) after editing referenced files.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from repro.graph.model import Graph, Oid
from repro.graph.serialization import graph_from_json, graph_to_json
from repro.obs.lineage import get_lineage, lineage_path
from repro.obs.trace import get_recorder
from repro.repository.storage import write_atomic
from repro.site.diff import diff_graphs
from repro.templates.generator import HtmlGenerator, TemplateSet

#: Manifest schema version; bump on incompatible layout changes.
CACHE_SCHEMA = 1

#: File names inside a cache directory.
MANIFEST_NAME = "manifest.json"
SITE_GRAPH_NAME = "site.json"

#: Default cache directory name when ``--incremental`` is given
#: without ``--cache-dir`` (created inside the output directory).
DEFAULT_CACHE_DIRNAME = ".buildcache"


def _sha(*parts: str) -> str:
    digest = hashlib.sha1()
    for part in parts:
        digest.update(part.encode("utf-8", "surrogatepass"))
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def hash_templates(templates: TemplateSet) -> str:
    """A stable content hash of a whole template set.

    Covers names, sources and page-ness, so editing, adding, removing
    or re-flagging any template changes the hash (and invalidates the
    cache — templates select dynamically per object, so per-template
    dependency tracking would be unsound).
    """
    parts: list[str] = []
    for name in templates.names():
        template = templates.get(name)
        source = template.source if template is not None else ""
        parts.append(f"{name}\x01{int(templates.is_page_template(name))}"
                     f"\x01{source}")
    return _sha(*parts)


def hash_options(options: dict | None) -> str:
    """A stable hash of generator options (sorted-key JSON)."""
    return _sha(json.dumps(options or {}, sort_keys=True, default=str))


def _object_key(obj) -> str:
    """A collision-averse string form of a graph object (type-tagged)."""
    return f"{type(obj).__name__}:{obj!r}"


def _local_hash(graph: Graph, node: Oid) -> str:
    """Hash of one node's own content: identity, out-edges, collections."""
    edges = sorted((edge.label, _object_key(edge.target))
                   for edge in graph.out_edges(node))
    return _sha(_object_key(node),
                *(f"{label}\x01{target}" for label, target in edges),
                *sorted(graph.collections_of(node)))


def site_content_hash(graph: Graph,
                      local_hashes: dict[Oid, str] | None = None) -> str:
    """One hash over the whole site graph's content.

    A warm rebuild whose site hash matches the manifest skips every
    page immediately — no old-graph deserialization, no diff, no
    per-page fingerprints.  Combines every node's local hash (which
    already covers out-edges and collection memberships).
    """
    if local_hashes is None:
        local_hashes = {}
    parts = []
    for node in graph.nodes():
        cached = local_hashes.get(node)
        if cached is None:
            cached = local_hashes[node] = _local_hash(graph, node)
        parts.append(cached)
    return _sha(*sorted(parts))


def page_fingerprint(graph: Graph, page: Oid,
                     local_hashes: dict[Oid, str] | None = None) -> str:
    """Content fingerprint of everything ``page``'s HTML can depend on.

    The rendered page is a function of the forward-reachable subgraph
    (templates only traverse outgoing attribute paths, embed successors,
    and select on collections), so the fingerprint combines the *local*
    hashes — node identity, out-edges, atom values, collection
    memberships — of every node reachable from the page.  ``local_hashes``
    memoizes per-node work across the pages of one build.
    """
    if local_hashes is None:
        local_hashes = {}
    reached: list[str] = []
    frontier = [page]
    seen = {page}
    while frontier:
        node = frontier.pop()
        cached = local_hashes.get(node)
        if cached is None:
            cached = local_hashes[node] = _local_hash(graph, node)
        reached.append(cached)
        for edge in graph.out_edges(node):
            target = edge.target
            if isinstance(target, Oid) and target not in seen:
                seen.add(target)
                frontier.append(target)
    return _sha(*sorted(reached))


@dataclass
class BuildPlan:
    """What one cache-aware build will actually do."""

    #: Pages to render, in deterministic (sorted) order.
    render: list[Oid] = field(default_factory=list)
    #: Pages skipped because cache + diff prove them unchanged.
    skipped: list[Oid] = field(default_factory=list)
    #: Output file names (relative to ``out_dir``) of removed pages.
    stale_files: list[str] = field(default_factory=list)
    #: Why the plan shaped up this way: ``cold``, ``templates-changed``,
    #: ``options-changed``, ``schema-changed`` or ``incremental``.
    reason: str = "cold"
    #: Fingerprints already computed while planning (reused by record).
    fingerprints: dict[str, str] = field(default_factory=dict)
    #: True when the site-hash fast path proved the cache state is
    #: already exact — recording would rewrite identical files.
    unchanged: bool = False

    @property
    def total_pages(self) -> int:
        return len(self.render) + len(self.skipped)

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of pages served from cache (0 when no pages)."""
        total = self.total_pages
        return len(self.skipped) / total if total else 0.0


class BuildCache:
    """A persistent, content-hash-keyed site build cache.

    One directory holds a JSON manifest — per-page fingerprints keyed
    by oid, the template-set hash and the generator-options hash — and
    the previous build's site graph for the diff-based rebuild planner.
    Corrupt or mismatched state degrades to a cold build, never to a
    wrong one.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.manifest_path = os.path.join(directory, MANIFEST_NAME)
        self.site_graph_path = os.path.join(directory, SITE_GRAPH_NAME)
        self.manifest: dict | None = None
        self._old_site: Graph | None = None

    # -- persistence -----------------------------------------------------------

    def load(self) -> bool:
        """Read the manifest; ``False`` (cold) when absent or corrupt."""
        try:
            with open(self.manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError):
            self.manifest = None
            return False
        if not isinstance(manifest, dict) \
                or manifest.get("schema") != CACHE_SCHEMA \
                or not isinstance(manifest.get("pages"), dict):
            self.manifest = None
            return False
        self.manifest = manifest
        return True

    def old_site_graph(self) -> Graph | None:
        """The previous build's site graph, if it deserializes."""
        if self._old_site is None:
            try:
                with open(self.site_graph_path,
                          encoding="utf-8") as handle:
                    self._old_site = graph_from_json(handle.read())
            except (OSError, ValueError, KeyError,
                    json.JSONDecodeError):
                return None
        return self._old_site

    # -- planning --------------------------------------------------------------

    def plan(self, site: Graph, generator: HtmlGenerator,
             templates: TemplateSet, out_dir: str,
             options: dict | None = None) -> BuildPlan:
        """Decide which pages must render and which can be skipped."""
        pages = sorted(generator.pages(), key=str)
        templates_hash = hash_templates(templates)
        options_hash = hash_options(options)
        plan = BuildPlan()
        if self.manifest is None:
            self.load()
        manifest = self.manifest
        if manifest is None:
            plan.reason = "cold"
        elif manifest.get("templates_hash") != templates_hash:
            plan.reason = "templates-changed"
        elif manifest.get("options_hash") != options_hash:
            plan.reason = "options-changed"
        else:
            plan.reason = "incremental"
        old_pages: dict[str, dict] = manifest["pages"] if manifest else {}
        current = {str(page) for page in pages}
        plan.stale_files = sorted(
            entry["url"] for key, entry in old_pages.items()
            if key not in current and entry.get("url"))
        if plan.reason != "incremental":
            plan.render = pages
            return plan

        assert manifest is not None
        local_hashes: dict[Oid, str] = {}
        dirty: set[Oid] | None = None  # None = fingerprint everything
        # Fast path: an identical site hash proves nothing changed
        # without loading the old graph or diffing at all.
        if manifest.get("site_hash") == site_content_hash(site,
                                                          local_hashes):
            dirty = set()
            plan.unchanged = True
        else:
            old_site = self.old_site_graph()
            if old_site is not None:
                diff = diff_graphs(old_site, site)
                if diff.empty:
                    dirty = set()
                elif not diff.collection_changes:
                    dirty = diff.dirty_pages(site, generator)
                # Collection-membership changes can affect template
                # selection without any edge delta; fall back to
                # fingerprinting every page (dirty = None) — still no
                # re-render unless content truly changed.
        for page in pages:
            key = str(page)
            entry = old_pages.get(key)
            out_path = os.path.join(out_dir, generator.url_for(page))
            # No fingerprint: a killed build may have half-rendered it.
            if entry is None or "fingerprint" not in entry \
                    or not os.path.exists(out_path):
                plan.render.append(page)
                continue
            if dirty is not None and page not in dirty:
                plan.skipped.append(page)
                plan.fingerprints[key] = entry["fingerprint"]
                continue
            fp = page_fingerprint(site, page, local_hashes)
            plan.fingerprints[key] = fp
            if fp == entry["fingerprint"]:
                plan.skipped.append(page)
            else:
                plan.render.append(page)
        plan.unchanged = (plan.unchanged and not plan.render
                          and not plan.stale_files)
        return plan

    # -- recording -------------------------------------------------------------

    def begin(self, generator: HtmlGenerator, templates: TemplateSet,
              plan: BuildPlan, options: dict | None = None) -> None:
        """Forget the fingerprints of the pages about to render.

        Called before the first page file is written: until
        :meth:`record` succeeds, the manifest names every page of
        ``plan.render`` (so its file is deleted if the page leaves the
        site) without a fingerprint (so it renders again) and holds no
        site hash (so the no-change fast path cannot fire).
        """
        if not plan.render:
            return
        pages = dict(self.manifest["pages"]) if self.manifest else {}
        for page in plan.render:
            pages[str(page)] = {"url": generator.url_for(page)}
        self._write_manifest(templates, options, pages)

    def record(self, site: Graph, generator: HtmlGenerator,
               templates: TemplateSet, plan: BuildPlan,
               options: dict | None = None) -> None:
        """Persist the post-build state: site graph, then manifest."""
        local_hashes: dict[Oid, str] = {}
        entries: dict[str, dict] = {}
        for page in plan.render + plan.skipped:
            key = str(page)
            fp = plan.fingerprints.get(key)
            if fp is None:
                fp = page_fingerprint(site, page, local_hashes)
            entries[key] = {"url": generator.url_for(page),
                            "fingerprint": fp}
        os.makedirs(self.directory, exist_ok=True)
        write_atomic(self.site_graph_path, graph_to_json(site))
        self._old_site = site
        self._write_manifest(templates, options, entries,
                             site_content_hash(site, local_hashes))

    def _write_manifest(self, templates: TemplateSet, options: dict | None,
                        pages: dict[str, dict],
                        site_hash: str | None = None) -> None:
        manifest = {
            "schema": CACHE_SCHEMA,
            "templates_hash": hash_templates(templates),
            "options_hash": hash_options(options),
            "pages": pages,
        }
        if site_hash is not None:
            manifest["site_hash"] = site_hash
        os.makedirs(self.directory, exist_ok=True)
        write_atomic(self.manifest_path, json.dumps(manifest, indent=1))
        self.manifest = manifest


@dataclass
class BuildReport:
    """The outcome of one (possibly cached) build."""

    written: dict[Oid, str]
    skipped: list[Oid] = field(default_factory=list)
    removed_files: list[str] = field(default_factory=list)
    reason: str = "full"
    seconds: float = 0.0

    @property
    def pages_rendered(self) -> int:
        return len(self.written)

    @property
    def pages_skipped(self) -> int:
        return len(self.skipped)

    @property
    def cache_hit_ratio(self) -> float:
        total = self.pages_rendered + self.pages_skipped
        return self.pages_skipped / total if total else 0.0

    def summary(self) -> str:
        """One-line human summary (the CLI's build report line)."""
        return (f"wrote {self.pages_rendered} pages "
                f"({self.pages_skipped} cached, {self.reason})")


def cached_generate(site: Graph, generator: HtmlGenerator,
                    templates: TemplateSet, out_dir: str,
                    cache: BuildCache | str | None = None,
                    options: dict | None = None) -> BuildReport:
    """Plan, render, clean up, and persist one build.

    Without ``cache`` this is a plain full build through
    :meth:`HtmlGenerator.generate_site`.  With one, only the pages the
    planner proves dirty are rendered, files of pages that left the
    site are deleted, and the manifest is updated for the next run.
    Emits the ``site.build.*`` metrics either way.
    """
    import time

    if isinstance(cache, str):
        cache = BuildCache(cache)
    recorder = get_recorder()
    started = time.perf_counter()
    with recorder.span("site.generate", out_dir=out_dir) as span:
        if cache is None:
            written = generator.generate_site(out_dir)
            report = BuildReport(written, reason="full")
        else:
            plan = cache.plan(site, generator, templates, out_dir,
                              options=options)
            cache.begin(generator, templates, plan, options=options)
            written = generator.generate_site(out_dir, pages=plan.render)
            removed: list[str] = []
            for name in plan.stale_files:
                path = os.path.join(out_dir, name)
                if os.path.exists(path):
                    os.unlink(path)
                    removed.append(path)
            if not plan.unchanged:  # a no-op plan leaves the exact state
                cache.record(site, generator, templates, plan,
                             options=options)
            report = BuildReport(written, skipped=list(plan.skipped),
                                 removed_files=removed,
                                 reason=plan.reason)
        report.seconds = time.perf_counter() - started
        span.set(pages=report.pages_rendered,
                 skipped=report.pages_skipped, reason=report.reason)
    metrics = recorder.metrics
    metrics.counter("site.build.pages_rendered").inc(
        report.pages_rendered)
    metrics.counter("site.build.pages_skipped").inc(
        report.pages_skipped)
    metrics.gauge("site.build.cache_hit_ratio").set(
        report.cache_hit_ratio)
    metrics.histogram("site.build.seconds").observe(report.seconds)
    metrics.counter("site.pages_built").inc(report.pages_rendered)
    lineage = get_lineage()
    if lineage.enabled and cache is not None:
        # Serialize lineage next to the manifest so provenance survives
        # incremental rebuilds: merge the previous build's file first
        # (fresh records win), then rewrite it.
        path = lineage_path(cache.directory)
        lineage.load(path)
        lineage.save(path)
    return report

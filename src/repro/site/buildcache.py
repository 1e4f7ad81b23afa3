"""Read-set build cache + rebuild planner: the offline incremental
site update of paper section 6 ([FER 98c]).

STRUDEL's core promise is cheap regeneration: "multiple versions of a
site can be generated from the same data".  Regenerating a large site
from scratch on every data edit throws that away, so this module makes
``Website.build_site(out, cache_dir=...)`` / ``repro build`` — the one
offline build path — *incremental*:

* :class:`BuildCache` — a persistent cache directory holding one
  manifest: the template-set hash, the generator-options hash, per page
  its URL and the names of the site-graph nodes its last render read,
  and a ``nodes`` table with the content hash of every node read.
* the **rebuild planner** (:meth:`BuildCache.plan`) — rehashes the
  table's nodes on the new site graph.  A page renders when it has no
  entry, its output file is missing, or it read a node that changed;
  every other page is skipped.
* :func:`cached_generate` — the one-call pipeline used by both
  :meth:`repro.site.builder.Website.build_site` and ``repro build
  --cache-dir/--incremental``: plan, render only the dirty pages while
  recording what each one reads, delete removed pages' files, persist
  the updated manifest.  With lineage recording on
  (:mod:`repro.obs.lineage`), every page of the build joins the lineage
  index with its read set — for skipped pages, the manifest's names
  resolved to the site graph's nodes — so the provenance walk and the
  rebuild planner share one dependency record.

Read sets are sound because the generator reads its graph only through
``get``, ``get_one`` and ``collections_of``, and each answer is a
function of one node's out-edges (in edge order) or collection
memberships — exactly what :func:`_local_hash` covers.  A page whose
read nodes all hash as before reads the same answers, takes the same
path through its templates and writes the same bytes.  The record is
per node, not per (node, label), and includes reads that found nothing
(an absent ``@office`` tested by ``SIF``) and reads of linked pages
(their page-ness and link text).

Crash safety: before the first page file is written, the manifest is
atomically rewritten without the read sets of the pages about to
render, so a build killed at any point leaves a cache that makes the
next build re-render whatever it may have half-done.  The final
manifest is one more atomic write.

Template edits hash into ``templates_hash`` and invalidate everything —
the safe interpretation of "the same templates are used in both
sites".

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
from typing import Iterable

from repro.fileio import write_atomic
from repro.graph.model import Graph, Oid
from repro.obs.lineage import get_lineage
from repro.obs.trace import TimedResult, get_recorder, timed
from repro.templates.generator import HtmlGenerator, TemplateSet

#: Manifest schema version; bump on incompatible layout changes.
CACHE_SCHEMA = 2

#: File name of the manifest inside a cache directory.
MANIFEST_NAME = "manifest.json"

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
    """Hash of one node's own content: identity, out-edges, collections.

    Identity includes the Skolem function name, which template
    selection reads.  Out-edges hash in edge order: ``SFOR`` and
    ``SFMTLIST`` without ``ORDER`` render a multi-valued attribute in
    that order, so reordering it must dirty the pages that read the
    node.
    """
    return _sha(_object_key(node), node.skolem_fn or "",
                *(f"{edge.label}\x01{_object_key(edge.target)}"
                  for edge in graph.out_edges(node)),
                *graph.collections_of(node))


def _nodes_by_name(graph: Graph) -> dict[str, Oid | None]:
    """Each node name's node; ``None`` for a name several nodes share."""
    by_name: dict[str, Oid | None] = {}
    for node in graph.nodes():
        by_name[node.name] = None if node.name in by_name else node
    return by_name


@dataclass
class BuildPlan:
    """What one cache-aware build will actually do."""

    #: Pages to render, in deterministic (sorted) order.
    render: list[Oid] = field(default_factory=list)
    #: Pages skipped because none of the nodes they read changed.
    skipped: list[Oid] = field(default_factory=list)
    #: Output file names (relative to ``out_dir``) of removed pages.
    stale_files: list[str] = field(default_factory=list)
    #: Why the plan shaped up this way: ``cold``, ``templates-changed``,
    #: ``options-changed`` or ``incremental``.
    reason: str = "cold"
    #: Hashes on the new site graph of the manifest's nodes that still
    #: name exactly one node (reused by record).
    node_hashes: dict[str, str] = field(default_factory=dict)
    #: True when no page renders, no file is stale and no read node
    #: changed: the cache state is already exact, and recording would
    #: rewrite an identical manifest.
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
    """A persistent, read-set-keyed site build cache.

    One directory holds a JSON manifest: the template-set hash, the
    generator-options hash, per page (keyed by oid) its URL and the
    sorted names of the nodes its render read, and the ``nodes`` table
    of their content hashes.  Corrupt or mismatched state degrades to
    a cold build, never to a wrong one.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.manifest_path = os.path.join(directory, MANIFEST_NAME)
        self.manifest: dict | None = None

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
                or not isinstance(manifest.get("pages"), dict) \
                or not isinstance(manifest.get("nodes"), dict):
            self.manifest = None
            return False
        self.manifest = manifest
        return True

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
        # A node is clean when its name still names exactly one node
        # and that node hashes as before; a vanished or ambiguous name
        # counts as changed.
        by_name = _nodes_by_name(site)
        clean: set[str] = set()
        for name, old_hash in manifest["nodes"].items():
            node = by_name.get(name)
            if node is None:
                continue
            new_hash = plan.node_hashes[name] = _local_hash(site, node)
            if new_hash == old_hash:
                clean.add(name)
        for page in pages:
            entry = old_pages.get(str(page))
            out_path = os.path.join(out_dir, generator.url_for(page))
            # No read set: a killed build may have half-rendered it.
            if entry is None or "reads" not in entry \
                    or not os.path.exists(out_path) \
                    or not clean.issuperset(entry["reads"]):
                plan.render.append(page)
            else:
                plan.skipped.append(page)
        plan.unchanged = not plan.render and not plan.stale_files \
            and len(clean) == len(manifest["nodes"])
        return plan

    # -- recording -------------------------------------------------------------

    def begin(self, generator: HtmlGenerator, templates: TemplateSet,
              plan: BuildPlan, options: dict | None = None) -> None:
        """Forget the read sets of the pages about to render.

        Called before the first page file is written: until
        :meth:`record` succeeds, the manifest names every page of
        ``plan.render`` (so its file is deleted if the page leaves the
        site) without a read set (so it renders again).
        """
        if not plan.render:
            return
        manifest = self.manifest or {}
        pages = dict(manifest.get("pages", {}))
        for page in plan.render:
            pages[str(page)] = {"url": generator.url_for(page)}
        self._write_manifest(templates, options, pages,
                             manifest.get("nodes", {}))

    def record(self, site: Graph, generator: HtmlGenerator,
               templates: TemplateSet, plan: BuildPlan,
               reads: dict[Oid, set[Oid]],
               options: dict | None = None) -> None:
        """Persist the post-build state in one manifest write.

        Rendered pages get the read sets their renders recorded
        (``reads``, from :meth:`HtmlGenerator.generate_site`); skipped
        pages keep their entries; every node read is hashed on ``site``.
        """
        old_pages = self.manifest["pages"] if self.manifest else {}
        hashes = plan.node_hashes
        entries: dict[str, dict] = {}
        nodes: dict[str, str] = {}
        for page in plan.skipped:
            key = str(page)
            entry = entries[key] = old_pages[key]
            for name in entry["reads"]:
                nodes[name] = hashes[name]
        for page in plan.render:
            read = {node.name: node for node in reads[page]}
            for name, node in read.items():
                if name not in nodes:
                    nodes[name] = hashes.get(name) \
                        or _local_hash(site, node)
            entries[str(page)] = {"url": generator.url_for(page),
                                  "reads": sorted(read)}
        self._write_manifest(templates, options, entries, nodes)

    def _write_manifest(self, templates: TemplateSet, options: dict | None,
                        pages: dict[str, dict],
                        nodes: dict[str, str]) -> None:
        manifest = {
            "schema": CACHE_SCHEMA,
            "templates_hash": hash_templates(templates),
            "options_hash": hash_options(options),
            "pages": pages,
            "nodes": nodes,
        }
        os.makedirs(self.directory, exist_ok=True)
        write_atomic(self.manifest_path,
                     json.dumps(manifest, separators=(",", ":")))
        self.manifest = manifest


@dataclass
class BuildReport(TimedResult):
    """The outcome of one (possibly cached) build; ``seconds`` reads
    the ``site.generate`` span that timed it."""

    written: dict[Oid, str]
    skipped: list[Oid] = field(default_factory=list)
    removed_files: list[str] = field(default_factory=list)
    reason: str = "full"

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
    planner proves dirty are rendered (recording what each one reads),
    files of pages that left the site are deleted, and the manifest is
    updated for the next run.
    Emits the ``site.build.*`` metrics either way, and records every
    page into the lineage index when lineage is on, dropping the
    records of removed pages.
    """
    if isinstance(cache, str):
        cache = BuildCache(cache)
    recorder = get_recorder()
    lineage = get_lineage()
    # Recording read sets costs a little per render: without a cache
    # only lineage needs them.
    reads: dict[Oid, set[Oid]] | None = \
        {} if cache is not None or lineage.enabled else None
    with timed("site.generate", out_dir=out_dir) as span:
        if cache is None:
            written = generator.generate_site(out_dir, reads=reads)
            report = BuildReport(written, reason="full", span=span)
        else:
            plan = cache.plan(site, generator, templates, out_dir,
                              options=options)
            cache.begin(generator, templates, plan, options=options)
            written = generator.generate_site(out_dir, pages=plan.render,
                                              reads=reads)
            removed: list[str] = []
            for name in plan.stale_files:
                path = os.path.join(out_dir, name)
                if os.path.exists(path):
                    os.unlink(path)
                    removed.append(path)
            lineage.forget_pages(plan.stale_files)
            if not plan.unchanged:  # a no-op plan leaves the exact state
                cache.record(site, generator, templates, plan, reads,
                             options=options)
            report = BuildReport(written, skipped=list(plan.skipped),
                                 removed_files=removed,
                                 reason=plan.reason, span=span)
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
    if lineage.enabled:
        page_reads: dict[Oid, Iterable[Oid]] = dict(reads)
        if report.skipped:
            # What its manifest entry says: after the build the
            # manifest has an entry for every page, and each name it
            # reads names one node of the site graph (the planner
            # re-renders a page that read a vanished or ambiguous name).
            by_name = {node.name: node for node in site.nodes()}
            for page in report.skipped:
                page_reads[page] = [
                    by_name[name] for name in
                    cache.manifest["pages"][str(page)]["reads"]]
        for page, read in page_reads.items():
            lineage.record_page(generator.url_for(page), page,
                                generator.template_for(page) or "", read)
    return report

"""The read-set-cached, incremental build pipeline.

Correctness contract: a cached (incremental) build must be
byte-for-byte identical to a cold build, a rebuild of an unchanged
site must render nothing, and any template change, or any change to a
node a page read, must re-render that page.

``TestRandomEditScripts`` turns that contract into a property: random
edit scripts over the data graph — adding, removing and reordering
attributes, and adding and removing collection members that template
selection reads — with the incremental output tree compared
file-for-file against a cold build after every step.
``TestKilledBuild`` extends it to failures: a build killed at any
page render, or inside the cache's final manifest write, must leave a
cache the next build recovers from.
"""

import os
import random

import pytest

from repro.graph import Atom, Graph, Oid
from repro.site import buildcache
from repro.site.buildcache import BuildCache, cached_generate, hash_templates
from repro.site.builder import Website
from repro.sites.homepage import FIG3_QUERY, fig2_data, fig7_templates
from repro.templates.generator import HtmlGenerator


def _site(data=None, templates=None, query=FIG3_QUERY):
    return Website(data or fig2_data(), query,
                   templates=templates or fig7_templates())


#: Fig 3 plus a ``Badge(x)`` per publication, shown on its presentation
#: and collected into ``Starred`` when the data stars the publication.
#: ``Badge`` has no template of its own, so its template is selected by
#: collection: a ``Starred`` membership edit changes what renders.
BADGE_QUERY = FIG3_QUERY.replace("OUTPUT HomePage", """
WHERE Publications(x)
CREATE Badge(x)
LINK PaperPresentation(x) -> "Badge" -> Badge(x)
WHERE Starred(x)
COLLECT Starred(Badge(x))
OUTPUT HomePage""")


def _badge_templates():
    templates = fig7_templates()
    presentation = templates.get("PaperPresentation")
    templates.add("PaperPresentation",
                  presentation.source + "<SFMT @Badge>",
                  as_page=templates.is_page_template("PaperPresentation"))
    templates.add("Starred", "<B>starred</B>", as_page=False)
    return templates


def _badge_site(data):
    return _site(data, _badge_templates(), BADGE_QUERY)


def _badge_data():
    data = fig2_data()
    data.declare_collection("Starred")
    return data


def _copy(data, drop=lambda edge: False, unlist=(), reverse=None):
    """A copy of ``data`` (``Graph`` removes neither edges nor members)
    without the edges ``drop`` selects and the ``(collection, member)``
    pairs in ``unlist``, and with the edges of the ``(node, label)``
    pair ``reverse`` in reverse order."""
    copy = Graph(data.name)
    for node in data.nodes():
        copy.add_node(node)
    for node in data.nodes():
        edges = [edge for edge in data.out_edges(node) if not drop(edge)]
        if reverse is not None and reverse[0] == node:
            slots = [i for i, edge in enumerate(edges)
                     if edge.label == reverse[1]]
            moved = [edges[i] for i in reversed(slots)]
            for i, edge in zip(slots, moved):
                edges[i] = edge
        for edge in edges:
            copy.add_edge(edge.source, edge.label, edge.target)
    for name in data.collection_names():
        copy.declare_collection(name)
        for member in data.collection(name):
            if (name, member) not in unlist:
                copy.add_to_collection(name, member)
    return copy


def _read_tree(root):
    tree = {}
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as handle:
                tree[name] = handle.read()
    return tree


class TestFingerprints:
    """A page's fingerprint is the set of nodes its render read, each
    hashed; the planner skips a page whose read nodes all hash as
    before."""

    YEAR97 = Oid.skolem("YearPage", (Atom.int(1997),))
    YEAR98 = Oid.skolem("YearPage", (Atom.int(1998),))

    def test_stable_across_rebuilds(self, tmp_path):
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        _site().build_site(out, cache_dir=cache)
        report = _site().build_site(out, cache_dir=cache)
        assert Oid.skolem("RootPage", ()) in report.skipped

    def test_sensitive_to_reachable_change(self, tmp_path):
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        _site().build_site(out, cache_dir=cache)
        changed = fig2_data()
        changed.add_edge(Oid("pub1"), "note", Atom.string("errata"))
        report = _site(changed).build_site(out, cache_dir=cache)
        # The 1997 YearPage embeds pub1's presentation; the 1998 one
        # reads nothing of pub1.
        assert self.YEAR97 in report.written
        assert self.YEAR98 in report.skipped

    def test_edge_order_change_rerenders(self, tmp_path):
        """``SFOR`` without ``ORDER`` renders authors in edge order, so
        reversing pub1's two ``author`` edges must re-render the pages
        that print them."""
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        data = fig2_data()
        _site(data).build_site(out, cache_dir=cache)
        reordered = _copy(data, reverse=(Oid("pub1"), "author"))
        assert reordered.get(Oid("pub1"), "author") == \
            data.get(Oid("pub1"), "author")[::-1]
        report = _site(reordered).build_site(out, cache_dir=cache)
        assert self.YEAR97 in report.written
        assert self.YEAR98 in report.skipped
        cold = str(tmp_path / "cold")
        _site(reordered).build_site(cold)
        assert _read_tree(out) == _read_tree(cold)

    def test_template_hash_covers_source_and_pageness(self):
        base = fig7_templates()
        edited = fig7_templates()
        edited.add("RootPage", "<h1>changed</h1>", as_page=True)
        assert hash_templates(base) != hash_templates(edited)
        assert hash_templates(base) == hash_templates(fig7_templates())


class TestBuildCache:
    def test_cold_build_equals_plain_build(self, tmp_path):
        plain, cached = str(tmp_path / "plain"), str(tmp_path / "cached")
        _site().build_site(plain)
        report = _site().build_site(cached,
                                    cache_dir=str(tmp_path / "cache"))
        assert report.reason == "cold"
        assert _read_tree(plain) == _read_tree(cached)

    def test_warm_rebuild_renders_nothing(self, tmp_path):
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        _site().build_site(out, cache_dir=cache)
        before = _read_tree(out)
        report = _site().build_site(out, cache_dir=cache)
        assert report.pages_rendered == 0
        assert report.pages_skipped > 0
        assert report.reason == "incremental"
        assert report.cache_hit_ratio == 1.0
        assert _read_tree(out) == before

    def test_template_edit_invalidates_everything(self, tmp_path):
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        _site().build_site(out, cache_dir=cache)
        edited = fig7_templates()
        edited.add("RootPage", "<h1>v2</h1><SFMTLIST @YearPage WRAP=UL>",
                   as_page=True)
        report = _site(templates=edited).build_site(out, cache_dir=cache)
        assert report.reason == "templates-changed"
        assert report.pages_skipped == 0
        with open(os.path.join(out, "RootPage__.html"),
                  encoding="utf-8") as handle:
            assert "v2" in handle.read()

    def test_data_change_rerenders_only_affected(self, tmp_path):
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        cold = _site().build_site(out, cache_dir=cache)
        changed = fig2_data()
        changed.add_edge(Oid("pub1"), "note", Atom.string("errata"))
        report = _site(changed).build_site(out, cache_dir=cache)
        assert report.reason == "incremental"
        assert 0 < report.pages_rendered < cold.pages_rendered
        rendered = {str(p) for p in report.written}
        # The 1998 year page cannot reach pub1: it must be cached.
        assert "YearPage(1998)" not in rendered
        # The cached result matches a from-scratch build exactly.
        fresh = str(tmp_path / "fresh")
        _site(changed).build_site(fresh)
        assert _read_tree(out) == _read_tree(fresh)

    def test_removed_page_file_deleted(self, tmp_path):
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        grown = fig2_data()
        pub3 = Oid("pub3")
        grown.add_to_collection("Publications", pub3)
        grown.add_edge(pub3, "year", Atom.int(1999))
        grown.add_edge(pub3, "title", Atom.string("Gone Soon"))
        _site(grown).build_site(out, cache_dir=cache)
        gone = os.path.join(out, "YearPage_1999_.html")
        assert os.path.exists(gone)
        report = _site().build_site(out, cache_dir=cache)
        assert not os.path.exists(gone)
        assert any(path.endswith("YearPage_1999_.html")
                   for path in report.removed_files)
        fresh = str(tmp_path / "fresh")
        _site().build_site(fresh)
        assert _read_tree(out) == _read_tree(fresh)

    def test_collection_membership_edit_equals_cold(self, tmp_path):
        """Starring pub1 puts ``Badge(pub1)`` into ``Starred``, which
        selects its template: the pages that embed pub1's presentation
        re-render, the rest stay cached, and unstarring reverts."""
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        data = _badge_data()
        _badge_site(data).build_site(out, cache_dir=cache)
        starred = _badge_data()
        starred.add_to_collection("Starred", Oid("pub1"))
        for step, edited in enumerate([starred, data]):
            report = _badge_site(edited).build_site(out, cache_dir=cache)
            written = {str(page) for page in report.written}
            assert "YearPage(1997)" in written
            assert "YearPage(1998)" not in written
            cold = str(tmp_path / f"cold{step}")
            _badge_site(edited).build_site(cold)
            assert _read_tree(out) == _read_tree(cold)
        with open(os.path.join(out, "YearPage_1997_.html"),
                  encoding="utf-8") as handle:
            assert "starred" not in handle.read()

    def test_corrupt_manifest_degrades_to_cold(self, tmp_path):
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        _site().build_site(out, cache_dir=cache)
        with open(os.path.join(cache, "manifest.json"), "w",
                  encoding="utf-8") as handle:
            handle.write("{not json")
        report = _site().build_site(out, cache_dir=cache)
        assert report.reason == "cold"
        assert report.pages_rendered > 0

    def test_schema_1_manifest_degrades_to_cold(self, tmp_path):
        """A manifest of the fingerprint cache (schema 1, no read sets)
        is not trusted."""
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        _site().build_site(out, cache_dir=cache)
        with open(os.path.join(cache, "manifest.json"), "w",
                  encoding="utf-8") as handle:
            handle.write('{"schema": 1, "pages": {}}')
        report = _site().build_site(out, cache_dir=cache)
        assert report.reason == "cold"
        assert report.pages_skipped == 0

    def test_deleted_output_file_rerendered(self, tmp_path):
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        _site().build_site(out, cache_dir=cache)
        victim = os.path.join(out, "RootPage__.html")
        os.unlink(victim)
        report = _site().build_site(out, cache_dir=cache)
        assert os.path.exists(victim)
        assert {str(p) for p in report.written} == {"RootPage()"}


class TestRandomEditScripts:
    """Property-based differential check: for ANY edit script, the
    incremental rebuild's output directory is file-identical to a cold
    build of the same data.  Edits add attributes and publications,
    remove attributes the presentation template tests with ``SIF``,
    reorder multi-valued attributes, and star or unstar publications
    (a ``Starred`` membership that selects the badge template; see
    :data:`BADGE_QUERY`).  Randomness is stdlib ``random`` with pinned
    seeds, so failures replay exactly.
    """

    STEPS = 16
    YEARS = list(range(1995, 2003))
    CATEGORIES = ["Semistructured Data", "Compilers", "Networking"]
    LABELS = ["note", "keyword", "doi"]
    #: Attributes Fig 7's presentation template tests with ``SIF``.
    SIF_LABELS = ["journal", "volume", "booktitle", "month"]
    KINDS = ["attribute", "year", "category", "new_pub", "drop_sif",
             "reorder", "star", "unstar"]

    def _apply_random_edit(self, rng, data, step):
        """Edit ``data``; returns the edited graph (maybe a copy)."""
        pubs = list(data.collection("Publications"))
        kind = rng.choice(self.KINDS)
        if kind == "attribute":
            data.add_edge(rng.choice(pubs), rng.choice(self.LABELS),
                          Atom.string(f"v{rng.randrange(10_000)}"))
        elif kind == "year":
            data.add_edge(rng.choice(pubs), "year",
                          Atom.int(rng.choice(self.YEARS)))
        elif kind == "category":
            data.add_edge(rng.choice(pubs), "category",
                          Atom.string(rng.choice(self.CATEGORIES)))
        elif kind == "new_pub":
            pub = Oid(f"edit-pub{step}")
            data.add_to_collection("Publications", pub)
            data.add_edge(pub, "title", Atom.string(f"Edit Paper {step}"))
            data.add_edge(pub, "year", Atom.int(rng.choice(self.YEARS)))
            data.add_edge(pub, "category",
                          Atom.string(rng.choice(self.CATEGORIES)))
        elif kind == "drop_sif":
            present = [(pub, label) for pub in pubs
                       for label in self.SIF_LABELS if data.get(pub, label)]
            if present:
                pub, label = rng.choice(present)
                return _copy(data, drop=lambda edge: edge.source == pub
                             and edge.label == label)
        elif kind == "reorder":
            multi = [(pub, label) for pub in pubs
                     for label in data.labels_of(pub)
                     if len(data.get(pub, label)) > 1]
            if multi:
                return _copy(data, reverse=rng.choice(multi))
        elif kind == "star":
            data.add_to_collection("Starred", rng.choice(pubs))
        else:
            starred = data.collection("Starred")
            if starred:
                return _copy(data,
                             unlist={("Starred", rng.choice(starred))})
        return data

    @pytest.mark.parametrize("seed", [0xBEEF, 0xCAFE])
    def test_incremental_equals_cold_after_every_edit(self, tmp_path,
                                                      seed):
        rng = random.Random(seed)
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        data = _badge_data()
        _badge_site(data).build_site(out, cache_dir=cache)
        skipped_any = 0
        for step in range(self.STEPS):
            data = self._apply_random_edit(rng, data, step)
            report = _badge_site(data).build_site(out, cache_dir=cache)
            assert report.reason == "incremental", \
                f"seed={seed:#x} step={step}: {report.reason}"
            skipped_any += report.pages_skipped
            fresh = str(tmp_path / f"fresh{step}")
            _badge_site(data).build_site(fresh)
            assert _read_tree(out) == _read_tree(fresh), \
                f"seed={seed:#x} step={step}: trees diverged"
        # The cache earned its keep: across the script, at least some
        # pages were served from cache rather than re-rendered.
        assert skipped_any > 0


class _Killed(Exception):
    """Stands in for the build process dying."""


class TestKilledBuild:
    """Kill the rebuild after a category edit at every top-level page
    render, and inside ``record``'s manifest write.
    The next incremental build — back on the original data, or retrying
    the edit — must equal a cold build file-for-file, which includes
    deleting the pages the killed build created."""

    #: Top-level renders of the rebuild after the category edit.
    RENDERS = 7

    @staticmethod
    def _edited():
        data = fig2_data()
        data.add_edge(Oid("pub1"), "category", Atom.string("New Topic"))
        return data

    @staticmethod
    def _kill_at_render(patch, index):
        real = HtmlGenerator.render
        started = []

        def render(generator, oid):
            if not generator._render_stack:
                started.append(oid)
                if len(started) > index:
                    raise _Killed(f"at render {index}")
            return real(generator, oid)

        patch.setattr(HtmlGenerator, "render", render)

    @staticmethod
    def _kill_in_record(patch):
        """Die in ``record``'s manifest write, before it lands: the
        pages are written, the manifest is still ``begin``'s."""
        real = BuildCache.record

        def write(path, text):
            assert path.endswith(buildcache.MANIFEST_NAME)
            raise _Killed("inside record's manifest write")

        def record(cache, *args, **kwargs):
            patch.setattr(buildcache, "write_atomic", write)
            return real(cache, *args, **kwargs)

        patch.setattr(BuildCache, "record", record)

    @pytest.mark.parametrize("then", ["revert", "retry"])
    @pytest.mark.parametrize("kill", [*range(RENDERS), "record"])
    def test_next_build_equals_cold(self, tmp_path, monkeypatch, kill,
                                    then):
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        _site().build_site(out, cache_dir=cache)
        with monkeypatch.context() as patch:
            if kill == "record":
                self._kill_in_record(patch)
            else:
                self._kill_at_render(patch, kill)
            with pytest.raises(_Killed):
                _site(self._edited()).build_site(out, cache_dir=cache)
        data = fig2_data() if then == "revert" else self._edited()
        _site(data).build_site(out, cache_dir=cache)
        cold = str(tmp_path / "cold")
        _site(data).build_site(cold)
        assert _read_tree(out) == _read_tree(cold)


class TestCachedGenerateFacade:
    def test_without_cache_is_full_build(self, tmp_path):
        site = _site()
        generator = HtmlGenerator(site.site_graph, site.templates)
        report = cached_generate(site.site_graph, generator,
                                 site.templates, str(tmp_path / "o"))
        assert report.reason == "full"
        assert report.pages_rendered == len(generator.pages())

    def test_cache_accepts_directory_string(self, tmp_path):
        site = _site()
        generator = HtmlGenerator(site.site_graph, site.templates)
        out = str(tmp_path / "o")
        cached_generate(site.site_graph, generator, site.templates,
                        out, cache=str(tmp_path / "c"))
        site2 = _site()
        generator2 = HtmlGenerator(site2.site_graph, site2.templates)
        report = cached_generate(site2.site_graph, generator2,
                                 site2.templates, out,
                                 cache=str(tmp_path / "c"))
        assert report.pages_rendered == 0

    def test_report_summary_line(self, tmp_path):
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        _site().build_site(out, cache_dir=cache)
        report = _site().build_site(out, cache_dir=cache)
        assert report.summary().startswith("wrote 0 pages")
        assert "cached" in report.summary()

    def test_metrics_emitted(self, tmp_path):
        import repro.obs as obs
        with obs.recording() as rec:
            report = _site().build_site(str(tmp_path / "out"),
                                        cache_dir=str(tmp_path / "cache"))
        metrics = rec.metrics
        assert metrics.counter("site.build.pages_rendered").value > 0
        def walk(span):
            yield span
            for child in span.children:
                yield from walk(child)
        spans = [s for root in rec.roots for s in walk(root)
                 if s.name == "site.build.page"]
        assert len(spans) == \
            metrics.counter("site.build.pages_rendered").value
        # One timing record: the report, the trace and the histogram
        # all read the site.generate span.
        (generate,) = [s for root in rec.roots for s in walk(root)
                       if s.name == "site.generate"]
        assert report.span is generate
        assert report.seconds == generate.seconds
        histogram = metrics.as_dict()["histograms"]["site.build.seconds"]
        assert histogram["count"] == 1
        assert histogram["sum"] == report.seconds
        assert "site.pages_built" not in metrics.as_dict()["counters"]

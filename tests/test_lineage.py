"""End-to-end provenance and freshness.

The contract under test: every generated page resolves backward through
the full derivation chain — its read set -> source record -> query
block -> Skolem function and binding args -> template — where the read
set is the build cache's own dependency record, the Skolem function
and arguments come from the oid itself (they round-trip through
``graph/serialization.py``), the block from the site query, and the
sources from the fetch log.  An offline build and a click-time crawl
report the same derivation for every page.
"""

import json
import os

import pytest

from repro.graph import Atom, Oid
from repro.graph.serialization import graph_from_json, graph_to_json
from repro.obs.lineage import (
    LineageIndex,
    NullLineage,
    disable_lineage,
    enable_lineage,
    freshness_report,
    get_lineage,
    graph_content_hash,
    lineage_recording,
    record_fetch,
    recent_fetches,
    render_why,
    update_freshness_gauges,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.queries import fingerprint
from repro.graph.model import Graph
from repro.site.builder import Website
from repro.site.server import DynamicSiteServer
from repro.sites.homepage import FIG3_QUERY, fig2_data, fig7_templates
from repro.sites.org import (
    ORG_QUERY,
    build_org_mediator,
    build_org_site,
    org_templates,
)
from repro.struql import parse_query

pytestmark = pytest.mark.usefixtures("fetch_log")


def _site(data=None):
    return Website(data or fig2_data(), FIG3_QUERY,
                   templates=fig7_templates())


def _source(name="src", age=0.0, now=1000.0):
    return record_fetch(name, "loader", "abcd", nodes=3, edges=5,
                        fetched_at=now - age)


class TestNullObject:
    def test_disabled_by_default(self):
        disable_lineage()
        lineage = get_lineage()
        assert isinstance(lineage, NullLineage)
        assert not lineage.enabled
        assert len(lineage) == 0
        # Every recording call is a silent no-op.
        lineage.record_query(parse_query(FIG3_QUERY), fig2_data())
        lineage.record_page("x.html", Oid("x"), "T", [Oid("x")])
        assert lineage.sources() == []
        assert lineage.page_records() == []

    def test_enable_disable_cycle(self):
        index = enable_lineage()
        try:
            assert get_lineage() is index
            assert index.enabled
        finally:
            disable_lineage()
        assert not get_lineage().enabled

    def test_recording_scope_restores_previous(self):
        disable_lineage()
        with lineage_recording() as index:
            assert get_lineage() is index
        assert not get_lineage().enabled


class TestRecording:
    def test_query_table_names_fn_block_fingerprint_input(self):
        index = LineageIndex()
        query = parse_query(FIG3_QUERY)
        index.record_query(query, fig2_data())
        fp = fingerprint(query)
        # The first block (preorder) that creates each function, named
        # as its struql.block span is.
        for fn, block in [("RootPage", "(top)"), ("AbstractsPage", "(top)"),
                          ("PaperPresentation", "Q1"), ("YearPage", "Q2"),
                          ("CategoryPage", "Q3")]:
            assert [tuple(c) for c in index.creators(fn)] == \
                [(fp, block, "BIBTEX")], fn
        # Fn and args come from the oid; block, fingerprint and input
        # from the query table.
        page = Oid.skolem("YearPage", (Atom.int(1997),))
        index.record_page("YearPage_1997_.html", page, "YearPage", [page])
        derivation = index.why("YearPage(1997)")["derivation"]
        assert (derivation["fn"], derivation["block"],
                derivation["fingerprint"], derivation["input"]) == \
            ("YearPage", "Q2", fp, "BIBTEX")
        assert derivation["inputs"] == [{"kind": "atom", "value": "1997"}]

    def test_function_created_by_several_queries(self):
        """GAV object fusion: two mappings create one function.  Each
        query keeps one entry; the derivation names the first, and
        re-recording a query replaces its entry in place."""
        index = LineageIndex()
        first = parse_query("INPUT A CREATE F(), G() OUTPUT W")
        second = parse_query(
            "INPUT B WHERE C(x) CREATE F() LINK F() -> \"k\" -> x "
            "OUTPUT W")
        index.record_query(first, Graph("A"))
        index.record_query(second, Graph("B"))
        index.record_query(first, Graph("A2"))
        assert [(c.block, c.input) for c in index.creators("F")] == \
            [("(top)", "A2"), ("Q1", "B")]
        assert [c.input for c in index.creators("G")] == ["A2"]

    def test_page_record_keeps_sorted_read_names(self):
        index = LineageIndex()
        page = Oid.skolem("Index", ())
        index.record_page("Index__.html", page, "Index",
                          [Oid("b"), page, Oid("a"), Oid("b")])
        (record,) = index.page_records()
        assert [read.name for read in record.reads] == \
            ["Index()", "a", "b"]
        assert record.oid == "Index()"
        assert index.why("Index__.html")["reads"] == ["Index()", "a", "b"]

    def test_source_membership(self):
        index = LineageIndex()
        graph = Graph("G")
        graph.add_node(Oid("a"))
        graph.add_node(Oid("b"))
        _source("feed")
        index.record_source_nodes("feed", graph)
        assert index.source_of("a").source == "feed"
        assert index.source_of("missing") is None


class TestSkolemSerializationRoundTrip:
    def test_oid_json_round_trip_preserves_fn_and_args(self):
        """oid -> JSON -> oid keeps the Skolem identity the lineage
        index keys on, so lineage recorded before serialization still
        resolves nodes loaded after it."""
        inner = Oid.skolem("Person", (Atom.string("alice"),))
        page = Oid.skolem("PersonPage", (inner,))
        graph = Graph("G")
        graph.add_node(page)
        graph.add_edge(page, "name", Atom.string("alice"))

        loaded = graph_from_json(graph_to_json(graph))
        reloaded = next(n for n in loaded.nodes()
                        if isinstance(n, Oid) and n.skolem_fn)
        assert reloaded.skolem_fn == "PersonPage"
        assert reloaded.name == page.name
        (arg,) = reloaded.skolem_args
        assert isinstance(arg, Oid)
        assert arg.skolem_fn == "Person"
        assert arg.skolem_args == inner.skolem_args

    def test_lineage_resolves_reloaded_oid(self):
        index = LineageIndex()
        index.record_query(parse_query(FIG3_QUERY), fig2_data())
        oid = Oid.skolem("YearPage", (Atom.int(1997),))
        graph = Graph("G")
        graph.add_node(oid)
        reloaded = next(n for n in graph_from_json(
            graph_to_json(graph)).nodes() if isinstance(n, Oid))
        index.record_page("YearPage_1997_.html", reloaded, "YearPage",
                          [reloaded])
        derivation = index.why(reloaded.name)["derivation"]
        assert derivation["fn"] == "YearPage"
        assert derivation["block"] == "Q2"

    def test_content_hash_is_stable_and_sensitive(self):
        graph = Graph("G")
        graph.add_node(Oid("a"))
        graph.add_edge(Oid("a"), "x", Atom.int(1))
        twin = graph_from_json(graph_to_json(graph))
        assert graph_content_hash(graph) == graph_content_hash(twin)
        twin.add_edge(Oid("a"), "y", Atom.int(2))
        assert graph_content_hash(graph) != graph_content_hash(twin)


def _manifest_pages(cache_dir: str) -> dict:
    with open(os.path.join(cache_dir, "manifest.json"),
              encoding="utf-8") as handle:
        return json.load(handle)["pages"]


class TestBuildIntegration:
    def test_every_generated_page_resolves_full_chain(self, tmp_path):
        with lineage_recording() as lineage:
            site = _site()
            report = site.build_site(str(tmp_path / "www"))
            assert report.pages_rendered > 0
            pages = lineage.page_records()
            assert len(pages) == report.pages_rendered
            for page in pages:
                doc = lineage.why(page.url)
                assert doc, f"unresolvable page {page.url}"
                assert doc["template"], page.url
                assert doc["derivation"].get("fn"), page.url

    def test_website_why_shortcut(self, tmp_path):
        with lineage_recording():
            site = _site()
            site.build()
            url = site.generator().url_for(Oid.skolem("RootPage", ()))
            doc = site.why(url)
            assert doc and doc["derivation"]["fn"] == "RootPage"
        assert _site().why("anything") is None  # lineage disabled

    def test_website_why_of_a_component_node(self):
        """A site-graph node that is not a page still derives: its
        block is the one that creates its function, whatever block
        first linked it."""
        with lineage_recording():
            site = _site()
            site.build()
            doc = site.why("PaperPresentation(pub1)")
        assert "url" not in doc
        derivation = doc["derivation"]
        assert (derivation["fn"], derivation["block"]) == \
            ("PaperPresentation", "Q1")
        (arg,) = derivation["inputs"]
        assert arg["oid"] == "pub1" and "fn" not in arg

    def test_lineage_persists_across_incremental_rebuild(self, tmp_path):
        out, cache = str(tmp_path / "www"), str(tmp_path / "cache")
        with lineage_recording():
            cold = _site().build_site(out, cache_dir=cache)
            assert cold.pages_rendered > 0
        manifest = _manifest_pages(cache)

        # A fresh process (fresh index) rebuilding warm: nothing
        # renders, yet every page still resolves, with the read set
        # its manifest entry keeps.
        with lineage_recording() as lineage:
            warm = _site().build_site(out, cache_dir=cache)
            assert warm.pages_rendered == 0
            pages = lineage.page_records()
            assert {page.url for page in pages} == \
                {entry["url"] for entry in manifest.values()}
            for page in pages:
                doc = lineage.why(page.url)
                assert doc and doc["derivation"].get("fn"), page.url
                assert doc["reads"] == manifest[page.oid]["reads"]

    def test_removed_pages_leave_no_ghost_records(self, tmp_path):
        """A rebuild that drops pages records exactly the site's pages:
        the removed ones no longer resolve or count as stale."""
        out, cache = str(tmp_path / "www"), str(tmp_path / "cache")
        with lineage_recording():
            build_org_site(people=40, seed=1).build_site(
                out, cache_dir=cache)
        removed = {entry["url"] for entry in
                   _manifest_pages(cache).values()}
        with lineage_recording() as lineage:
            site = build_org_site(people=30, seed=1)
            report = site.build_site(out, cache_dir=cache)
            assert report.removed_files
            generator = site.generator()
            urls = {generator.url_for(page) for page in generator.pages()}
            removed -= urls
            assert removed
            assert {page.url for page in lineage.page_records()} == urls
            for url in removed:
                assert lineage.why(url) is None, url
            report = freshness_report(lineage, max_age=-1)
            assert set(report["stale_pages"]) == urls
            assert report["pages"] == len(urls)
        assert not os.path.exists(os.path.join(cache, "lineage.json"))

    def test_one_index_forgets_pages_a_rebuild_removed(self, tmp_path):
        """Two cached builds seen by one index: afterwards it holds
        exactly the second build's page records."""
        out, cache = str(tmp_path / "www"), str(tmp_path / "cache")
        with lineage_recording() as lineage:
            build_org_site(people=40, seed=1).build_site(
                out, cache_dir=cache)
            first = {page.url for page in lineage.page_records()}
            site = build_org_site(people=30, seed=1)
            assert site.build_site(out, cache_dir=cache).removed_files
            generator = site.generator()
            urls = {generator.url_for(page) for page in generator.pages()}
            removed = first - urls
            assert removed
            assert {page.url for page in lineage.page_records()} == urls
            for url in removed:
                assert lineage.why(url) is None, url

    def test_why_tree_is_the_manifest_read_set(self, tmp_path):
        cache = str(tmp_path / "cache")
        with lineage_recording() as lineage:
            build_org_site(people=400, seed=1).build_site(
                str(tmp_path / "www"), cache_dir=cache)
            manifest = _manifest_pages(cache)
            assert len(lineage.page_records()) == len(manifest)
            for entry in manifest.values():
                assert lineage.why(entry["url"])["reads"] == \
                    entry["reads"], entry["url"]
            # The index page reads every person page, not a capped
            # sample of them.
            doc = lineage.why("PeopleIndex()")
            people = [name for name in doc["reads"]
                      if name.startswith("PersonPage(")]
            assert len(people) == 400
            assert doc["oid"] in doc["reads"]


class TestFreshness:
    def _index_with_stale_page(self, now):
        index = LineageIndex()
        _source("fresh", age=10.0, now=now)
        _source("old", age=5000.0, now=now)
        index.record_query(parse_query(
            "INPUT D WHERE C(x) CREATE FreshPage(x), OldPage(x) OUTPUT W"),
            Graph("D"))
        fresh_page = Oid.skolem("FreshPage", (Oid("f1"),))
        old_page = Oid.skolem("OldPage", (Oid("o1"),))
        graph_f, graph_o = Graph("F"), Graph("O")
        graph_f.add_node(Oid("f1"))
        graph_o.add_node(Oid("o1"))
        index.record_source_nodes("fresh", graph_f)
        index.record_source_nodes("old", graph_o)
        index.record_page("fresh.html", fresh_page, "T", [fresh_page])
        index.record_page("old.html", old_page, "T", [old_page])
        return index

    def test_stale_is_newest_contributing_source(self):
        now = 10_000.0
        index = self._index_with_stale_page(now)
        report = freshness_report(index, max_age=600.0, now=now)
        assert report["stale_pages"] == ["old.html"]
        assert report["pages"] == 2
        ages = {s["source"]: s["age_seconds"]
                for s in report["sources"]}
        assert ages["fresh"] == pytest.approx(10.0)
        assert ages["old"] == pytest.approx(5000.0)

    def test_why_flags_stale_target(self):
        now = 10_000.0
        index = self._index_with_stale_page(now)
        assert index.why("old.html", now=now, max_age=600.0)["stale"]
        assert not index.why("fresh.html", now=now,
                             max_age=600.0)["stale"]

    def test_gauges_exported_with_source_labels(self):
        now = 10_000.0
        index = self._index_with_stale_page(now)
        metrics = MetricsRegistry()
        update_freshness_gauges(metrics, index, max_age=600.0, now=now)
        gauges = metrics.as_dict()["gauges"]
        assert gauges["lineage.sources"] == 2
        assert gauges["lineage.pages_stale_total"] == 1
        assert gauges['lineage.source_age_seconds{source="old"}'] == \
            pytest.approx(5000.0)

    def test_render_why_mentions_chain_and_staleness(self):
        now = 10_000.0
        index = self._index_with_stale_page(now)
        text = render_why(index.why("old.html", now=now, max_age=600.0))
        assert "old.html" in text
        assert "template T" in text
        assert "Skolem OldPage" in text
        assert "STALE" in text
        assert "old (loader" in text


def _levels(entry: dict) -> list[tuple]:
    """(oid, fn, block, fingerprint, input) of a derivation and of every
    Skolem argument under it, depth first."""
    out = [(entry["oid"], entry.get("fn"), entry.get("block"),
            entry.get("fingerprint"), entry.get("input"))]
    for child in entry.get("inputs", ()):
        if "oid" in child:
            out.extend(_levels(child))
    return out


def _fig3_site():
    return fig2_data(), FIG3_QUERY, fig7_templates()


def _org_site():
    data = build_org_mediator(people=40, projects=24, publications=60,
                              seed=1).warehouse()
    data.name = "ORGDATA"
    return data, ORG_QUERY, org_templates()


class TestOfflineAndClickTimeAgree:
    @pytest.mark.parametrize("make_site", [_fig3_site, _org_site],
                             ids=["fig3", "org40"])
    def test_every_page_derives_the_same(self, make_site, tmp_path):
        """An offline build and a click-time crawl report the same
        derivation for every page: fn, block, fingerprint and input at
        every level.  The mediator runs under each recording, so the
        warehouse's Skolem functions resolve too."""
        with lineage_recording() as offline:
            data, query, templates = make_site()
            Website(data, query, templates=templates).build_site(
                str(tmp_path / "www"))
            built = {page.url: _levels(offline.why(page.url)["derivation"])
                     for page in offline.page_records()}
        with lineage_recording() as clicked:
            data, query, templates = make_site()
            responses = DynamicSiteServer(query, data, templates).crawl()
            assert all(response.status == 200 for response in responses)
            served = {page.url: _levels(clicked.why(page.url)["derivation"])
                      for page in clicked.page_records()}
        assert built and served == built
        fp = fingerprint(parse_query(query))
        for url, levels in built.items():
            _, fn, block, page_fp, input_name = levels[0]
            assert fn and block and page_fp == fp, url
            assert input_name == data.name, url

    def test_sources_are_the_fetch_log(self, tmp_path):
        """Page sources and the index's sources() are the one fetch
        log's records."""
        with lineage_recording() as lineage:
            data, query, templates = _org_site()
            Website(data, query, templates=templates).build_site(
                str(tmp_path / "www"))
            log = {record.source: record for record in recent_fetches()}
            assert log and lineage.sources() == sorted(
                log.values(), key=lambda record: record.source)
            for page in lineage.page_records():
                for entry in lineage.why(page.url)["sources"]:
                    record = log[entry["source"]]
                    assert entry["content_hash"] == record.content_hash
                    assert entry["fetched_at"] == record.fetched_at

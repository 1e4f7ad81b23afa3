"""End-to-end provenance and freshness (PR 8 tentpole).

The contract under test: every generated page resolves backward through
the full derivation chain — its read set -> source record -> query
block -> Skolem function and binding args -> template — where the read
set is the build cache's own dependency record, and Skolem identities
survive the graph's serialization (fn/args round-trip through
``graph/serialization.py``).
"""

import json
import os

import pytest

from repro.graph import Atom, Oid
from repro.graph.serialization import graph_from_json, graph_to_json
from repro.obs.lineage import (
    LineageIndex,
    NullLineage,
    SourceRecord,
    disable_lineage,
    enable_lineage,
    freshness_report,
    get_lineage,
    graph_content_hash,
    lineage_recording,
    render_why,
    update_freshness_gauges,
)
from repro.obs.metrics import MetricsRegistry
from repro.graph.model import Graph
from repro.site.builder import Website
from repro.sites.homepage import FIG3_QUERY, fig2_data, fig7_templates
from repro.sites.org import build_org_site


def _site(data=None):
    return Website(data or fig2_data(), FIG3_QUERY,
                   templates=fig7_templates())


def _source(name="src", age=0.0, now=1000.0):
    return SourceRecord(source=name, kind="loader",
                        fetched_at=now - age, content_hash="abcd",
                        nodes=3, edges=5)


class TestNullObject:
    def test_disabled_by_default(self):
        disable_lineage()
        lineage = get_lineage()
        assert isinstance(lineage, NullLineage)
        assert not lineage.enabled
        assert len(lineage) == 0
        # Every recording call is a silent no-op.
        lineage.record_node(Oid("x"), "F", ())
        lineage.record_page("x.html", Oid("x"), "T", [Oid("x")])
        with lineage.query_context(fingerprint="f", block="Q1"):
            pass
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
    def test_node_record_merges_query_context(self):
        index = LineageIndex()
        oid = Oid.skolem("PersonPage", (Oid("p1"),))
        with index.query_context(fingerprint="fp1", block="Q2",
                                 input="DATA"):
            index.record_node(oid, "PersonPage", oid.skolem_args)
        record = index.node(oid.name)
        assert record.fn == "PersonPage"
        assert record.block == "Q2"
        assert record.fingerprint == "fp1"
        assert record.input == "DATA"
        assert record.args == [{"kind": "oid", "value": "p1"}]

    def test_context_bearing_mint_upgrades_context_free(self):
        index = LineageIndex()
        oid = Oid.skolem("RootPage", ())
        index.record_node(oid, "RootPage", ())
        assert index.node(oid.name).block == ""
        with index.query_context(fingerprint="fp", block="(top)"):
            index.record_node(oid, "RootPage", ())
        assert index.node(oid.name).block == "(top)"
        # ...but an established context is never overwritten.
        with index.query_context(fingerprint="fp2", block="Q9"):
            index.record_node(oid, "RootPage", ())
        assert index.node(oid.name).block == "(top)"

    def test_page_record_keeps_sorted_read_names(self):
        index = LineageIndex()
        page = Oid.skolem("Index", ())
        index.record_page("Index__.html", page, "Index",
                          [Oid("b"), page, "a", Oid("b")])
        (record,) = index.page_records()
        assert record.reads == ("Index()", "a", "b")

    def test_source_membership(self):
        index = LineageIndex()
        graph = Graph("G")
        graph.add_node(Oid("a"))
        graph.add_node(Oid("b"))
        index.record_source(_source("feed"))
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
        oid = Oid.skolem("YearPage", (Atom.int(1997),))
        with index.query_context(fingerprint="fp", block="Q1",
                                 input="BIB"):
            index.record_node(oid, "YearPage", oid.skolem_args)
        graph = Graph("G")
        graph.add_node(oid)
        reloaded = next(n for n in graph_from_json(
            graph_to_json(graph)).nodes() if isinstance(n, Oid))
        record = index.node(reloaded.name)
        assert record is not None and record.fn == "YearPage"
        assert index.why(reloaded.name)["derivation"]["block"] == "Q1"

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
        index.record_source(_source("fresh", age=10.0, now=now))
        index.record_source(_source("old", age=5000.0, now=now))
        fresh_page = Oid.skolem("FreshPage", (Oid("f1"),))
        old_page = Oid.skolem("OldPage", (Oid("o1"),))
        index.record_node(fresh_page, "FreshPage",
                          fresh_page.skolem_args)
        index.record_node(old_page, "OldPage", old_page.skolem_args)
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

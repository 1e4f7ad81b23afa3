"""Site-graph diffs (``repro diff``) and selective regeneration through
the build cache."""

import os

import pytest

from repro.graph import Atom, Graph, Oid
from repro.site import Website, diff_graphs
from repro.sites.homepage import FIG3_QUERY, fig7_templates


class TestDiff:
    def test_identical_graphs_empty_diff(self, fig4_site):
        diff = diff_graphs(fig4_site, fig4_site.copy())
        assert diff.empty
        assert "+0/-0" in diff.summary()

    def test_added_and_removed_nodes(self, tiny_graph):
        new = tiny_graph.copy()
        new.add_edge(Oid("extra"), "l", Atom.int(1))
        diff = diff_graphs(tiny_graph, new)
        assert diff.added_nodes == {Oid("extra")}
        assert not diff.removed_nodes
        reverse = diff_graphs(new, tiny_graph)
        assert reverse.removed_nodes == {Oid("extra")}

    def test_edge_deltas(self, tiny_graph):
        new = tiny_graph.copy()
        new.add_edge(Oid("root"), "sec", Oid("a"))  # duplicate: no-op
        new.add_edge(Oid("b"), "alt", Oid("root"))
        diff = diff_graphs(tiny_graph, new)
        assert len(diff.added_edges) == 1
        assert next(iter(diff.added_edges)).label == "alt"

    def test_collection_changes(self, tiny_graph):
        new = tiny_graph.copy()
        new.add_to_collection("Root", Oid("a"))
        diff = diff_graphs(tiny_graph, new)
        added, removed = diff.collection_changes["Root"]
        assert added == {Oid("a")} and removed == set()


def _build(data, out, cache):
    return Website(data, FIG3_QUERY, fig7_templates()).build_site(
        str(out), cache_dir=str(cache))


@pytest.fixture
def built(fig2_graph, tmp_path):
    """Fig 2's data built once through a build cache."""
    out, cache = tmp_path / "www", tmp_path / "cache"
    _build(fig2_graph, out, cache)
    return fig2_graph, out, cache


class TestRefreshSite:
    def test_no_change_rewrites_nothing(self, built):
        data, out, cache = built
        report = _build(data, out, cache)
        assert report.pages_rendered == 0
        assert report.removed_files == []

    def test_new_publication_touches_proportional_pages(self, built):
        data, out, cache = built
        before = len(os.listdir(out))
        pub3 = Oid("pub3")
        data.add_to_collection("Publications", pub3)
        data.add_edge(pub3, "title", Atom.string("Third"))
        data.add_edge(pub3, "year", Atom.int(1999))
        data.add_edge(pub3, "abstract", Atom.file("a/3.txt"))
        report = _build(data, out, cache)
        # New year page + new abstract page + updated root/abstracts.
        written_fns = {p.skolem_fn for p in report.written}
        assert "YearPage" in written_fns
        assert "RootPage" in written_fns
        # The untouched 1997/1998 year pages were NOT rewritten...
        year97 = Oid.skolem("YearPage", (Atom.int(1997),))
        assert year97 not in report.written
        # ...and the new files exist on disk.
        assert len(os.listdir(out)) == before + 2  # year1999 + abstract

    def test_removed_publication_deletes_files(self, built):
        data, out, cache = built
        # Rebuild data without pub2 (remove by filtering into new graph).
        smaller = data.subgraph(lambda oid: oid.name != "pub2",
                                name="BIBTEX")
        report = _build(smaller, out, cache)
        assert report.removed_files  # 1998 year page, pub2 pages...
        for path in report.removed_files:
            assert not os.path.exists(path)

    def test_rewritten_content_is_correct(self, built):
        data, out, cache = built
        data.add_edge(Oid("pub1"), "category", Atom.string("New Topic"))
        _build(data, out, cache)
        html = (out / "RootPage__.html").read_text(encoding="utf-8")
        assert "New Topic" in html

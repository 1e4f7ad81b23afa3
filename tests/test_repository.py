"""The data repository: indexes, statistics, persistence."""

import pytest

from repro.errors import RepositoryError, UnknownGraphError
from repro.graph import Atom, Graph, Oid
from repro.repository import (
    GraphIndex,
    GraphStatistics,
    Repository,
    load_repository,
    save_repository,
)


class TestGraphIndex:
    def test_schema_index(self, fig2_graph):
        index = GraphIndex.build(fig2_graph)
        assert "author" in index.labels()
        assert index.collection_names() == ["Publications"]
        assert index.has_label("year") and not index.has_label("zzz")

    def test_attribute_extent(self, fig2_graph):
        index = GraphIndex.build(fig2_graph)
        extent = index.attribute_extent("author")
        assert len(extent) == 4  # two authors on each of two pubs
        assert all(isinstance(source, Oid) for source, _ in extent)

    def test_forward_and_backward(self, fig2_graph):
        index = GraphIndex.build(fig2_graph)
        years = index.targets(Oid("pub1"), "year")
        assert years == [Atom.int(1997)]
        sources = index.sources("year", Atom.int(1997))
        assert sources == [Oid("pub1")]

    def test_backward_with_coercion(self, fig2_graph):
        index = GraphIndex.build(fig2_graph)
        assert index.sources("year", Atom.string("1997")) == [Oid("pub1")]

    def test_global_value_index(self, fig2_graph):
        index = GraphIndex.build(fig2_graph)
        hits = index.value_occurrences(Atom.string("Mary Fernandez"))
        assert {(str(s), l) for s, l in hits} == {("pub1", "author"),
                                                  ("pub2", "author")}

    def test_value_index_is_global_not_per_attribute(self):
        graph = Graph("g")
        graph.add_edge(Oid("a"), "x", Atom.string("v"))
        graph.add_edge(Oid("b"), "y", Atom.string("v"))
        index = GraphIndex.build(graph)
        assert len(index.value_occurrences(Atom.string("v"))) == 2

    def test_cardinalities(self, fig2_graph):
        index = GraphIndex.build(fig2_graph)
        assert index.label_cardinality("author") == 4
        assert index.label_cardinality("nope") == 0
        assert index.collection_cardinality("Publications") == 2
        assert index.collection_cardinality("nope") == 0

    def test_freshness_tracking(self, fig2_graph):
        index = GraphIndex.build(fig2_graph)
        assert index.fresh
        fig2_graph.add_edge(Oid("pub1"), "note", Atom.string("new"))
        assert not index.fresh
        index.refresh()
        assert index.fresh
        assert index.label_cardinality("note") == 1

    def test_membership_edit_makes_index_stale(self, fig2_graph):
        late = Oid("pub3")
        fig2_graph.add_edge(late, "year", Atom.int(2003))
        index = GraphIndex.build(fig2_graph)
        fig2_graph.add_to_collection("Publications", late)
        assert not index.fresh
        index.refresh()
        assert index.fresh
        fig2_graph.add_to_collection("Publications", late)  # a repeat
        assert index.fresh

    def test_stale_index_falls_back_to_scans(self):
        from repro.struql import QueryEngine
        graph = Graph("G")
        graph.add_edge(Oid("a"), "x", Atom.int(1))
        index = GraphIndex.build(graph)
        graph.add_edge(Oid("a"), "x", Atom.int(2))
        assert not index.fresh
        query = """
            input G
            where p -> "x" -> v
            create N(v)
            output O
        """
        scanned = QueryEngine(indexing=False).evaluate(query, graph)
        stale = QueryEngine().evaluate(query, graph, index=index)
        expected = {Oid.skolem("N", (Atom.int(1),)),
                    Oid.skolem("N", (Atom.int(2),))}
        assert set(scanned.output.nodes()) == expected
        assert set(stale.output.nodes()) == expected


class TestStatistics:
    def test_counts(self, fig2_graph):
        stats = GraphStatistics.gather(fig2_graph)
        assert stats.node_count == 2
        assert stats.edge_count == fig2_graph.edge_count
        assert stats.collection_size("Publications") == 2

    def test_label_stats(self, fig2_graph):
        stats = GraphStatistics.gather(fig2_graph)
        author = stats.labels["author"]
        assert author.edges == 4
        assert author.distinct_sources == 2
        assert author.fan_out == 2.0
        assert stats.label_fan_out("author") == 2.0
        assert stats.label_fan_out("missing") == 0.0

    def test_fan_in(self):
        graph = Graph("g")
        for name in ("a", "b", "c"):
            graph.add_edge(Oid(name), "to", Oid("hub"))
        stats = GraphStatistics.gather(graph)
        assert stats.label_fan_in("to") == 3.0

    def test_equality_selectivity(self, fig2_graph):
        stats = GraphStatistics.gather(fig2_graph)
        # Two distinct years -> selectivity 1/2.
        assert stats.equality_selectivity("year") == pytest.approx(0.5)
        assert stats.equality_selectivity("missing") == 1.0

    def test_any_label_fan_out(self, fig2_graph):
        stats = GraphStatistics.gather(fig2_graph)
        assert stats.any_label_fan_out() == pytest.approx(
            fig2_graph.edge_count / fig2_graph.node_count)

    def test_empty_graph(self):
        stats = GraphStatistics.gather(Graph("g"))
        assert stats.any_label_fan_out() == 0.0


class TestRepository:
    def test_store_and_fetch(self, fig2_graph):
        repo = Repository()
        repo.store(fig2_graph)
        assert repo.graph("BIBTEX") is fig2_graph
        assert "BIBTEX" in repo
        assert [g.name for g in repo] == ["BIBTEX"]

    def test_unknown_graph(self):
        with pytest.raises(UnknownGraphError):
            Repository().graph("nope")

    def test_index_cached_and_rebuilt(self, fig2_graph):
        repo = Repository()
        repo.store(fig2_graph)
        index = repo.index("BIBTEX")
        assert repo.index("BIBTEX") is index
        fig2_graph.add_edge(Oid("pub1"), "note", Atom.string("x"))
        refreshed = repo.index("BIBTEX")
        assert refreshed.label_cardinality("note") == 1

    def test_indexing_disabled(self, fig2_graph):
        repo = Repository(indexing=False)
        repo.store(fig2_graph)
        assert repo.index("BIBTEX") is None

    def test_statistics_cached(self, fig2_graph):
        repo = Repository()
        repo.store(fig2_graph)
        first = repo.statistics("BIBTEX")
        assert repo.statistics("BIBTEX") is first
        fig2_graph.add_edge(Oid("pub2"), "note", Atom.string("x"))
        assert repo.statistics("BIBTEX") is not first

    def test_drop(self, fig2_graph):
        repo = Repository()
        repo.store(fig2_graph)
        repo.drop("BIBTEX")
        assert not repo.has_graph("BIBTEX")
        repo.drop("BIBTEX")  # idempotent


class TestStorage:
    def test_save_load_roundtrip(self, tmp_path, fig2_graph, tiny_graph):
        repo = Repository("mine")
        repo.store(fig2_graph)
        repo.store(tiny_graph)
        save_repository(repo, str(tmp_path))
        back = load_repository(str(tmp_path))
        assert back.database.name == "mine"
        assert back.graph_names() == sorted(["BIBTEX", "tiny"])
        assert back.graph("BIBTEX").edge_count == fig2_graph.edge_count
        assert back.graph("tiny").collection("Root") == [Oid("root")]

    def test_load_missing_manifest(self, tmp_path):
        with pytest.raises(RepositoryError):
            load_repository(str(tmp_path / "nope"))

    def test_resave_overwrites(self, tmp_path, fig2_graph):
        repo = Repository()
        repo.store(fig2_graph)
        save_repository(repo, str(tmp_path))
        fig2_graph.add_edge(Oid("pub1"), "extra", Atom.int(1))
        save_repository(repo, str(tmp_path))
        back = load_repository(str(tmp_path))
        assert back.graph("BIBTEX").edge_count == fig2_graph.edge_count

    def test_unsafe_graph_names(self, tmp_path):
        repo = Repository()
        graph = Graph("weird/name graph")
        graph.add_edge(Oid("a"), "l", Atom.int(1))
        repo.store(graph)
        save_repository(repo, str(tmp_path))
        back = load_repository(str(tmp_path))
        assert back.has_graph("weird/name graph")

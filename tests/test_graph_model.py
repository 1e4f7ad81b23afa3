"""The labeled directed graph model: nodes, edges, collections, databases."""

import pytest

from repro.errors import (
    GraphError,
    ImmutableNodeError,
    UnknownCollectionError,
    UnknownObjectError,
)
from repro.graph import Atom, Database, Edge, Graph, Oid, ensure_object
from repro.graph.model import EVERYTHING


class TestOid:
    def test_equality_by_name(self):
        assert Oid("a") == Oid("a")
        assert Oid("a") != Oid("b")

    def test_hashable(self):
        assert len({Oid("a"), Oid("a"), Oid("b")}) == 2

    def test_skolem_identity(self):
        one = Oid.skolem("F", (Atom.int(1),))
        two = Oid.skolem("F", (Atom.int(1),))
        assert one == two and hash(one) == hash(two)

    def test_skolem_distinct_args(self):
        assert Oid.skolem("F", (Atom.int(1),)) != Oid.skolem(
            "F", (Atom.int(2),))

    def test_skolem_distinct_fn(self):
        assert Oid.skolem("F", ()) != Oid.skolem("G", ())

    def test_skolem_coerced_args_unify(self):
        # 1997 the int and "1997" the string mint the same page.
        assert Oid.skolem("Year", (Atom.int(1997),)) == Oid.skolem(
            "Year", (Atom.string("1997"),))

    def test_skolem_differs_from_plain(self):
        assert Oid.skolem("F", ()) != Oid("F()")

    def test_skolem_name_readable(self):
        oid = Oid.skolem("YearPage", (Atom.int(1997),))
        assert str(oid) == "YearPage(1997)"
        assert oid.is_skolem

    def test_skolem_nested_oid_arg(self):
        inner = Oid("pub1")
        assert str(Oid.skolem("Page", (inner,))) == "Page(pub1)"


class TestGraphBasics:
    def test_add_node_idempotent(self):
        graph = Graph("g")
        graph.add_node(Oid("a"))
        graph.add_node(Oid("a"))
        assert graph.node_count == 1

    def test_add_edge_creates_endpoints(self):
        graph = Graph("g")
        graph.add_edge(Oid("a"), "l", Oid("b"))
        assert graph.has_node(Oid("a")) and graph.has_node(Oid("b"))

    def test_edge_set_semantics(self):
        graph = Graph("g")
        graph.add_edge(Oid("a"), "l", Oid("b"))
        graph.add_edge(Oid("a"), "l", Oid("b"))
        assert graph.edge_count == 1

    def test_multivalued_attribute(self):
        graph = Graph("g")
        graph.add_edge(Oid("p"), "author", Atom.string("A"))
        graph.add_edge(Oid("p"), "author", Atom.string("B"))
        assert [str(v) for v in graph.get(Oid("p"), "author")] == ["A", "B"]

    def test_get_one_default(self):
        graph = Graph("g")
        graph.add_node(Oid("a"))
        assert graph.get_one(Oid("a"), "missing") is None
        assert graph.get_one(Oid("a"), "missing", Atom.int(0)) == Atom.int(0)

    def test_bad_edge_endpoints(self):
        graph = Graph("g")
        with pytest.raises(GraphError):
            graph.add_edge("not-an-oid", "l", Oid("b"))
        with pytest.raises(GraphError):
            graph.add_edge(Oid("a"), "l", object())
        with pytest.raises(GraphError):
            graph.add_edge(Oid("a"), 3, Oid("b"))

    def test_in_edges(self):
        graph = Graph("g")
        graph.add_edge(Oid("a"), "l", Oid("c"))
        graph.add_edge(Oid("b"), "m", Oid("c"))
        assert {e.source for e in graph.in_edges(Oid("c"))} == \
            {Oid("a"), Oid("b")}

    def test_in_edges_atom_target_with_coercion(self):
        graph = Graph("g")
        graph.add_edge(Oid("a"), "year", Atom.int(1997))
        hits = graph.in_edges(Atom.string("1997"))
        assert [e.source for e in hits] == [Oid("a")]

    def test_labels_of(self):
        graph = Graph("g")
        graph.add_edge(Oid("a"), "x", Atom.int(1))
        graph.add_edge(Oid("a"), "y", Atom.int(2))
        graph.add_edge(Oid("a"), "x", Atom.int(3))
        assert graph.labels_of(Oid("a")) == ["x", "y"]

    def test_labels_schema_view(self):
        graph = Graph("g")
        graph.add_edge(Oid("a"), "beta", Atom.int(1))
        graph.add_edge(Oid("a"), "alpha", Atom.int(2))
        assert graph.labels() == ["alpha", "beta"]

    def test_contains(self):
        graph = Graph("g")
        edge = graph.add_edge(Oid("a"), "l", Oid("b"))
        assert Oid("a") in graph
        assert edge in graph
        assert Oid("zz") not in graph
        assert "random" not in graph

    def test_len_and_repr(self):
        graph = Graph("g")
        graph.add_edge(Oid("a"), "l", Oid("b"))
        assert len(graph) == 2
        assert "g" in repr(graph)

    def test_version_counts_real_changes_only(self):
        graph = Graph("g")
        assert graph.version == 0
        steps = [
            lambda: graph.add_node(Oid("a")),
            lambda: graph.add_edge(Oid("a"), "l", Atom.int(1)),
            lambda: graph.declare_collection("C"),
            lambda: graph.add_to_collection("C", Oid("a")),
            lambda: graph.add_to_collection("D", Atom.int(1)),
        ]
        for step in steps:
            before = graph.version
            step()
            assert graph.version > before
            changed = graph.version
            step()  # an idempotent repeat
            assert graph.version == changed

    def test_journal_collects_the_keys_each_change_meets(self):
        graph = Graph("g")
        graph.add_edge(Oid("a"), "l", Atom.int(1))
        graph.journal = keys = set()
        graph.add_edge(Oid("a"), "l", Atom.int(1))  # a repeat: no change
        graph.add_node(Oid("a"))
        assert keys == set()
        graph.add_to_collection("C", Oid("a"))
        graph.declare_collection("D")
        assert keys == {("collection", "C"), ("collection", "D")}
        keys.clear()
        graph.add_edge(Oid("a"), "m", Oid("b"))  # b is a new node
        assert keys == {("out", Oid("a")), ("out", Oid("a"), "m"),
                        ("in", Oid("b")), ("in", Oid("b"), "m"),
                        ("label", "m"), EVERYTHING}

    def test_atoms_iteration_distinct(self):
        graph = Graph("g")
        shared = Atom.string("s")
        graph.add_edge(Oid("a"), "l", shared)
        graph.add_edge(Oid("b"), "l", shared)
        assert len(list(graph.atoms())) == 1


class TestCollections:
    def test_membership(self):
        graph = Graph("g")
        graph.add_to_collection("C", Oid("a"))
        assert graph.in_collection("C", Oid("a"))
        assert not graph.in_collection("C", Oid("b"))

    def test_member_added_as_node(self):
        graph = Graph("g")
        graph.add_to_collection("C", Oid("a"))
        assert graph.has_node(Oid("a"))

    def test_atoms_can_be_members(self):
        graph = Graph("g")
        graph.add_to_collection("Years", Atom.int(1997))
        assert graph.in_collection("Years", Atom.int(1997))

    def test_multiple_collections(self):
        graph = Graph("g")
        graph.add_to_collection("A", Oid("x"))
        graph.add_to_collection("B", Oid("x"))
        assert graph.collections_of(Oid("x")) == ["A", "B"]

    def test_unknown_collection_raises(self):
        with pytest.raises(UnknownCollectionError):
            Graph("g").collection("nope")

    def test_declare_empty(self):
        graph = Graph("g")
        graph.declare_collection("Empty")
        assert graph.collection("Empty") == []
        assert graph.has_collection("Empty")

    def test_insertion_order_preserved(self):
        graph = Graph("g")
        for name in ("c", "a", "b"):
            graph.add_to_collection("C", Oid(name))
        assert [str(m) for m in graph.collection("C")] == ["c", "a", "b"]


class TestImmutability:
    def test_frozen_node_rejects_edges(self):
        graph = Graph("g")
        graph.add_node(Oid("old"))
        graph.freeze_existing()
        with pytest.raises(ImmutableNodeError):
            graph.add_edge(Oid("old"), "l", Oid("new"))

    def test_new_nodes_stay_mutable(self):
        graph = Graph("g")
        graph.add_node(Oid("old"))
        graph.freeze_existing()
        graph.add_edge(Oid("new"), "l", Oid("old"))  # into old is fine
        assert graph.edge_count == 1
        assert graph.is_frozen(Oid("old"))
        assert not graph.is_frozen(Oid("new"))


class TestBulkOps:
    def test_import_graph_shares_objects(self, tiny_graph):
        other = Graph("copy")
        other.import_graph(tiny_graph)
        assert other.node_count == tiny_graph.node_count
        assert other.edge_count == tiny_graph.edge_count
        assert other.in_collection("Root", Oid("root"))

    def test_copy_independent(self, tiny_graph):
        clone = tiny_graph.copy("clone")
        clone.add_edge(Oid("zzz"), "l", Oid("root"))
        assert not tiny_graph.has_node(Oid("zzz"))

    def test_subgraph_keeps_induced_edges(self, tiny_graph):
        sub = tiny_graph.subgraph(lambda oid: oid.name != "img")
        assert not sub.has_node(Oid("img"))
        assert sub.has_edge(Oid("root"), "sec", Oid("a"))
        assert not any(e.label == "pic" for e in sub.edges())

    def test_subgraph_keeps_atom_edges(self, tiny_graph):
        sub = tiny_graph.subgraph(lambda oid: True)
        assert sub.edge_count == tiny_graph.edge_count


class TestDatabase:
    def test_named_graphs(self):
        db = Database("db")
        db.new_graph("data")
        assert db.has_graph("data")
        assert db.graph_names() == ["data"]
        assert "data" in db and len(db) == 1

    def test_unnamed_graph_rejected(self):
        with pytest.raises(GraphError):
            Database().add_graph(Graph(""))

    def test_unknown_graph_raises(self):
        with pytest.raises(UnknownObjectError):
            Database().graph("missing")

    def test_shared_objects_across_graphs(self):
        db = Database()
        one, two = db.new_graph("one"), db.new_graph("two")
        shared = Oid("shared")
        one.add_node(shared)
        two.add_edge(Oid("other"), "ref", shared)
        assert one.has_node(shared) and two.has_node(shared)

    def test_remove_graph(self):
        db = Database()
        db.new_graph("g")
        db.remove_graph("g")
        db.remove_graph("g")  # idempotent
        assert not db.has_graph("g")


class TestEnsureObject:
    def test_passthrough(self):
        oid = Oid("a")
        assert ensure_object(oid) is oid

    def test_wraps_python(self):
        assert ensure_object(3) == Atom.int(3)
        assert ensure_object("s") == Atom.string("s")

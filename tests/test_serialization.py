"""JSON (de)serialization of graphs and databases."""

import pytest

from repro.errors import GraphError
from repro.graph import (
    Atom,
    AtomType,
    Database,
    Graph,
    Oid,
    database_from_dict,
    database_from_json,
    database_to_dict,
    database_to_json,
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
)
from repro.graph.serialization import object_from_dict, object_to_dict


class TestObjects:
    def test_plain_oid_roundtrip(self):
        assert object_from_dict(object_to_dict(Oid("a"))) == Oid("a")

    def test_skolem_oid_roundtrip(self):
        oid = Oid.skolem("YearPage", (Atom.int(1997),))
        back = object_from_dict(object_to_dict(oid))
        assert back == oid and back.skolem_fn == "YearPage"

    def test_atom_roundtrip_all_types(self):
        for atom in (Atom.int(1), Atom.float(2.5), Atom.bool(False),
                     Atom.string("s"), Atom.url("http://x"),
                     Atom.file("a.ps"), Atom.file("a.gif"),
                     Atom.file("a.html"), Atom.file("a.txt")):
            back = object_from_dict(object_to_dict(atom))
            assert back == atom and back.type is atom.type

    def test_bad_payload_rejected(self):
        with pytest.raises(GraphError):
            object_from_dict({"nonsense": 1})
        with pytest.raises(GraphError):
            object_to_dict(42)


class TestGraphRoundtrip:
    def test_structure_preserved(self, tiny_graph):
        back = graph_from_json(graph_to_json(tiny_graph))
        assert back.name == tiny_graph.name
        assert back.node_count == tiny_graph.node_count
        assert back.edge_count == tiny_graph.edge_count
        assert set(back.edges()) == set(tiny_graph.edges())

    def test_collections_preserved(self, tiny_graph):
        back = graph_from_json(graph_to_json(tiny_graph))
        assert back.collection("Root") == [Oid("root")]

    def test_edge_order_preserved(self):
        graph = Graph("g")
        graph.add_edge(Oid("p"), "author", Atom.string("B"))
        graph.add_edge(Oid("p"), "author", Atom.string("A"))
        back = graph_from_dict(graph_to_dict(graph))
        assert [str(v) for v in back.get(Oid("p"), "author")] == ["B", "A"]

    def test_fig4_roundtrip(self, fig4_site):
        back = graph_from_json(graph_to_json(fig4_site))
        assert back.node_count == fig4_site.node_count
        assert set(back.edges()) == set(fig4_site.edges())
        # Skolem provenance survives: the page is still recognizable.
        year = next(n for n in back.nodes() if n.skolem_fn == "YearPage")
        assert year.skolem_args

    def test_malformed_node_entry(self):
        with pytest.raises(GraphError):
            graph_from_dict({"name": "g", "nodes": [{"type": "int",
                                                     "value": 3}]})

    def test_malformed_edge_source(self):
        with pytest.raises(GraphError):
            graph_from_dict({
                "name": "g", "nodes": [],
                "edges": [{"source": {"type": "int", "value": 1},
                           "label": "l", "target": {"oid": "a"}}],
            })

    def test_org_site_roundtrip(self):
        from repro.datagen.org import build_org_mediator
        from repro.sites.org import ORG_QUERY
        from repro.struql import QueryEngine
        data = build_org_mediator(40, 4, 6, seed=1).warehouse()
        site = QueryEngine().evaluate(ORG_QUERY, data).output
        back = graph_from_json(graph_to_json(site))
        assert back.node_count == site.node_count
        assert list(back.edges()) == list(site.edges())
        assert {name: back.collection(name)
                for name in back.collection_names()} == \
            {name: site.collection(name)
             for name in site.collection_names()}

    @pytest.mark.parametrize("text", ["[]", '{"nodes": 5}'])
    def test_wrong_shape_is_a_graph_error(self, text):
        with pytest.raises(GraphError, match="not a serialized graph"):
            graph_from_json(text)

    def test_skolem_arguments_too_deep_are_a_graph_error(self):
        node = {"oid": "leaf"}
        for level in range(10_000):
            node = {"oid": f"F{level}", "skolem_fn": "F",
                    "skolem_args": [node]}
        with pytest.raises(GraphError, match="nested too deeply"):
            graph_from_dict({"name": "g", "nodes": [node]})


class TestDatabaseRoundtrip:
    def test_multiple_graphs(self, tiny_graph, fig2_graph):
        db = Database("db")
        db.add_graph(tiny_graph)
        db.add_graph(fig2_graph)
        back = database_from_json(database_to_json(db))
        assert back.graph_names() == sorted([tiny_graph.name,
                                             fig2_graph.name])
        assert back.graph("tiny").edge_count == tiny_graph.edge_count

    @pytest.mark.parametrize("text", ["[]", '{"graphs": 5}',
                                      '{"graphs": [{"nodes": 5}]}'])
    def test_wrong_shape_is_a_graph_error(self, text):
        with pytest.raises(GraphError, match="not a serialized"):
            database_from_json(text)

    def test_dict_roundtrip(self, tiny_graph):
        db = Database("db")
        db.add_graph(tiny_graph)
        back = database_from_dict(database_to_dict(db))
        assert back.name == "db"

"""Semistructured data model: labeled directed graphs (paper section 2.1).

The public surface of the substrate every other subsystem builds on:
atomic values with dynamic coercion, oids, edges, graphs with named
collections, databases of graphs, traversal algorithms and JSON
serialization.
"""

from repro.facade import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".algorithms": (
        "graph_diameter",
        "iter_paths",
        "reachable",
        "reachable_many",
        "shortest_path",
        "transitive_closure",
        "unreachable_from",
        "weakly_connected_components",
    ),
    ".dot": ("graph_to_dot",),
    ".model": ("Database", "Edge", "Graph", "GraphObject", "Oid",
               "ensure_object"),
    ".serialization": (
        "database_from_dict",
        "database_from_json",
        "database_to_dict",
        "database_to_json",
        "graph_from_dict",
        "graph_from_json",
        "graph_to_dict",
        "graph_to_json",
    ),
    ".values": ("Atom", "AtomType", "compare", "infer_file_type"),
})

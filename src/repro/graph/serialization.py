"""JSON-compatible (de)serialization of graphs and databases.

The repository persists its graphs in this format (section 2.2 describes
a common data-exchange representation between wrappers and the mediator;
the paper mentions an OEM-style DDL and XML as candidates — we provide
the DDL in :mod:`repro.ddl` and this JSON form for machine exchange and
on-disk storage).

The encoding is self-contained and stable:

* oids encode as ``{"oid": name}`` plus optional Skolem provenance;
* atoms encode as ``{"type": ..., "value": ...}``;
* a graph encodes its node list, edge list and collection map.

Round-tripping preserves node identity, edge multiplicity (as a set),
collection membership and insertion order.  Decoding text that is not
JSON, nests deeper than the decoder can follow, or is not a serialized
graph (or database) raises :class:`~repro.errors.GraphError`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Iterator

from repro.errors import GraphError
from repro.graph.model import Database, Graph, GraphObject, Oid
from repro.graph.values import Atom, AtomType


def object_to_dict(obj: GraphObject) -> dict[str, Any]:
    """Encode an oid or atom as a JSON-compatible dict."""
    if isinstance(obj, Oid):
        out: dict[str, Any] = {"oid": obj.name}
        if obj.is_skolem:
            out["skolem_fn"] = obj.skolem_fn
            out["skolem_args"] = [object_to_dict(a) if isinstance(a, (Oid, Atom))
                                  else a for a in obj.skolem_args]
        return out
    if isinstance(obj, Atom):
        return {"type": obj.type.value, "value": obj.value}
    raise GraphError(f"not a graph object: {obj!r}")


def object_from_dict(data: dict[str, Any]) -> GraphObject:
    """Decode the output of :func:`object_to_dict`."""
    if "oid" in data:
        if "skolem_fn" in data:
            args = tuple(object_from_dict(a) if isinstance(a, dict) else a
                         for a in data.get("skolem_args", []))
            oid = Oid.skolem(data["skolem_fn"], args)
            if oid.name != data["oid"]:
                # Preserve the stored display name verbatim.
                oid = Oid(data["oid"], data["skolem_fn"], args)
            return oid
        return Oid(data["oid"])
    if "type" in data:
        return Atom(AtomType(data["type"]), data["value"])
    raise GraphError(f"cannot decode graph object from {data!r}")


def graph_to_dict(graph: Graph) -> dict[str, Any]:
    """Encode a :class:`Graph` as a JSON-compatible dict."""
    return {
        "name": graph.name,
        "nodes": [object_to_dict(n) for n in graph.nodes()],
        "edges": [
            {"source": object_to_dict(e.source),
             "label": e.label,
             "target": object_to_dict(e.target)}
            for e in graph.edges()
        ],
        "collections": {
            name: [object_to_dict(m) for m in graph.collection(name)]
            for name in graph.collection_names()
        },
    }


@contextmanager
def _decoding(what: str) -> Iterator[None]:
    """Re-raise what decoding a malformed document raises as a
    :class:`GraphError` naming the problem."""
    try:
        yield
    except json.JSONDecodeError as exc:
        raise GraphError(f"malformed {what} JSON: {exc}") from None
    except RecursionError:
        raise GraphError(f"serialized {what} nested too deeply") from None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise GraphError(
            f"not a serialized {what}: {type(exc).__name__}: {exc}") \
            from None


def graph_from_dict(data: dict[str, Any]) -> Graph:
    """Decode the output of :func:`graph_to_dict`."""
    with _decoding("graph"):
        graph = Graph(data.get("name", ""))
        for node in data.get("nodes", []):
            obj = object_from_dict(node)
            if not isinstance(obj, Oid):
                raise GraphError(
                    f"node entry decodes to a non-node: {node!r}")
            graph.add_node(obj)
        for edge in data.get("edges", []):
            source = object_from_dict(edge["source"])
            target = object_from_dict(edge["target"])
            if not isinstance(source, Oid):
                raise GraphError(f"edge source is not a node: {edge!r}")
            graph.add_edge(source, edge["label"], target)
        for name, members in data.get("collections", {}).items():
            graph.declare_collection(name)
            for member in members:
                graph.add_to_collection(name, object_from_dict(member))
        return graph


def graph_to_json(graph: Graph, indent: int | None = None) -> str:
    """Serialize a graph to a JSON string."""
    return json.dumps(graph_to_dict(graph), indent=indent, sort_keys=False)


def graph_from_json(text: str) -> Graph:
    """Deserialize a graph from :func:`graph_to_json` output."""
    with _decoding("graph"):
        data = json.loads(text)
    return graph_from_dict(data)


def database_to_dict(db: Database) -> dict[str, Any]:
    """Encode a :class:`Database` (all its graphs) as a dict."""
    return {
        "name": db.name,
        "graphs": [graph_to_dict(db.graph(name))
                   for name in db.graph_names()],
    }


def database_from_dict(data: dict[str, Any]) -> Database:
    """Decode the output of :func:`database_to_dict`.

    Oids with equal structure unify across graphs, restoring the "graphs
    may share objects" property of the model.
    """
    with _decoding("database"):
        db = Database(data.get("name", ""))
        for graph_data in data.get("graphs", []):
            db.add_graph(graph_from_dict(graph_data))
        return db


def database_to_json(db: Database, indent: int | None = None) -> str:
    """Serialize a database to a JSON string."""
    return json.dumps(database_to_dict(db), indent=indent)


def database_from_json(text: str) -> Database:
    """Deserialize a database from :func:`database_to_json` output."""
    with _decoding("database"):
        data = json.loads(text)
    return database_from_dict(data)

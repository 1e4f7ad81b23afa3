"""JSON-document wrapper.

The paper's wrappers consume "structured files"; JSON is today's
structured-file lingua franca, and its tree shape maps onto the labeled
graph model the same way XML does:

* a JSON object becomes a node; each key becomes an edge;
* scalars become typed atoms (numbers, booleans, strings; string values
  that look like URLs or file paths get the corresponding atom types);
* an array contributes one edge per element under the same key (the
  model's multi-valued attributes);
* nested objects become child nodes named by path (or by their ``id``
  field when present — which also enables cross-references);
* a top-level array wraps each element as a member of the configured
  collection;
* ``null`` values produce *no* edge: the relational-NULL-to-missing-
  attribute translation again.

Objects and arrays nested deeper than :data:`~repro.lexutil.MAX_NESTING`
are a :class:`~repro.errors.WrapperError`.
"""

from __future__ import annotations

import json
import re

from repro.errors import WrapperError
from repro.graph.model import Graph, Oid
from repro.graph.values import Atom, infer_file_type
from repro.lexutil import MAX_NESTING
from repro.wrappers.base import Wrapper

_PATHY_RE = re.compile(r"^[\w./-]+\.\w{1,6}(\.gz|\.z)?$", re.IGNORECASE)


def _scalar_atom(value) -> Atom:
    if isinstance(value, bool):
        return Atom.bool(value)
    if isinstance(value, int):
        return Atom.int(value)
    if isinstance(value, float):
        return Atom.float(value)
    text = str(value)
    if text.startswith(("http://", "https://", "ftp://")):
        return Atom.url(text)
    if _PATHY_RE.match(text) and "/" in text:
        return Atom(infer_file_type(text), text)
    return Atom.string(text)


class JsonWrapper(Wrapper):
    """Maps a JSON document into a data graph."""

    graph_name = "json"
    kind = "json"

    def __init__(self, collection: str = "Items",
                 id_key: str = "id") -> None:
        self.collection = collection
        self.id_key = id_key

    def wrap(self, source: str, graph_name: str | None = None) -> Graph:
        try:
            document = json.loads(source)
        except json.JSONDecodeError as exc:
            raise WrapperError(f"malformed JSON: {exc}") from exc
        except RecursionError:
            raise _too_deep() from None
        graph = Graph(graph_name or self.graph_name)
        graph.declare_collection(self.collection)
        if isinstance(document, list):
            for index, element in enumerate(document):
                if not isinstance(element, dict):
                    raise WrapperError(
                        f"top-level array element {index} is not an "
                        f"object")
                oid = self._object(graph, element, f"item{index}", 2)
                graph.add_to_collection(self.collection, oid)
        elif isinstance(document, dict):
            oid = self._object(graph, document, "root", 1)
            graph.add_to_collection(self.collection, oid)
        else:
            raise WrapperError("top-level JSON must be an object or "
                               "an array of objects")
        return graph

    def _object(self, graph: Graph, data: dict, fallback: str,
                depth: int) -> Oid:
        """``data``'s node; ``depth`` counts the objects and arrays
        that enclose it, itself included."""
        if depth > MAX_NESTING:
            raise _too_deep()
        identity = data.get(self.id_key)
        name = str(identity) if isinstance(identity, (str, int)) \
            else fallback
        oid = Oid(name)
        graph.add_node(oid)
        for key, value in data.items():
            self._entry(graph, oid, key, value, f"{name}.{key}", depth + 1)
        return oid

    def _entry(self, graph: Graph, oid: Oid, key: str, value,
               path: str, depth: int) -> None:
        if value is None:
            return  # null: the attribute is simply missing
        if isinstance(value, list):
            if depth > MAX_NESTING:
                raise _too_deep()
            for index, element in enumerate(value):
                self._entry(graph, oid, key, element,
                            f"{path}[{index}]", depth + 1)
            return
        if isinstance(value, dict):
            child = self._object(graph, value, path, depth)
            graph.add_edge(oid, key, child)
            return
        graph.add_edge(oid, key, _scalar_atom(value))


def _too_deep() -> WrapperError:
    return WrapperError(f"JSON nested deeper than {MAX_NESTING}")

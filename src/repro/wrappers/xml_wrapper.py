"""XML wrapper.

The paper names XML as "another possible data exchange language between
the wrappers and the mediator layer" (section 2.2).  The mapping is the
natural one for the labeled-graph model:

* each element becomes a node (named by an ``id`` attribute when
  present, else positionally);
* each XML attribute becomes an edge to a string atom;
* element text becomes a ``text`` edge;
* each child element becomes an edge labeled with the child's tag;
* elements join a collection named after their tag (capitalized), so
  ``<publication>`` elements are queryable as ``Publication(x)``.

Elements nested deeper than :data:`~repro.lexutil.MAX_NESTING` are a
:class:`~repro.errors.WrapperError`.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.errors import WrapperError
from repro.graph.model import Graph, Oid
from repro.graph.values import Atom
from repro.lexutil import MAX_NESTING
from repro.wrappers.base import Wrapper


class XmlWrapper(Wrapper):
    """Maps an XML document into a data graph."""

    graph_name = "xml"
    kind = "xml"

    def wrap(self, source: str, graph_name: str | None = None) -> Graph:
        try:
            root = ET.fromstring(source)
        except ET.ParseError as exc:
            raise WrapperError(f"malformed XML: {exc}") from exc
        graph = Graph(graph_name or self.graph_name)
        counter = [0]
        self._add_element(graph, root, counter, path="")
        return graph

    def _add_element(self, graph: Graph, element: ET.Element,
                     counter: list[int], path: str, depth: int = 1) -> Oid:
        if depth > MAX_NESTING:
            raise WrapperError(
                f"XML elements nested deeper than {MAX_NESTING}")
        explicit = element.get("id")
        if explicit:
            name = explicit
        else:
            counter[0] += 1
            name = f"{path}/{element.tag}[{counter[0]}]" if path \
                else f"{element.tag}[{counter[0]}]"
        oid = Oid(name)
        graph.add_node(oid)
        graph.add_to_collection(element.tag.capitalize(), oid)
        for attr, value in element.attrib.items():
            if attr == "id":
                continue
            graph.add_edge(oid, attr, _typed(value))
        text = (element.text or "").strip()
        if text:
            graph.add_edge(oid, "text", _typed(text))
        for child in element:
            child_oid = self._add_element(graph, child, counter, name,
                                          depth + 1)
            graph.add_edge(oid, child.tag, child_oid)
            tail = (child.tail or "").strip()
            if tail:
                graph.add_edge(oid, "text", Atom.string(tail))
        return oid


def _typed(text: str) -> Atom:
    try:
        return Atom.int(int(text))
    except ValueError:
        pass
    try:
        return Atom.float(float(text))
    except ValueError:
        pass
    return Atom.string(text)

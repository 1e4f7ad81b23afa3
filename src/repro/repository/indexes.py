"""Indexes over schemaless graphs (paper section 2.2).

    Traditional systems rely on schema information to physically organize
    the data on disk, but our data repository cannot.  Without schema
    information, we fully index both the schema and the data.  For
    example, one index contains the names of all the collections and
    attributes in the graph; other indexes contain the extensions for
    each collection and attribute.  In addition, indexes on atomic values
    are global to the graph, not built per collection or attribute.

:class:`GraphIndex` materializes exactly those structures:

* the **schema index** — all attribute labels and collection names;
* **attribute extents** — for each label, every ``(source, target)``;
* the **global value index** — atom -> every ``(source, label)`` edge in
  which the atom appears, regardless of collection or attribute;
* forward/backward adjacency by ``(node, label)``.

The index is a snapshot: build it with :meth:`GraphIndex.build` and call
:meth:`refresh` after mutating the graph.  The query processor checks
:attr:`GraphIndex.fresh` and falls back to graph scans when the snapshot
is stale or indexing is disabled (benchmark A1 measures the difference).
"""

from __future__ import annotations

from repro.graph.model import Edge, Graph, GraphObject, Oid
from repro.graph.values import Atom
from repro.obs.trace import get_recorder


class GraphIndex:
    """A full schema + data index over one :class:`~repro.graph.Graph`."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._labels: set[str] = set()
        self._collection_names: set[str] = set()
        self._attribute_extent: dict[str, list[tuple[Oid, GraphObject]]] = {}
        self._forward: dict[tuple[Oid, str], list[GraphObject]] = {}
        self._backward: dict[str, dict[GraphObject, list[Oid]]] = {}
        self._value_index: dict[Atom, list[tuple[Oid, str]]] = {}
        self._version = -1

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def build(cls, graph: Graph) -> "GraphIndex":
        """Construct and populate an index for ``graph``."""
        index = cls(graph)
        index.refresh()
        return index

    def refresh(self) -> None:
        """Rebuild every index structure from the current graph state."""
        recorder = get_recorder()
        with recorder.span("index.build", graph=self.graph.name) as span:
            self._labels.clear()
            self._collection_names = set(self.graph.collection_names())
            self._attribute_extent.clear()
            self._forward.clear()
            self._backward.clear()
            self._value_index.clear()
            for edge in self.graph.edges():
                self._insert_edge(edge)
            self._version = self.graph.version
            span.set(labels=len(self._labels),
                     values=len(self._value_index))
        recorder.metrics.counter("repository.index.builds").inc()
        recorder.metrics.gauge("repository.index.labels").set(
            len(self._labels))
        recorder.metrics.gauge("repository.index.values").set(
            len(self._value_index))

    def _insert_edge(self, edge: Edge) -> None:
        source, label, target = edge
        self._labels.add(label)
        self._attribute_extent.setdefault(label, []).append((source, target))
        self._forward.setdefault((source, label), []).append(target)
        self._backward.setdefault(label, {}).setdefault(target, []).append(
            source)
        if isinstance(target, Atom):
            self._value_index.setdefault(target, []).append((source, label))

    @property
    def fresh(self) -> bool:
        """Whether the graph is still at the data version indexed."""
        return self._version == self.graph.version

    # -- schema index -----------------------------------------------------------

    def labels(self) -> list[str]:
        """All attribute names in the graph (sorted)."""
        return sorted(self._labels)

    def collection_names(self) -> list[str]:
        """All collection names in the graph (sorted)."""
        return sorted(self._collection_names)

    def has_label(self, label: str) -> bool:
        """Whether any edge carries ``label``."""
        return label in self._labels

    # -- extents ------------------------------------------------------------------

    def attribute_extent(self, label: str) -> list[tuple[Oid, GraphObject]]:
        """Every ``(source, target)`` pair connected by ``label``."""
        return list(self._attribute_extent.get(label, ()))

    # -- adjacency ---------------------------------------------------------------

    def targets(self, source: Oid, label: str) -> list[GraphObject]:
        """Values of ``label`` on ``source`` via the forward index."""
        return list(self._forward.get((source, label), ()))

    def sources(self, label: str, target: GraphObject) -> list[Oid]:
        """Nodes with an edge ``label`` pointing at ``target``."""
        return list(self._backward.get(label, {}).get(target, ()))

    # -- global value index ----------------------------------------------------------

    def value_occurrences(self, value: Atom) -> list[tuple[Oid, str]]:
        """Every ``(source, label)`` whose edge target coerces equal to
        ``value`` — the paper's global atomic-value index."""
        return list(self._value_index.get(value, ()))

    def atoms(self) -> list[Atom]:
        """Every distinct indexed atomic value."""
        return list(self._value_index)

    # -- sizes (fed to optimizer statistics) ----------------------------------------

    def label_cardinality(self, label: str) -> int:
        """Number of edges labeled ``label``."""
        return len(self._attribute_extent.get(label, ()))

    def collection_cardinality(self, name: str) -> int:
        """Number of members of collection ``name``."""
        if not self.graph.has_collection(name):
            return 0
        return len(self.graph.collection(name))

    def __repr__(self) -> str:
        return (f"GraphIndex(graph={self.graph.name!r}, "
                f"labels={len(self._labels)}, "
                f"values={len(self._value_index)}, fresh={self.fresh})")

"""Indexes over schemaless graphs (paper section 2.2).

    Traditional systems rely on schema information to physically organize
    the data on disk, but our data repository cannot.  Without schema
    information, we fully index both the schema and the data.  For
    example, one index contains the names of all the collections and
    attributes in the graph; other indexes contain the extensions for
    each collection and attribute.  In addition, indexes on atomic values
    are global to the graph, not built per collection or attribute.

:class:`GraphIndex` keeps exactly those structures:

* the **schema index** — all attribute labels and collection names;
* **attribute extents** — for each label, every ``(source, target)``;
* the **global value index** — atom -> every ``(source, label)`` edge in
  which the atom appears, regardless of collection or attribute;
* forward/backward adjacency by ``(node, label)``.

Atoms compare under coercion, which is not transitive: ``" 3 "`` equals
``3`` and ``3`` equals ``"3"``, but ``" 3 "`` does not equal ``"3"``.
A dict keyed by atoms would merge all three into whichever key came
first, so the backward maps and the value index keep each edge under
the coercing hash of its target (equal atoms hash equal) and a probe
keeps the edges whose own target equals the probe: an indexed lookup
returns what a scan comparing each edge's target returns.

Each is built when it is first read, once per data version.
:meth:`GraphIndex.build` (and :meth:`~GraphIndex.refresh` after the
graph changed) makes one pass that groups the existing edges by label;
the schema index, the extents and the label cardinalities read those
groups.  A label's forward map (source -> targets) and backward map
(target -> sources) are built on the first :meth:`~GraphIndex.targets`
or :meth:`~GraphIndex.sources` probe of that label, the value index on
the first :meth:`~GraphIndex.value_occurrences` or
:meth:`~GraphIndex.atoms` call, and the optimizer statistics of the
version (:meth:`~GraphIndex.statistics`) from the same groups.

A refresh replaces the whole per-version state with one assignment, and
a first probe builds its map into a local and publishes it with one,
so a probe never sees a half-built map or one of another version.  The
graph must not be mutated while a first probe runs; the click-time
server holds ``DynamicSite.lock`` across both.

The query processor checks :attr:`GraphIndex.fresh` and falls back to
graph scans when the snapshot is stale or indexing is disabled
(benchmark A1 measures the difference).
"""

from __future__ import annotations

from repro.graph.model import Edge, Graph, GraphObject, Oid
from repro.graph.values import Atom
from repro.obs.trace import get_recorder
from repro.repository.stats import GraphStatistics, label_groups

#: The map of a label with no edges; never mutated.
_NO_EDGES: dict = {}


class _Version:
    """One data version's label groups and what is built from them."""

    __slots__ = ("number", "groups", "collection_names", "forward",
                 "backward", "values", "statistics")

    def __init__(self, number: int, groups: dict[str, list[Edge]],
                 collection_names: list[str]) -> None:
        self.number = number
        self.groups = groups
        self.collection_names = collection_names
        self.forward: dict[str, dict[Oid, list[GraphObject]]] = {}
        self.backward: dict[str, dict[int, list[Edge]]] = {}
        self.values: dict[int, list[Edge]] | None = None
        self.statistics: GraphStatistics | None = None


class GraphIndex:
    """A full schema + data index over one :class:`~repro.graph.Graph`,
    built per label on first probe."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._current = _Version(-1, {}, [])

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def build(cls, graph: Graph) -> "GraphIndex":
        """Construct an index for ``graph`` and group its edges."""
        index = cls(graph)
        index.refresh()
        return index

    def refresh(self) -> None:
        """Start a new data version: group the current edges by label
        and drop every map built for the previous version."""
        recorder = get_recorder()
        with recorder.span("index.build", graph=self.graph.name) as span:
            graph = self.graph
            current = self._current = _Version(
                graph.version, label_groups(graph), graph.collection_names())
            span.set(labels=len(current.groups))
        recorder.metrics.counter("repository.index.builds").inc()
        recorder.metrics.gauge("repository.index.labels").set(
            len(current.groups))

    @property
    def fresh(self) -> bool:
        """Whether the graph is still at the data version indexed."""
        return self._current.number == self.graph.version

    def label_groups(self) -> dict[str, list[Edge]]:
        """The indexed version's edges grouped by label (read-only)."""
        return self._current.groups

    def statistics(self) -> GraphStatistics:
        """The graph's optimizer statistics.  While the index is fresh
        they are gathered from its label groups on the first call and
        kept with them; a stale index gathers them anew each call."""
        if not self.fresh:
            return GraphStatistics.gather(self.graph)
        current = self._current
        stats = current.statistics
        if stats is None:
            stats = GraphStatistics.gather(self.graph, self)
            current.statistics = stats
        return stats

    # -- schema index -----------------------------------------------------------

    def labels(self) -> list[str]:
        """All attribute names in the graph (sorted)."""
        return sorted(self._current.groups)

    def collection_names(self) -> list[str]:
        """All collection names in the graph (sorted)."""
        return list(self._current.collection_names)

    def has_label(self, label: str) -> bool:
        """Whether any edge carries ``label``."""
        return label in self._current.groups

    # -- extents ------------------------------------------------------------------

    def attribute_extent(self, label: str) -> list[tuple[Oid, GraphObject]]:
        """Every ``(source, target)`` pair connected by ``label``."""
        return [(source, target) for source, _, target
                in self._current.groups.get(label, ())]

    # -- adjacency ---------------------------------------------------------------

    def _adjacency(self, label: str, forward: bool) -> dict:
        """``label``'s source -> targets map (``forward``) or its
        target hash -> edges map, built on the first probe of the
        label."""
        current = self._current
        maps = current.forward if forward else current.backward
        adjacency = maps.get(label)
        if adjacency is None:
            edges = current.groups.get(label)
            if edges is None:
                return _NO_EDGES
            adjacency = {}
            for edge in edges:
                key = edge.source if forward else hash(edge.target)
                found = adjacency.get(key)
                if found is None:
                    adjacency[key] = found = []
                found.append(edge.target if forward else edge)
            maps[label] = adjacency
        return adjacency

    def targets(self, source: Oid, label: str) -> list[GraphObject]:
        """Values of ``label`` on ``source`` via the forward index."""
        return list(self._adjacency(label, True).get(source, ()))

    def sources(self, label: str, target: GraphObject) -> list[Oid]:
        """Nodes with an edge ``label`` pointing at a target that
        equals ``target`` (atoms under coercion: ``"1997"`` finds the
        sources of ``1997``)."""
        return [edge.source for edge
                in self._adjacency(label, False).get(hash(target), ())
                if edge.target == target]

    # -- global value index ----------------------------------------------------------

    def _values(self) -> dict[int, list[Edge]]:
        """The global value index (atom edges by target hash), built
        on first use."""
        current = self._current
        values = current.values
        if values is None:
            values = {}
            for edges in current.groups.values():
                for edge in edges:
                    if isinstance(edge.target, Atom):
                        key = hash(edge.target)
                        found = values.get(key)
                        if found is None:
                            values[key] = found = []
                        found.append(edge)
            current.values = values
        return values

    def value_occurrences(self, value: Atom) -> list[tuple[Oid, str]]:
        """Every ``(source, label)`` whose edge target coerces equal to
        ``value`` — the paper's global atomic-value index — grouped by
        label in first-seen label order."""
        return [(edge.source, edge.label)
                for edge in self._values().get(hash(value), ())
                if edge.target == value]

    def atoms(self) -> list[Atom]:
        """Every distinct indexed atomic value; atoms are distinct when
        their types or payloads differ (``3`` and ``"3"`` are two)."""
        distinct: dict[tuple, Atom] = {}
        for edges in self._values().values():
            for edge in edges:
                target = edge.target
                distinct.setdefault((target.type, target.value), target)
        return list(distinct.values())

    # -- sizes (fed to optimizer statistics) ----------------------------------------

    def label_cardinality(self, label: str) -> int:
        """Number of edges labeled ``label``."""
        return len(self._current.groups.get(label, ()))

    def collection_cardinality(self, name: str) -> int:
        """Number of members of collection ``name``."""
        if not self.graph.has_collection(name):
            return 0
        return len(self.graph.collection(name))

    def __repr__(self) -> str:
        return (f"GraphIndex(graph={self.graph.name!r}, "
                f"labels={len(self._current.groups)}, fresh={self.fresh})")

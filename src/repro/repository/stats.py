"""Graph statistics feeding the cost-based query optimizer.

The cost-based optimizer of [FLO 97] (paper section 2.4) chooses among
access paths using cardinalities of collections and attributes and
selectivities of value predicates.  :class:`GraphStatistics` gathers the
numbers a plan's cost formulas need:

* node/edge/atom counts;
* per-label edge counts, distinct source and target counts;
* per-collection sizes;
* fan-out (average targets per source, per label), used to cost forward
  traversals;
* fan-in, used to cost backward traversals;
* distinct-value counts, used to estimate equality selectivity.

Gathering is one pass that groups the graph's edges by label
(:func:`label_groups`), or none when a fresh
:class:`~repro.repository.GraphIndex` already holds the groups.  The
numbers of one label are computed from its group the first time the
cost model asks for that label, and the atom count on first use.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.graph.model import Edge, Graph, Oid
from repro.graph.values import Atom

if TYPE_CHECKING:
    from repro.repository.indexes import GraphIndex


def label_groups(graph: Graph) -> dict[str, list[Edge]]:
    """The graph's edges grouped by label, each group in
    :meth:`Graph.edges` order.  Groups the existing :class:`Edge`
    objects; allocates no new tuples."""
    groups: dict[str, list[Edge]] = {}
    for edge in graph.edges():
        group = groups.get(edge.label)
        if group is None:
            groups[edge.label] = [edge]
        else:
            group.append(edge)
    return groups


@dataclass
class LabelStats:
    """Statistics for one attribute label."""

    edges: int = 0
    distinct_sources: int = 0
    distinct_targets: int = 0
    atom_targets: int = 0

    @property
    def fan_out(self) -> float:
        """Average number of targets per distinct source."""
        if self.distinct_sources == 0:
            return 0.0
        return self.edges / self.distinct_sources

    @property
    def fan_in(self) -> float:
        """Average number of sources per distinct target."""
        if self.distinct_targets == 0:
            return 0.0
        return self.edges / self.distinct_targets


def _label_stats(edges: list[Edge]) -> LabelStats:
    """The statistics of one label from its edges.  Targets are distinct
    by (type, text) for atoms, not by coercing equality: ``1997`` and
    ``"1997"`` count twice."""
    targets: set[object] = set()
    atom_targets = 0
    for edge in edges:
        target = edge.target
        if isinstance(target, Oid):
            targets.add(target)
        else:
            atom_targets += 1
            targets.add(("atom", target.type, str(target.value)))
    return LabelStats(edges=len(edges),
                      distinct_sources=len({edge.source for edge in edges}),
                      distinct_targets=len(targets),
                      atom_targets=atom_targets)


class _LabelStatsTable(Mapping[str, LabelStats]):
    """Label -> :class:`LabelStats`, each computed from its label group
    on first lookup.  Its keys and length are the groups', so
    ``len`` and ``in`` compute nothing."""

    def __init__(self, groups: dict[str, list[Edge]]) -> None:
        self._groups = groups
        self._stats: dict[str, LabelStats] = {}

    def __getitem__(self, label: str) -> LabelStats:
        stats = self._stats.get(label)
        if stats is None:
            stats = _label_stats(self._groups[label])
            self._stats[label] = stats
        return stats

    def __contains__(self, label: object) -> bool:
        return label in self._groups

    def __iter__(self) -> Iterator[str]:
        return iter(self._groups)

    def __len__(self) -> int:
        return len(self._groups)


class GraphStatistics:
    """Statistics of one data version of a graph, consumed by the cost
    model.

    Node, edge and collection counts are read when gathered; per-label
    numbers (:attr:`labels`) and :attr:`atom_count` come from the label
    groups when first read.  A gather must not overlap a mutation of
    the graph, and the groups are never mutated after it.
    """

    def __init__(self, graph: Graph, groups: dict[str, list[Edge]]) -> None:
        self.node_count = graph.node_count
        self.edge_count = graph.edge_count
        self.collections = {name: len(graph.collection(name))
                            for name in graph.collection_names()}
        self.labels: Mapping[str, LabelStats] = _LabelStatsTable(groups)
        self._groups = groups
        self._atom_count: int | None = None

    @classmethod
    def gather(cls, graph: Graph,
               index: "GraphIndex | None" = None) -> "GraphStatistics":
        """Statistics of ``graph``'s current data version.  A fresh
        ``index`` lends its label groups; otherwise one pass groups
        the edges."""
        if index is not None and index.fresh:
            groups = index.label_groups()
        else:
            groups = label_groups(graph)
        return cls(graph, groups)

    @property
    def atom_count(self) -> int:
        """Distinct atom objects among the edge targets."""
        count = self._atom_count
        if count is None:
            count = self._atom_count = len({
                id(edge.target) for edges in self._groups.values()
                for edge in edges if isinstance(edge.target, Atom)})
        return count

    # -- estimates used by the cost model ------------------------------------

    def label_edges(self, label: str) -> int:
        """Edge count for ``label`` (0 when absent)."""
        stats = self.labels.get(label)
        return stats.edges if stats else 0

    def collection_size(self, name: str) -> int:
        """Member count for collection ``name`` (0 when absent)."""
        return self.collections.get(name, 0)

    def any_label_fan_out(self) -> float:
        """Average out-degree over all nodes; costs wildcard traversal."""
        if self.node_count == 0:
            return 0.0
        return self.edge_count / self.node_count

    def label_fan_out(self, label: str) -> float:
        """Average fan-out of ``label``; 0 when the label is unknown."""
        stats = self.labels.get(label)
        return stats.fan_out if stats else 0.0

    def label_fan_in(self, label: str) -> float:
        """Average fan-in of ``label``; 0 when the label is unknown."""
        stats = self.labels.get(label)
        return stats.fan_in if stats else 0.0

    def equality_selectivity(self, label: str) -> float:
        """Estimated fraction of ``label`` edges surviving ``target = c``.

        Uses the uniform-distribution assumption over distinct targets,
        the classic System-R ``1/V(A)`` estimate.
        """
        stats = self.labels.get(label)
        if not stats or stats.distinct_targets == 0:
            return 1.0
        return 1.0 / stats.distinct_targets

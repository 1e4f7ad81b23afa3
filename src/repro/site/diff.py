"""Structural site-graph diffs [FER 98c] / paper section 6.

    To support large-scale sites, we need to solve the problem of
    incremental view updates for semistructured data.

:func:`diff_graphs` compares two site graphs (pages added/removed,
edges added/removed, collection changes); ``repro diff --old-site``
prints the resulting :class:`SiteDiff`.  The incremental rebuild does
not use it: :mod:`repro.site.buildcache` re-renders the pages whose
recorded read sets touch a changed node, without the old site graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.model import Edge, Graph, GraphObject, Oid


@dataclass
class SiteDiff:
    """The structural difference between two site graphs."""

    added_nodes: set[Oid] = field(default_factory=set)
    removed_nodes: set[Oid] = field(default_factory=set)
    added_edges: set[Edge] = field(default_factory=set)
    removed_edges: set[Edge] = field(default_factory=set)
    collection_changes: dict[str, tuple[set[GraphObject],
                                        set[GraphObject]]] = field(
        default_factory=dict)

    @property
    def empty(self) -> bool:
        """Whether the two graphs are structurally identical."""
        return not (self.added_nodes or self.removed_nodes
                    or self.added_edges or self.removed_edges
                    or self.collection_changes)

    def summary(self) -> str:
        """One-line human summary."""
        return (f"+{len(self.added_nodes)}/-{len(self.removed_nodes)} "
                f"nodes, +{len(self.added_edges)}/"
                f"-{len(self.removed_edges)} edges, "
                f"{len(self.collection_changes)} collections changed")


def diff_graphs(old: Graph, new: Graph) -> SiteDiff:
    """Structural diff from ``old`` to ``new``."""
    old_nodes = set(old.nodes())
    new_nodes = set(new.nodes())
    old_edges = set(old.edges())
    new_edges = set(new.edges())
    diff = SiteDiff(
        added_nodes=new_nodes - old_nodes,
        removed_nodes=old_nodes - new_nodes,
        added_edges=new_edges - old_edges,
        removed_edges=old_edges - new_edges,
    )
    names = set(old.collection_names()) | set(new.collection_names())
    for name in sorted(names):
        old_members = set(old.collection(name)) \
            if old.has_collection(name) else set()
        new_members = set(new.collection(name)) \
            if new.has_collection(name) else set()
        added = new_members - old_members
        removed = old_members - new_members
        if added or removed:
            diff.collection_changes[name] = (added, removed)
    return diff

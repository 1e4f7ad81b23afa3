"""Incremental site-graph updates [FER 98c] / paper section 6.

    To support large-scale sites, we need to solve the problem of
    incremental view updates for semistructured data.

This module provides the materialized-site half of that problem:

* :func:`diff_graphs` — a structural diff between two site graphs
  (pages added/removed, edges added/removed, collection changes);
* :meth:`SiteDiff.dirty_pages` — the pages whose HTML can change: pages
  with edge deltas, plus every page that *embeds* a dirty page or
  renders an attribute path through one (computed against the template
  set's reference structure, conservatively via reverse reachability
  over embedding edges).

The rebuild itself — re-render only the dirty pages, delete removed
pages' files — is :mod:`repro.site.buildcache`'s planner, reached through
``Website.build_site(out, cache_dir=...)``; ``repro diff --old-site``
prints a :class:`SiteDiff` directly.  Benchmark-visible consequence:
after a small data change, the number of rewritten pages is proportional
to the change, not the site.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.model import Edge, Graph, GraphObject, Oid
from repro.templates.generator import HtmlGenerator


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

    def touched_sources(self) -> set[Oid]:
        """Nodes whose *own* content changed: endpoints of edge deltas
        plus added nodes."""
        touched = set(self.added_nodes)
        for edge in self.added_edges | self.removed_edges:
            touched.add(edge.source)
        return touched

    def dirty_pages(self, new_graph: Graph,
                    generator: HtmlGenerator) -> set[Oid]:
        """Pages whose rendered HTML may differ in the new site.

        Starts from the touched nodes and closes backwards over the new
        graph's edges: a page that links to or embeds a dirty object may
        render differently (link text comes from the target's title; an
        embedded component inlines entirely), so conservatively every
        predecessor is dirty too.  Removed pages are reported by
        :attr:`removed_nodes`, not here.
        """
        dirty = {n for n in self.touched_sources()
                 if new_graph.has_node(n)}
        # Reverse closure: predecessors of dirty objects become dirty.
        frontier = list(dirty)
        seen = set(dirty)
        while frontier:
            node = frontier.pop()
            for edge in new_graph.in_edges(node):
                if edge.source not in seen:
                    seen.add(edge.source)
                    frontier.append(edge.source)
        return {node for node in seen if generator.is_page(node)}

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

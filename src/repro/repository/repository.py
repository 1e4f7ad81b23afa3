"""The STRUDEL data repository (paper section 2.2).

The repository stores data graphs and site graphs uniformly, keeps the
full schema/data indexes of :mod:`repro.repository.indexes` for each
graph, serves statistics to the optimizer, and persists everything to
disk via :mod:`repro.repository.storage`.  One grouping of a graph's
edges by label per data version serves both the index and the
statistics.

Indexing can be disabled per repository (``indexing=False``); the query
processor then evaluates by graph scans, and the grouping serves only
the statistics.  Benchmark A1 uses this switch to reproduce the paper's
"maintaining these indexes is expensive, but they provide many benefits
to our query language" trade-off.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import UnknownGraphError
from repro.graph.model import Database, Graph
from repro.repository.indexes import GraphIndex
from repro.repository.stats import GraphStatistics


class Repository:
    """An indexed store of named graphs.

    Thin by design: a repository is a :class:`~repro.graph.Database` plus
    one :class:`GraphIndex` per graph, which also keeps the graph's
    statistics.  Graph mutations go through the graph object itself;
    an index that finds its graph at a newer data version refreshes on
    next access.
    """

    def __init__(self, name: str = "strudel", indexing: bool = True) -> None:
        self.database = Database(name)
        self.indexing = indexing
        self._indexes: dict[str, GraphIndex] = {}

    # -- graph management -------------------------------------------------------

    def store(self, graph: Graph) -> Graph:
        """Add or replace a named graph; returns it for chaining."""
        self.database.add_graph(graph)
        self._indexes.pop(graph.name, None)
        return graph

    def new_graph(self, name: str) -> Graph:
        """Create, store and return an empty graph."""
        return self.store(Graph(name))

    def graph(self, name: str) -> Graph:
        """Fetch a stored graph; raises :class:`UnknownGraphError`."""
        if not self.database.has_graph(name):
            raise UnknownGraphError(name)
        return self.database.graph(name)

    def has_graph(self, name: str) -> bool:
        """Whether a graph named ``name`` is stored."""
        return self.database.has_graph(name)

    def drop(self, name: str) -> None:
        """Remove a graph and its caches; missing names are ignored."""
        self.database.remove_graph(name)
        self._indexes.pop(name, None)

    def graph_names(self) -> list[str]:
        """Sorted names of stored graphs."""
        return self.database.graph_names()

    def __iter__(self) -> Iterator[Graph]:
        for name in self.graph_names():
            yield self.database.graph(name)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self.database.has_graph(name)

    # -- index & statistics access ------------------------------------------------

    def _fresh_index(self, name: str) -> GraphIndex:
        graph = self.graph(name)
        index = self._indexes.get(name)
        if index is None:
            index = self._indexes[name] = GraphIndex.build(graph)
        elif not index.fresh:
            index.refresh()
        return index

    def index(self, name: str) -> GraphIndex | None:
        """The (fresh) index for graph ``name``, or ``None`` if indexing
        is disabled for this repository."""
        return self._fresh_index(name) if self.indexing else None

    def statistics(self, name: str) -> GraphStatistics:
        """Statistics of graph ``name``'s current data version."""
        return self._fresh_index(name).statistics()

    def invalidate(self, name: str) -> None:
        """Force index/statistics rebuild for graph ``name`` on next use."""
        self._indexes.pop(name, None)

    def __repr__(self) -> str:
        return (f"Repository({self.database.name!r}, "
                f"graphs={self.graph_names()}, indexing={self.indexing})")

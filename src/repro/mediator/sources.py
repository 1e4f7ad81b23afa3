"""Data sources for the mediator.

A :class:`DataSource` pairs a name with a loader producing a graph and a
version counter so the mediator can detect updates cheaply ("the data in
the sources may change frequently", section 2.3).  Each load is logged
in the always-on fetch log of :mod:`repro.obs.lineage`.

:class:`LimitedAccessSource` models the paper's observation that
semistructured sources "often require that some inputs be given to
access the data" (section 2.4): loading without the required parameters
raises :class:`~repro.errors.AccessPatternError`.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import AccessPatternError, MediatorError
from repro.graph.model import Graph
from repro.obs.lineage import get_lineage, graph_content_hash, \
    record_fetch
from repro.obs.trace import get_recorder

#: Produces a source's current graph.  Parameterless for ordinary
#: sources; limited-access sources receive keyword parameters.
Loader = Callable[..., Graph]


class DataSource:
    """One external source: a named, versioned graph loader."""

    def __init__(self, name: str, loader: Loader) -> None:
        if not name:
            raise MediatorError("a data source needs a name")
        self.name = name
        self._loader = loader
        self.version = 0

    @property
    def kind(self) -> str:
        """The wrapper kind backing this source (for provenance).

        A loader may declare ``wrapper_kind``; bound wrapper methods
        expose their wrapper's ``kind``; plain functions fall back to
        their name.
        """
        loader = self._loader
        declared = getattr(loader, "wrapper_kind", None)
        if declared:
            return str(declared)
        owner = getattr(loader, "__self__", None)
        if owner is not None and getattr(owner, "kind", None):
            return str(owner.kind)
        return getattr(loader, "__name__", type(loader).__name__)

    def load(self, **parameters) -> Graph:
        """Fetch the source's current contents as a graph (counted as
        ``mediator.source_loads``)."""
        recorder = get_recorder()
        with recorder.span("source.load", source=self.name):
            graph = self._loader(**parameters)
            if not isinstance(graph, Graph):
                raise MediatorError(
                    f"source {self.name!r} loader returned "
                    f"{type(graph).__name__}, not a Graph")
        recorder.metrics.counter("mediator.source_loads").inc()
        graph.name = self.name
        record_fetch(self.name, self.kind, graph_content_hash(graph),
                     graph.node_count, graph.edge_count,
                     version=self.version)
        lineage = get_lineage()
        if lineage.enabled:
            lineage.record_source_nodes(self.name, graph)
        return graph

    def touch(self) -> None:
        """Mark the source updated (bumps the version counter)."""
        self.version += 1

    def __repr__(self) -> str:
        return f"DataSource({self.name!r}, version={self.version})"


class LimitedAccessSource(DataSource):
    """A source that can only be read with certain inputs bound."""

    def __init__(self, name: str, loader: Loader,
                 required: tuple[str, ...]) -> None:
        super().__init__(name, loader)
        self.required = tuple(required)

    def load(self, **parameters) -> Graph:
        missing = [r for r in self.required if r not in parameters]
        if missing:
            raise AccessPatternError(
                f"source {self.name!r} requires inputs "
                f"{', '.join(missing)}")
        return super().load(**parameters)

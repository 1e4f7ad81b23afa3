"""Wrapper interface (paper section 2.2).

    The repository's initial data may be obtained from wrappers that
    convert data in external sources into an internal format.

A wrapper turns one external representation (a BibTeX file, an HTML
page set, a relational table, a structured file, an XML document) into a
:class:`~repro.graph.Graph`.  Wrappers are deterministic and pure: the
same source text yields the same graph, including oid names — which is
what lets re-wrapping after a source update produce a diffable graph.
"""

from __future__ import annotations

from repro.graph.model import Graph


class Wrapper:
    """Base class: translate external source text into a data graph."""

    #: Default name given to produced graphs.
    graph_name = "data"

    #: Wrapper kind recorded in source provenance stamps
    #: (:mod:`repro.obs.lineage`).
    kind = "wrapper"

    def wrap(self, source: str, graph_name: str | None = None) -> Graph:
        """Translate ``source`` (text) into a graph."""
        raise NotImplementedError

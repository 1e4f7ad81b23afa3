"""The mediator: GAV data integration, warehoused or virtual.

Paper section 2.3: STRUDEL's mediator "supports data integration by
providing a uniform view of all underlying data".  Two design questions
are resolved exactly as the paper resolves them:

* **warehousing vs virtual** — the prototype warehouses ("the result of
  data integration is stored in STRUDEL's data repository"), but "the
  architecture can accommodate either approach"; both modes are
  implemented here and benchmark A4 compares them;
* **GAV vs LAV** — GAV: "for each relation R in the mediated schema, a
  query over the source relations specifies how to obtain R's tuples".
  Here a *mapping* is a StruQL query whose ``input`` names a source and
  whose ``output`` is the mediated graph; all mappings share one Skolem
  registry, so objects from different sources unify when the mappings
  mint them with the same Skolem function and key (the classic GAV
  object-fusion idiom).

:meth:`Mediator.warehouse` loads every source, runs every mapping, and
caches the mediated graph until :meth:`Mediator.refresh`.  A source
that raises while loading, or whose loader returns something other
than a graph, surfaces as a :class:`~repro.errors.SourceLoadError`; a
failed refresh keeps the previous warehouse.  Builds are counted as
``mediator.builds`` with ``kind`` = ``warehouse``, ``virtual`` or
``failed``.
:meth:`Mediator.virtual_view` recomputes from live sources on every
call — always fresh, always paying the integration cost.
:meth:`Mediator.staleness` reports how many source updates the current
warehouse has not seen (benchmark A4's staleness measure).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import MediatorError, SourceLoadError
from repro.graph.model import Graph
from repro.obs.queries import fingerprint
from repro.obs.trace import get_recorder
from repro.struql.ast import Query
from repro.struql.evaluator import QueryEngine
from repro.struql.parser import parse_query
from repro.struql.skolem import SkolemRegistry
from repro.mediator.sources import DataSource

if TYPE_CHECKING:
    from repro.repository.repository import Repository


class Mediator:
    """Integrates several sources into one mediated data graph."""

    def __init__(self, mediated_name: str = "data",
                 engine: QueryEngine | None = None) -> None:
        self.mediated_name = mediated_name
        self.engine = engine or QueryEngine()
        self._sources: dict[str, DataSource] = {}
        self._mappings: list[Query] = []
        self._warehouse: Graph | None = None
        self._warehouse_versions: dict[str, int] = {}

    # -- configuration ------------------------------------------------------------

    def add_source(self, source: DataSource) -> DataSource:
        """Register a source; returns it for chaining."""
        self._sources[source.name] = source
        return source

    def source(self, name: str) -> DataSource:
        """Fetch a registered source by name."""
        try:
            return self._sources[name]
        except KeyError:
            raise MediatorError(f"unknown source {name!r}") from None

    def add_mapping(self, query: Query | str) -> Query:
        """Register a GAV mapping (input = a source, output = mediated).

        The mapping's input must name a registered source and its output
        must be the mediated graph's name.
        """
        if isinstance(query, str):
            query = parse_query(query)
        if query.input_name not in self._sources:
            raise MediatorError(
                f"mapping reads unknown source {query.input_name!r}")
        if query.output_name != self.mediated_name:
            raise MediatorError(
                f"mapping must output {self.mediated_name!r}, "
                f"not {query.output_name!r}")
        self._mappings.append(query)
        return query

    def sources(self) -> list[str]:
        """Sorted names of registered sources."""
        return sorted(self._sources)

    # -- integration --------------------------------------------------------------

    def _integrate(self) -> Graph:
        """Load every source and run every mapping into a fresh graph.

        A failure is counted as a ``failed`` build and re-raised.
        """
        if not self._mappings:
            raise MediatorError("no GAV mappings registered")
        try:
            return self._run_mappings()
        except Exception:
            self._count_build("failed")
            raise

    def _run_mappings(self) -> Graph:
        recorder = get_recorder()
        mediated = Graph(self.mediated_name)
        skolem = SkolemRegistry()
        with recorder.span("mediator.integrate",
                           output=self.mediated_name,
                           mappings=len(self._mappings)):
            for mapping in self._mappings:
                with recorder.span("mediator.fetch",
                                   source=mapping.input_name) as span:
                    source = self.source(mapping.input_name)
                    try:
                        source_graph = source.load()
                    except Exception as exc:
                        raise SourceLoadError(source.name, exc) from exc
                    span.set(nodes=source_graph.node_count,
                             edges=source_graph.edge_count)
                with recorder.span("mediator.map",
                                   source=mapping.input_name,
                                   fingerprint=fingerprint(mapping)):
                    self.engine.evaluate(mapping, source_graph,
                                         output=mediated, skolem=skolem)
        return mediated

    def _count_build(self, kind: str) -> None:
        get_recorder().metrics.counter("mediator.builds", kind=kind).inc()

    def warehouse(self) -> Graph:
        """The warehoused mediated graph (built once, then cached)."""
        if self._warehouse is None:
            self.refresh()
        return self._warehouse

    def refresh(self) -> Graph:
        """Rebuild the warehouse from current source contents.

        The new graph replaces the old one only once integration has
        succeeded: when a source fails, the previous warehouse and its
        staleness count stay as they were.
        """
        mediated = self._integrate()
        self._warehouse = mediated
        self._warehouse_versions = {
            name: src.version for name, src in self._sources.items()}
        self._count_build("warehouse")
        return mediated

    def staleness(self) -> int:
        """Source updates the warehouse has not incorporated."""
        if self._warehouse is None:
            return 0
        return sum(src.version - self._warehouse_versions.get(name, 0)
                   for name, src in self._sources.items())

    def virtual_view(self) -> Graph:
        """A freshly integrated graph (virtual mode: no caching)."""
        mediated = self._integrate()
        self._count_build("virtual")
        return mediated

    # -- repository plumbing ---------------------------------------------------------

    def store_warehouse(self, repository: Repository) -> Graph:
        """Materialize the warehouse into a repository (the prototype's
        behaviour: integration results live in the data repository)."""
        graph = self.warehouse()
        repository.store(graph)
        return graph

"""The site-building pipeline: STRUDEL's top-level facade.

A :class:`Website` bundles the three separated concerns —

1. the **data graph** (possibly mediated from several sources),
2. one or more **site-definition queries** in StruQL,
3. an HTML **template set** —

and materializes the site graph, the site schema, the verification
report, and the browsable HTML site, mirroring Fig 1's architecture
end to end.  :meth:`Website.metrics` reports the measures the paper uses
throughout section 5: query lines, link-clause count (structural
complexity, Fig 8's vertical axis), template counts/lines, and the
generated site's size (Fig 8's horizontal axis).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import SiteError
from repro.graph.model import Graph, Oid
from repro.obs.lineage import get_lineage
from repro.obs.trace import get_recorder
from repro.site.buildcache import (
    BuildCache,
    BuildReport,
    cached_generate,
)
from repro.struql.ast import Query
from repro.struql.evaluator import QueryEngine, QueryResult
from repro.struql.parser import parse_query
from repro.struql.rewriter import compose
from repro.templates.generator import HtmlGenerator, TemplateSet

if TYPE_CHECKING:
    from repro.site.schema import SiteSchema
    from repro.site.verify import Constraint, VerificationReport


@dataclass
class SiteMetrics:
    """The paper's site-complexity measures for one built site."""

    query_lines: int
    link_clauses: int
    skolem_functions: int
    template_count: int
    template_lines: int
    data_nodes: int
    data_edges: int
    site_nodes: int
    site_edges: int
    pages: int

    def as_row(self) -> dict[str, int]:
        """Dict form for tabular reports."""
        return {
            "query_lines": self.query_lines,
            "link_clauses": self.link_clauses,
            "skolem_functions": self.skolem_functions,
            "templates": self.template_count,
            "template_lines": self.template_lines,
            "data_nodes": self.data_nodes,
            "data_edges": self.data_edges,
            "site_nodes": self.site_nodes,
            "site_edges": self.site_edges,
            "pages": self.pages,
        }


class Website:
    """One declaratively specified Web site."""

    def __init__(self, data: Graph,
                 queries: list[Query | str] | Query | str,
                 templates: TemplateSet | None = None,
                 engine: QueryEngine | None = None,
                 loader=None) -> None:
        if not isinstance(queries, list):
            queries = [queries]
        if not queries:
            raise SiteError("a Website needs at least one query")
        self.data = data
        self.queries: list[Query] = [
            parse_query(q) if isinstance(q, str) else q for q in queries]
        self.templates = templates or TemplateSet()
        self.engine = engine or QueryEngine()
        self.loader = loader
        self._result: QueryResult | None = None
        self._generator: HtmlGenerator | None = None

    # -- pipeline stages -----------------------------------------------------------

    def build(self) -> "Website":
        """Evaluate the site-definition queries; idempotent."""
        if self._result is None:
            with get_recorder().span("site.build",
                                     queries=len(self.queries)) as span:
                self._result = compose(list(self.queries), self.data,
                                       engine=self.engine)
                span.set(site_nodes=self._result.output.node_count,
                         site_edges=self._result.output.edge_count)
        return self

    @property
    def site_graph(self) -> Graph:
        """The materialized site graph (builds on first access)."""
        self.build()
        assert self._result is not None
        return self._result.output

    @property
    def result(self) -> QueryResult:
        """The final query result with evaluation traces."""
        self.build()
        assert self._result is not None
        return self._result

    def schema(self, query_index: int = -1) -> SiteSchema:
        """The site schema of one defining query (default: the last)."""
        from repro.site.schema import build_site_schema
        return build_site_schema(self.queries[query_index])

    def generator(self) -> HtmlGenerator:
        """The HTML generator over the built site graph."""
        if self._generator is None:
            self._generator = HtmlGenerator(self.site_graph, self.templates,
                                            loader=self.loader)
        return self._generator

    def generate(self, out_dir: str,
                 cache_dir: str | None = None) -> dict[Oid, str]:
        """Materialize the browsable site under ``out_dir``.

        Returns the written ``{oid: path}`` mapping — with a cache
        directory, only the pages that actually re-rendered.  See
        :meth:`build_site` for the full report.
        """
        return self.build_site(out_dir, cache_dir=cache_dir).written

    def build_site(self, out_dir: str,
                   cache_dir: str | None = None) -> BuildReport:
        """The cache-aware build pipeline.

        ``cache_dir`` enables the persistent build cache — the
        incremental update after a data change: unchanged pages are
        skipped, pages that left the site have their files deleted, and
        a rebuild of an unchanged site renders nothing at all.
        """
        cache = BuildCache(cache_dir) if cache_dir else None
        return cached_generate(
            self.site_graph, self.generator(), self.templates, out_dir,
            cache=cache, options=self._build_options())

    def _build_options(self) -> dict:
        """The generator options that key the build cache."""
        return {"loader": type(self.loader).__name__
                if self.loader is not None else None}

    def why(self, target: str,
            max_age: float | None = None) -> dict | None:
        """The backward derivation tree for one page url or oid name.

        Only meaningful when lineage recording was enabled
        (:func:`repro.obs.lineage.enable_lineage`) *before* the site
        was built — ``repro why`` arranges that.  A page target is
        rendered (not written) to record its read set, so the tree
        reaches the template layer without an HTML build; any other
        site-graph node gets its node-level derivation.
        """
        lineage = get_lineage()
        if not lineage.enabled:
            return None
        generator = self.generator()
        wanted = target.lstrip("/")
        for page in generator.pages():
            url = generator.url_for(page)
            if wanted in (url, page.name):
                reads: set[Oid] = set()
                generator.render_recorded(page, reads)
                lineage.record_page(url, page,
                                    generator.template_for(page) or "",
                                    reads)
                break
        else:
            node = next((node for node in self.site_graph.nodes()
                         if node.name == wanted), None)
            if node is not None:
                return lineage.why(node, max_age=max_age)
        return lineage.why(target, max_age=max_age)

    def verify(self, constraints: list[Constraint],
               schema_level: bool = True,
               graph_level: bool = True) -> VerificationReport:
        """Run integrity constraints against schema and/or site graph."""
        from repro.site.verify import Verifier
        verifier = Verifier(constraints)
        return verifier.verify(
            graph=self.site_graph if graph_level else None,
            schema=self.schema() if schema_level else None)

    # -- metrics ---------------------------------------------------------------------

    def metrics(self) -> SiteMetrics:
        """The section 5 / Fig 8 measures for this site."""
        site = self.site_graph
        query_lines = sum(
            len([ln for ln in q.text.splitlines() if ln.strip()])
            if q.text else 0
            for q in self.queries)
        link_clauses = sum(q.link_count() for q in self.queries)
        skolems = len({fn for q in self.queries
                       for fn in q.skolem_functions()})
        return SiteMetrics(
            query_lines=query_lines,
            link_clauses=link_clauses,
            skolem_functions=skolems,
            template_count=len(self.templates.names()),
            template_lines=self.templates.total_lines(),
            data_nodes=self.data.node_count,
            data_edges=self.data.edge_count,
            site_nodes=site.node_count,
            site_edges=site.edge_count,
            pages=len(self.generator().pages()),
        )

"""Form-driven dynamic pages (paper section 1).

    Web pages that depend on user input, e.g., from forms, cannot be
    materialized statically, but must be created dynamically.

A :class:`FormHandler` pairs a *parameterized* StruQL query (declared
form parameters are bound at request time) with a template set.  Each
request evaluates the query over the data graph with the submitted
parameters, renders the query's result page, and returns the HTML —
exactly the click-time path, but for pages whose identity includes user
input.  Results are cached per parameter tuple ("cache query results to
reduce click time for future queries").

String-matching built-ins useful in form queries (``contains``,
``startsWith``, ``endsWith``) are registered on the handler's engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SiteError
from repro.graph.model import Graph, Oid
from repro.graph.values import Atom
from repro.obs.trace import TimedResult, get_recorder, timed
from repro.struql.ast import Query
from repro.struql.bindings import Binding
from repro.struql.evaluator import QueryEngine
from repro.struql.parser import parse_query
from repro.struql.predicates import PredicateRegistry, default_registry
from repro.templates.formats import FileLoader
from repro.templates.generator import HtmlGenerator, TemplateSet


def _text(value) -> str:
    if isinstance(value, Atom):
        return str(value.value)
    return str(value)


def register_string_predicates(registry: PredicateRegistry) -> None:
    """Add ``contains``/``startsWith``/``endsWith``/``iequals``."""
    registry.register(
        "contains", lambda hay, needle:
        _text(needle).lower() in _text(hay).lower())
    registry.register(
        "startsWith", lambda hay, prefix:
        _text(hay).lower().startswith(_text(prefix).lower()))
    registry.register(
        "endsWith", lambda hay, suffix:
        _text(hay).lower().endswith(_text(suffix).lower()))
    registry.register(
        "iequals", lambda a, b: _text(a).lower() == _text(b).lower())


@dataclass
class FormResponse(TimedResult):
    """One answered form submission; ``seconds`` comes from its
    ``form.submit`` span."""

    html: str
    page: Oid
    from_cache: bool


class FormHandler:
    """Answers form submissions by parameterized query evaluation.

    ``query`` must declare its parameters (``parse_query(text,
    params=(...))`` or the ``params`` argument here), and its result
    page — the page rendered as the response — is the Skolem function
    named by ``result_fn`` applied to the parameters in declaration
    order.
    """

    def __init__(self, query: Query | str, data: Graph,
                 templates: TemplateSet, result_fn: str,
                 params: tuple[str, ...] = (),
                 engine: QueryEngine | None = None,
                 loader: FileLoader | None = None,
                 cache: bool = True) -> None:
        if isinstance(query, str):
            query = parse_query(query, params=params)
        if not query.params:
            raise SiteError("a form query must declare parameters")
        self.query = query
        self.data = data
        self.templates = templates
        self.result_fn = result_fn
        if engine is None:
            registry = default_registry()
            register_string_predicates(registry)
            engine = QueryEngine(predicates=registry)
        self.engine = engine
        self.loader = loader
        self._caching = cache
        self._cache: dict[tuple, FormResponse] = {}
        self.stats = {"requests": 0, "cache_hits": 0, "evaluations": 0}

    def submit(self, **params) -> FormResponse:
        """Answer one submission; parameter names must match the
        query's declared parameters."""
        self.stats["requests"] += 1
        metrics = get_recorder().metrics
        metrics.counter("forms.requests").inc()
        missing = [p for p in self.query.params if p not in params]
        if missing:
            raise SiteError(f"missing form parameter(s): "
                            f"{', '.join(missing)}")
        extra = [p for p in params if p not in self.query.params]
        if extra:
            raise SiteError(f"unknown form parameter(s): "
                            f"{', '.join(extra)}")
        values = tuple(Atom.of(params[p]) if not isinstance(
            params[p], (Atom, Oid)) else params[p]
            for p in self.query.params)
        key = values
        with timed("form.submit") as span:
            if self._caching and key in self._cache:
                self.stats["cache_hits"] += 1
                metrics.counter("forms.cache_hits").inc()
                span.set(cached=True)
                cached = self._cache[key]
                return FormResponse(cached.html, cached.page, True,
                                    span=span)
            span.set(cached=False)
            initial: Binding = dict(zip(self.query.params, values))
            result = self.engine.evaluate(self.query, self.data,
                                          initial=initial)
            self.stats["evaluations"] += 1
            metrics.counter("forms.evaluations").inc()
            page = Oid.skolem(self.result_fn, values)
            if not result.output.has_node(page):
                raise SiteError(
                    f"form query did not create result page {page}")
            generator = HtmlGenerator(result.output, self.templates,
                                      loader=self.loader)
            html = generator.render(page)
            response = FormResponse(html, page, False, span=span)
        metrics.histogram("forms.submit_seconds").observe(span.seconds)
        if self._caching:
            self._cache[key] = response
        return response

    def invalidate(self) -> None:
        """Drop cached responses after a data update."""
        self._cache.clear()

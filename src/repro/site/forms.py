"""Form-driven dynamic pages (paper section 1).

    Web pages that depend on user input, e.g., from forms, cannot be
    materialized statically, but must be created dynamically.

A form page is a click-time page whose Skolem arguments are the form's
parameters.  A :class:`FormHandler` pairs a *parameterized* StruQL query
(declared form parameters are bound at request time) with a template
set and answers each submission as one request on a
:class:`~repro.site.server.DynamicSiteServer` for the result page
``result_fn(param values...)``.  The parameters seed the page's units
like any other Skolem argument, the rendered bodies live in the
server's bounded body views, and a data change made through
``handler.server.update(mutate)`` drops what it met, so the next
submission shows it.  A submission whose result page the query does
not create (a keyword with no hits) is answered 404.

Coverage rule: a page is computed from its own Skolem arguments only,
so every block that reads a parameter (in its conditions or its links)
must carry that parameter as an argument of each Skolem term it
creates, links from or collects.  Otherwise such a term would be one
page for all submissions, computed with the parameter unbound;
:class:`FormHandler` rejects the query when it is built.

String-matching built-ins useful in form queries (``contains``,
``startsWith``, ``endsWith``) are registered on the handler's engine.
"""

from __future__ import annotations

from repro.errors import SiteError
from repro.graph.model import Graph, Oid
from repro.graph.values import Atom
from repro.site.server import DynamicSiteServer, Response
from repro.struql.ast import (
    Query,
    SkolemTerm,
    Var,
    condition_variables,
    term_variables,
)
from repro.struql.evaluator import QueryEngine
from repro.struql.parser import parse_query
from repro.struql.predicates import PredicateRegistry, default_registry
from repro.struql.rewriter import flatten
from repro.templates.formats import FileLoader
from repro.templates.generator import TemplateSet


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


def _check_parameter_coverage(query: Query) -> None:
    """Reject a block that reads a form parameter but mints a Skolem
    term without it (the module's coverage rule)."""
    for unit in flatten(query):
        read: set[str] = set()
        for condition in unit.conditions:
            read |= condition_variables(condition)
        for link in unit.links:
            read |= term_variables(link.label) | term_variables(link.target)
        terms = list(unit.creates)
        terms.extend(link.source for link in unit.links)
        terms.extend(c.term for c in unit.collects
                     if isinstance(c.term, SkolemTerm))
        for param in query.params:
            if param not in read:
                continue
            for term in terms:
                if Var(param) not in term.args:
                    raise SiteError(
                        f"form parameter {param!r} is read by block "
                        f"{unit.label} but is not an argument of {term}: "
                        f"a click-time page is computed from its own "
                        f"Skolem arguments only")


class FormHandler:
    """Answers form submissions as click-time requests on one server.

    ``query`` must declare its parameters (``parse_query(text,
    params=(...))`` or the ``params`` argument here), and its result
    page — the page answered to a submission — is the Skolem function
    named by ``result_fn`` applied to the parameters in declaration
    order.  :attr:`server` is built once; apply data changes through
    ``server.update(mutate)``.
    """

    def __init__(self, query: Query | str, data: Graph,
                 templates: TemplateSet, result_fn: str,
                 params: tuple[str, ...] = (),
                 engine: QueryEngine | None = None,
                 loader: FileLoader | None = None) -> None:
        if isinstance(query, str):
            query = parse_query(query, params=params)
        if not query.params:
            raise SiteError("a form query must declare parameters")
        _check_parameter_coverage(query)
        self.query = query
        self.result_fn = result_fn
        if engine is None:
            registry = default_registry()
            register_string_predicates(registry)
            engine = QueryEngine(predicates=registry)
        self.server = DynamicSiteServer(query, data, templates,
                                        engine=engine, loader=loader)

    def submit(self, **params) -> Response:
        """Answer one submission; parameter names must match the
        query's declared parameters.  A result page the query does not
        create is a 404."""
        missing = [p for p in self.query.params if p not in params]
        if missing:
            raise SiteError(f"missing form parameter(s): "
                            f"{', '.join(missing)}")
        extra = [p for p in params if p not in self.query.params]
        if extra:
            raise SiteError(f"unknown form parameter(s): "
                            f"{', '.join(extra)}")
        values = tuple(params[p] if isinstance(params[p], Oid)
                       else Atom.of(params[p]) for p in self.query.params)
        return self.server.request(Oid.skolem(self.result_fn, values))

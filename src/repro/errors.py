"""Exception hierarchy for the STRUDEL reproduction.

Every error raised by the library derives from :class:`StrudelError`, so
callers can catch one type at the top of a pipeline.  Sub-hierarchies
mirror the subsystems: the data model, the DDL, the repository, the
wrappers and mediator, the StruQL processor, the template language, and
the site layer.
"""

from __future__ import annotations


class StrudelError(Exception):
    """Base class for all errors raised by this library."""


# --------------------------------------------------------------------------
# Data model


class GraphError(StrudelError):
    """A structural violation in a labeled directed graph."""


class UnknownObjectError(GraphError):
    """An oid was referenced that does not exist in the graph."""

    def __init__(self, oid: object) -> None:
        super().__init__(f"unknown object: {oid!r}")
        self.oid = oid


class UnknownCollectionError(GraphError):
    """A collection name was referenced that the graph does not define."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown collection: {name!r}")
        self.name = name


class ImmutableNodeError(GraphError):
    """An edge was added out of a node the query is not allowed to mutate.

    StruQL's construction semantics (paper section 3) forbid adding edges
    out of nodes of the *input* graph: existing nodes are immutable, only
    Skolem-created nodes may gain edges.
    """


class CoercionError(GraphError):
    """Two atomic values could not be coerced to a comparable type."""


# --------------------------------------------------------------------------
# Data definition language


class DDLError(StrudelError):
    """A syntax or semantic error in a STRUDEL data-definition text."""

    def __init__(self, message: str, line: int | None = None) -> None:
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.line = line


# --------------------------------------------------------------------------
# Repository


class RepositoryError(StrudelError):
    """A failure in the data repository (missing graph, bad persistence)."""


class UnknownGraphError(RepositoryError):
    """A named graph was requested that the repository does not hold."""

    def __init__(self, name: str) -> None:
        super().__init__(f"repository has no graph named {name!r}")
        self.name = name


# --------------------------------------------------------------------------
# Wrappers / mediator


class WrapperError(StrudelError):
    """A wrapper failed to translate an external source into a graph."""


class MediatorError(StrudelError):
    """A data-integration failure (bad mapping, unknown source)."""


class SourceLoadError(MediatorError):
    """A source raised while the mediator loaded it.

    Carries the source's name; the source's own exception is the
    ``__cause__``.
    """

    def __init__(self, source: str, cause: BaseException) -> None:
        super().__init__(f"source {source!r} failed to load: {cause}")
        self.source = source


class AccessPatternError(MediatorError):
    """A source was accessed without supplying its required inputs.

    Semistructured sources often support only *limited access patterns*
    (paper section 2.4): some attributes must be bound before the source
    can be queried at all.
    """


# --------------------------------------------------------------------------
# StruQL


class StruQLError(StrudelError):
    """Base class for StruQL processing errors."""


class StruQLSyntaxError(StruQLError):
    """The query text failed to lex or parse."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        at = ""
        if line is not None:
            at = f" at line {line}"
            if column is not None:
                at += f", column {column}"
        super().__init__(f"{message}{at}")
        self.line = line
        self.column = column


class StruQLSemanticError(StruQLError):
    """The query parsed but violates StruQL's semantic conditions.

    The paper imposes two: (1) every node mentioned in ``link``/``collect``
    is either created or a data-graph node, and (2) edges are added only
    out of newly created nodes.
    """


class UnboundTermError(StruQLSemanticError):
    """A construction term names a variable its binding row leaves
    unbound."""


class UnknownPredicateError(StruQLError):
    """A query used an external predicate that is not registered."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown predicate: {name!r}")
        self.name = name


class UnboundVariableError(StruQLError):
    """A clause referenced a variable that no condition binds."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unbound variable: {name!r}")
        self.name = name


# --------------------------------------------------------------------------
# Template language


class TemplateError(StrudelError):
    """Base class for HTML-template processing errors."""


class TemplateSyntaxError(TemplateError):
    """The template text failed to lex or parse."""

    def __init__(self, message: str, line: int | None = None) -> None:
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.line = line


class TemplateEvalError(TemplateError):
    """A template expression failed during HTML generation."""


class MissingTemplateError(TemplateError):
    """No template could be selected for a site-graph object."""

    def __init__(self, oid: object) -> None:
        super().__init__(f"no HTML template for object {oid!r}")
        self.oid = oid


# --------------------------------------------------------------------------
# Site layer


class SiteError(StrudelError):
    """Base class for site-construction errors."""


class ConstraintViolation(SiteError):
    """An integrity constraint on a site failed verification.

    Carries the constraint name and a list of human-readable witnesses
    (nodes or paths demonstrating the violation).
    """

    def __init__(self, constraint: str, witnesses: list[str]) -> None:
        detail = "; ".join(witnesses[:5])
        more = f" (+{len(witnesses) - 5} more)" if len(witnesses) > 5 else ""
        super().__init__(f"constraint {constraint!r} violated: {detail}{more}")
        self.constraint = constraint
        self.witnesses = witnesses


class PageNotFoundError(SiteError):
    """A dynamic page request named a page the site does not define."""

    def __init__(self, oid: object) -> None:
        super().__init__(f"no such page: {oid!r}")
        self.oid = oid

"""The HTML generator (paper sections 2.5 and 4).

    The HTML Generator is responsible to produce the HTML code for every
    page in the Web site.  In order to do so, we associate an HTML
    template with every node in the site graph. [...] Given an object
    and its HTML template, the HTML generator interprets the HTML
    template, replacing template expressions by the HTML values of the
    object's attributes.

Two classes:

* :class:`TemplateSet` — the template library with the paper's
  three-level selection rule: (1) an object-specific template, (2) the
  template named by the object's ``HTML-template`` attribute, (3) the
  template of the object's Skolem function or collection.
* :class:`HtmlGenerator` — renders objects to HTML and materializes the
  browsable site on disk.  "The choice to realize internal objects as
  pages or as page components is delayed until HTML generation": an
  object whose selected template is registered ``as_page`` renders as a
  separate page, referenced by links; others embed.  ``FORMAT=EMBED`` /
  ``FORMAT=LINK`` override per reference, exactly as Fig 7's
  AbstractsPage template embeds the AbstractPage objects that are pages
  everywhere else.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

from repro.errors import CoercionError, MissingTemplateError, TemplateEvalError
from repro.graph.model import Graph, GraphObject, Oid
from repro.graph.values import Atom
from repro.obs.lineage import get_lineage
from repro.obs.trace import get_recorder, timed
from repro.templates.ast import (
    AndCond,
    AttrExpr,
    CmpCond,
    Cond,
    Constant,
    ExistsCond,
    ForExpr,
    FormatExpr,
    IfExpr,
    ListExpr,
    NotCondT,
    Null,
    OrCond,
    Template,
    TemplateNode,
    Text,
)
from repro.templates.formats import FileLoader, anchor, escape, realize_atom
from repro.templates.parser import parse_template

#: Attribute naming an object's own template (selection rule 2).
TEMPLATE_ATTRIBUTE = "HTML-template"

#: Attributes probed, in order, for a default link text.
_TITLE_ATTRIBUTES = ("title", "Title", "name", "Name", "Year", "year")


@dataclass
class _Entry:
    template: Template
    as_page: bool


class _RenderState(threading.local):
    """One thread's render state.

    ``stack`` is the embedding chain of the render in progress.
    ``reads`` is the read log of the top-level page render being
    recorded: every node passed to the graph's ``get``, ``get_one`` or
    ``collections_of``.  It is ``None`` whenever no render is recorded,
    so other renders neither see it nor grow it.
    """

    reads: set[Oid] | None = None

    def __init__(self) -> None:
        self.stack: list[Oid] = []


class TemplateSet:
    """A named library of compiled templates.

    Names are matched against, in order: the object's oid name, the
    value of its ``HTML-template`` attribute, its Skolem function name,
    and each of its collections.
    """

    def __init__(self) -> None:
        self._entries: dict[str, _Entry] = {}

    def add(self, name: str, text: str, as_page: bool = True) -> Template:
        """Compile and register ``text`` under ``name``."""
        template = parse_template(name, text)
        self._entries[name] = _Entry(template, as_page)
        return template

    def names(self) -> list[str]:
        """Sorted registered template names."""
        return sorted(self._entries)

    def get(self, name: str) -> Template | None:
        """The template registered under ``name``, if any."""
        entry = self._entries.get(name)
        return entry.template if entry else None

    def is_page_template(self, name: str) -> bool:
        """Whether ``name`` renders as its own page (vs. a component)."""
        entry = self._entries.get(name)
        return entry.as_page if entry else False

    def total_lines(self) -> int:
        """Total source lines across templates (the paper's '380 lines
        of templates' metric)."""
        return sum(len(e.template.source.splitlines())
                   for e in self._entries.values())

    # -- selection --------------------------------------------------------------

    def _candidates(self, graph: Graph, oid: Oid) -> list[str]:
        names = [oid.name]
        attr = graph.get_one(oid, TEMPLATE_ATTRIBUTE)
        if isinstance(attr, Atom):
            names.append(str(attr.value))
        if oid.skolem_fn:
            names.append(oid.skolem_fn)
        names.extend(graph.collections_of(oid))
        return names

    def select(self, graph: Graph, oid: Oid) -> tuple[Template, bool] | None:
        """The (template, as_page) pair for ``oid``, or ``None``."""
        for name in self._candidates(graph, oid):
            entry = self._entries.get(name)
            if entry is not None:
                return entry.template, entry.as_page
        return None


class HtmlGenerator:
    """Interprets templates over a site graph and emits the site."""

    def __init__(self, graph: Graph, templates: TemplateSet,
                 loader: FileLoader | None = None) -> None:
        self.graph = graph
        self.templates = templates
        self.loader = loader
        # Per-thread render state: the click-time server renders pages
        # concurrently over one shared generator (outside the site
        # lock), and a shared stack would report another request's
        # embedding chain as a cycle.
        self._state = _RenderState()

    @property
    def _render_stack(self) -> list[Oid]:
        return self._state.stack

    def _read(self, oid: Oid) -> None:
        """Log a graph read of ``oid`` into the recorded render, if any."""
        reads = self._state.reads
        if reads is not None:
            reads.add(oid)

    def _select(self, oid: Oid) -> tuple[Template, bool] | None:
        self._read(oid)
        return self.templates.select(self.graph, oid)

    # -- page bookkeeping ----------------------------------------------------------

    def is_page(self, oid: Oid) -> bool:
        """Whether ``oid`` is realized as a separate page by default."""
        selected = self._select(oid)
        return selected is not None and selected[1]

    def pages(self) -> list[Oid]:
        """All site-graph nodes realized as pages."""
        return [node for node in self.graph.nodes() if self.is_page(node)]

    def url_for(self, oid: Oid) -> str:
        """The relative URL of a page object."""
        safe = "".join(ch if (ch.isalnum() or ch in "-_") else "_"
                       for ch in oid.name)
        return f"{safe or 'page'}.html"

    def template_for(self, oid: Oid) -> str | None:
        """The name of the template that would render ``oid``."""
        selected = self._select(oid)
        return selected[0].name if selected else None

    def record_lineage(self, pages: list[Oid] | None = None) -> int:
        """Attach page -> site-graph node -> template lineage edges.

        Covers *all* pages by default (not just a dirty subset), so an
        incremental rebuild keeps cache-skipped pages resolvable.
        """
        lineage = get_lineage()
        if not lineage.enabled:
            return 0
        targets = self.pages() if pages is None else pages
        for page in targets:
            lineage.record_page(self.url_for(page), page,
                                self.template_for(page) or "")
        return len(targets)

    # -- rendering ---------------------------------------------------------------

    def render(self, oid: Oid) -> str:
        """The full HTML value of one object (page or component).

        Top-level renders (not embedded components) are timed into the
        ``templates.render_seconds`` histogram and a ``render.page``
        span.
        """
        if self._render_stack:
            return self._do_render(oid)
        with timed("render.page", page=str(oid)) as span:
            html = self._do_render(oid)
        get_recorder().metrics.histogram(
            "templates.render_seconds").observe(span.seconds)
        return html

    def render_recorded(self, oid: Oid, reads: set[Oid]) -> str:
        """:meth:`render` ``oid`` as a top-level page, adding to
        ``reads`` every site-graph node the render read, the page
        itself included: the dependency record of both the build cache
        and the click-time body views."""
        self._state.reads = reads
        try:
            return self.render(oid)
        finally:
            self._state.reads = None

    def _do_render(self, oid: Oid) -> str:
        selected = self._select(oid)
        if selected is None:
            raise MissingTemplateError(oid)
        template, _ = selected
        if oid in self._render_stack:
            cycle = " -> ".join(str(o) for o in self._render_stack)
            raise TemplateEvalError(
                f"embedding cycle while rendering {oid}: {cycle}")
        self._render_stack.append(oid)
        try:
            return self._render_nodes(template.nodes, oid, {})
        finally:
            self._render_stack.pop()

    def generate_site(self, out_dir: str,
                      pages: list[Oid] | None = None,
                      reads: dict[Oid, set[Oid]] | None = None
                      ) -> dict[Oid, str]:
        """Write every page's HTML under ``out_dir``.

        Returns the mapping from page oid to written file path, in
        deterministic (sorted-by-oid) order.  The result is the paper's
        "browsable Web site".  ``pages`` restricts the build to a
        subset (the build cache's dirty set); by default every page
        renders.  With ``reads``, each page's render is recorded into
        ``reads[page]``: the set of site-graph nodes it read, the page
        itself included (the build cache's dependency record).
        """
        os.makedirs(out_dir, exist_ok=True)
        targets = sorted(self.pages(), key=str) if pages is None \
            else sorted(pages, key=str)
        self.record_lineage()
        written: dict[Oid, str] = {}
        recorder = get_recorder()
        with recorder.span("site.generate_site", out_dir=out_dir) as span:
            for page in targets:
                path = os.path.join(out_dir, self.url_for(page))
                with recorder.span("site.build.page",
                                   page=str(page)) as page_span:
                    if reads is None:
                        html = self.render(page)
                    else:
                        reads[page] = set()
                        html = self.render_recorded(page, reads[page])
                    with open(path, "w", encoding="utf-8") as handle:
                        handle.write(html)
                    page_span.set(bytes=len(html))
                written[page] = path
            span.set(pages=len(written))
        return written

    # -- node dispatch ----------------------------------------------------------

    def _render_nodes(self, nodes: list[TemplateNode], obj: Oid,
                      env: dict[str, GraphObject]) -> str:
        chunks: list[str] = []
        for node in nodes:
            if isinstance(node, Text):
                chunks.append(node.text)
            elif isinstance(node, FormatExpr):
                chunks.append(self._render_format(node, obj, env))
            elif isinstance(node, IfExpr):
                branch = node.then if self._eval_cond(node.cond, obj, env) \
                    else node.orelse
                chunks.append(self._render_nodes(branch, obj, env))
            elif isinstance(node, ForExpr):
                chunks.append(self._render_for(node, obj, env))
            elif isinstance(node, ListExpr):
                chunks.append(self._render_list(node, obj, env))
            else:
                raise TemplateEvalError(f"unknown template node {node!r}")
        return "".join(chunks)

    # -- attribute expressions --------------------------------------------------------

    def resolve(self, expr: AttrExpr, obj: Oid,
                env: dict[str, GraphObject]) -> list[GraphObject]:
        """All values of an attribute expression, in edge order."""
        first, *rest = expr.segments
        reads = self._state.reads
        values: list[GraphObject]
        if first in env:
            values = [env[first]]
        else:
            if reads is not None:
                reads.add(obj)
            values = self.graph.get(obj, first)
        for segment in rest:
            next_values: list[GraphObject] = []
            for value in values:
                if isinstance(value, Oid):
                    if reads is not None:
                        reads.add(value)
                    next_values.extend(self.graph.get(value, segment))
            values = next_values
        return values

    def _resolve_one(self, expr: AttrExpr, obj: Oid,
                     env: dict[str, GraphObject]) -> GraphObject | None:
        values = self.resolve(expr, obj, env)
        return values[0] if values else None

    # -- format expressions --------------------------------------------------------

    def _tag_text(self, tag, obj: Oid,
                  env: dict[str, GraphObject]) -> str | None:
        if tag is None:
            return None
        if isinstance(tag, str):
            return tag
        value = self._resolve_one(tag, obj, env)
        if value is None:
            return None
        if isinstance(value, Atom):
            return str(value.value)
        return self._default_title(value)

    def _default_title(self, oid: Oid) -> str:
        self._read(oid)
        for attribute in _TITLE_ATTRIBUTES:
            value = self.graph.get_one(oid, attribute)
            if isinstance(value, Atom):
                return str(value.value)
        return oid.name

    def _render_format(self, node: FormatExpr, obj: Oid,
                       env: dict[str, GraphObject]) -> str:
        value = self._resolve_one(node.expr, obj, env)
        if value is None:
            return ""
        tag = self._tag_text(node.tag, obj, env)
        return self._realize(value, tag, node.format)

    def _realize(self, value: GraphObject, tag: str | None,
                 format: str | None) -> str:
        if isinstance(value, Atom):
            return realize_atom(value, tag=tag, format=format,
                                loader=self.loader)
        # Internal object: embed or link, default decided by page-ness.
        if format == "EMBED":
            return self.render(value)
        if format == "LINK" or self.is_page(value):
            return anchor(self.url_for(value),
                          tag or self._default_title(value))
        if self._select(value) is not None:
            return self.render(value)
        # No template at all: fall back to its title text.
        return escape(tag or self._default_title(value))

    # -- iteration ----------------------------------------------------------------

    def _sorted_values(self, values: list[GraphObject], order: str | None,
                       key: str | None) -> list[GraphObject]:
        if order is None:
            return values

        def sort_key(value: GraphObject):
            probe: GraphObject | None = value
            if isinstance(value, Oid) and key is not None:
                self._read(value)
                probe = self.graph.get_one(value, key)
            if isinstance(probe, Atom):
                return str(probe.value)
            if probe is None:
                return ""
            return str(probe)

        # Sort numerically when every key looks numeric, else lexically
        # (the paper's ORDER is lexicographic; numeric keys like years
        # sort identically either way at fixed width, but mixed-width
        # years deserve numeric order).
        keys = [sort_key(v) for v in values]
        try:
            numeric = [float(k) for k in keys]
            decorated = sorted(zip(numeric, range(len(values))))
        except ValueError:
            decorated = sorted(zip(keys, range(len(values))))
        ordered = [values[i] for _, i in decorated]
        if order == "descend":
            ordered.reverse()
        return ordered

    def _render_for(self, node: ForExpr, obj: Oid,
                    env: dict[str, GraphObject]) -> str:
        values = self._sorted_values(
            self.resolve(node.expr, obj, env), node.order, node.key)
        chunks: list[str] = []
        for i, value in enumerate(values):
            if i and node.delim is not None:
                chunks.append(node.delim)
            inner = dict(env)
            inner[node.var] = value
            chunks.append(self._render_nodes(node.body, obj, inner))
        return "".join(chunks)

    def _render_list(self, node: ListExpr, obj: Oid,
                     env: dict[str, GraphObject]) -> str:
        values = self._sorted_values(
            self.resolve(node.expr, obj, env), node.order, node.key)
        tag = self._tag_text(node.tag, obj, env)
        items = [self._realize(v, tag, node.format) for v in values]
        if node.wrap:
            element = node.wrap.lower()
            body = "".join(f"<li>{item}</li>" for item in items)
            return f"<{element}>{body}</{element}>"
        delim = node.delim if node.delim is not None else ", "
        return delim.join(items)

    # -- conditions ---------------------------------------------------------------

    def _eval_cond(self, cond: Cond, obj: Oid,
                   env: dict[str, GraphObject]) -> bool:
        if isinstance(cond, ExistsCond):
            return bool(self.resolve(cond.expr, obj, env))
        if isinstance(cond, AndCond):
            return self._eval_cond(cond.left, obj, env) and \
                self._eval_cond(cond.right, obj, env)
        if isinstance(cond, OrCond):
            return self._eval_cond(cond.left, obj, env) or \
                self._eval_cond(cond.right, obj, env)
        if isinstance(cond, NotCondT):
            return not self._eval_cond(cond.inner, obj, env)
        if isinstance(cond, CmpCond):
            return self._eval_cmp(cond, obj, env)
        raise TemplateEvalError(f"unknown condition {cond!r}")

    def _eval_cmp(self, cond: CmpCond, obj: Oid,
                  env: dict[str, GraphObject]) -> bool:
        left = self._expr_value(cond.left, obj, env)
        right = self._expr_value(cond.right, obj, env)
        null_involved = isinstance(cond.left, Null) or \
            isinstance(cond.right, Null)
        if null_involved:
            missing = left is None if isinstance(cond.right, Null) \
                else right is None
            if isinstance(cond.left, Null) and isinstance(cond.right, Null):
                missing = True
            if cond.op == "=":
                return missing
            if cond.op == "!=":
                return not missing
            return False
        if left is None or right is None:
            # Missing attribute: only != succeeds against a present value.
            return cond.op == "!="
        return self._compare_values(left, cond.op, right)

    def _expr_value(self, expr, obj: Oid,
                    env: dict[str, GraphObject]) -> GraphObject | None:
        if isinstance(expr, Null):
            return None
        if isinstance(expr, Constant):
            return expr.value
        if isinstance(expr, AttrExpr):
            return self._resolve_one(expr, obj, env)
        raise TemplateEvalError(f"unknown expression {expr!r}")

    def _compare_values(self, left: GraphObject, op: str,
                        right: GraphObject) -> bool:
        if isinstance(left, Oid) or isinstance(right, Oid):
            same = isinstance(left, Oid) and isinstance(right, Oid) \
                and left == right
            if op == "=":
                return same
            if op == "!=":
                return not same
            return False
        try:
            if op == "=":
                return left == right
            if op == "!=":
                return left != right
            if op == "<":
                return left < right
            if op == "<=":
                return left < right or left == right
            if op == ">":
                return right < left
            if op == ">=":
                return right < left or left == right
        except CoercionError:
            return op == "!="
        raise TemplateEvalError(f"unknown operator {op!r}")

"""HTML wrapper: existing Web pages into a data graph.

The CNN demonstration "mapped their HTML pages into a data graph
containing about 300 articles" (section 5.1); the AT&T site also
ingested "existing HTML files" through hand-written wrappers.  This
wrapper is that component: given a set of HTML documents it produces

* one node per document (collection ``Pages``), named by its URL;
* a ``title`` edge from the ``<title>`` element;
* a ``text`` edge with the document's visible text;
* ``heading`` edges for ``<h1>``/``<h2>`` text;
* a ``link`` edge per ``<a href>`` — to the target page's node when the
  target is in the wrapped set, else to a URL atom;
* an ``image`` edge per ``<img src>`` (image file atoms);
* ``meta-<name>`` edges for ``<meta name= content=>`` pairs, which is
  how article metadata (section, date) typically rides along.
"""

from __future__ import annotations

import functools

from repro.graph.model import Graph, Oid
from repro.graph.values import Atom, AtomType
from repro.wrappers.base import Wrapper


class _PageFeatures:
    """Collects the features the wrapper maps to edges: the handlers of
    an :class:`html.parser.HTMLParser` (see :func:`_page_parser`)."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.title = ""
        self.headings: list[str] = []
        self.links: list[str] = []
        self.images: list[str] = []
        self.meta: list[tuple[str, str]] = []
        self.text_chunks: list[str] = []
        self._stack: list[str] = []

    def handle_starttag(self, tag: str, attrs) -> None:
        attrs_dict = dict(attrs)
        if tag == "a" and attrs_dict.get("href"):
            self.links.append(attrs_dict["href"])
        elif tag == "img" and attrs_dict.get("src"):
            self.images.append(attrs_dict["src"])
        elif tag == "meta":
            name = attrs_dict.get("name")
            content = attrs_dict.get("content")
            if name and content:
                self.meta.append((name, content))
        if tag in ("title", "h1", "h2", "script", "style"):
            self._stack.append(tag)

    def handle_endtag(self, tag: str) -> None:
        if self._stack and self._stack[-1] == tag:
            self._stack.pop()

    def handle_data(self, data: str) -> None:
        context = self._stack[-1] if self._stack else ""
        stripped = data.strip()
        if not stripped:
            return
        if context == "title":
            self.title += stripped
        elif context in ("h1", "h2"):
            self.headings.append(stripped)
        elif context in ("script", "style"):
            return
        else:
            self.text_chunks.append(stripped)


@functools.cache
def _page_parser() -> type:
    """The parser class, made on first use so that importing the wrapper
    does not import :mod:`html.parser`."""
    from html.parser import HTMLParser

    class _PageParser(_PageFeatures, HTMLParser):
        pass

    return _PageParser


class HtmlWrapper(Wrapper):
    """Maps HTML documents into a ``Pages`` data graph."""

    graph_name = "html"
    kind = "html"

    def __init__(self, collection: str = "Pages") -> None:
        self.collection = collection

    def wrap(self, source: str, graph_name: str | None = None) -> Graph:
        """Wrap one document under the URL ``page.html``."""
        return self.wrap_pages({"page.html": source}, graph_name)

    def wrap_pages(self, pages: dict[str, str],
                   graph_name: str | None = None) -> Graph:
        """Wrap several documents keyed by URL."""
        graph = Graph(graph_name or self.graph_name)
        graph.declare_collection(self.collection)
        oids = {url: Oid(url) for url in pages}
        for url, oid in oids.items():
            graph.add_node(oid)
            graph.add_to_collection(self.collection, oid)
            graph.add_edge(oid, "url", Atom.url(url))
        for url, html_text in pages.items():
            self._add_page(graph, oids, url, html_text)
        return graph

    def _add_page(self, graph: Graph, oids: dict[str, Oid], url: str,
                  html_text: str) -> None:
        parser = _page_parser()()
        parser.feed(html_text)
        parser.close()
        oid = oids[url]
        if parser.title:
            graph.add_edge(oid, "title", Atom.string(parser.title))
        for heading in parser.headings:
            graph.add_edge(oid, "heading", Atom.string(heading))
        if parser.text_chunks:
            graph.add_edge(oid, "text",
                           Atom.string(" ".join(parser.text_chunks)))
        for href in parser.links:
            target = oids.get(href)
            if target is not None:
                graph.add_edge(oid, "link", target)
            else:
                graph.add_edge(oid, "link", Atom.url(href))
        for src in parser.images:
            graph.add_edge(oid, "image", Atom(AtomType.IMAGE_FILE, src))
        for name, content in parser.meta:
            graph.add_edge(oid, f"meta-{name}", Atom.string(content))

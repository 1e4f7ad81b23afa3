"""Parser for the STRUDEL data-definition language (paper Fig 2).

The DDL is the textual exchange format between wrappers and the
mediator/repository.  Its grammar, reconstructed from Fig 2 and the
surrounding prose:

.. code-block:: text

    file        ::=  (collection | object)*
    collection  ::=  "collection" NAME "{" (attr type)* "}"
    object      ::=  "object" NAME ["in" NAME ("," NAME)*] "{" entry* "}"
    entry       ::=  attr value
    value       ::=  STRING | INT | FLOAT | "true" | "false" | "null"
                   | "&" NAME            (reference to another object)
                   | "{" entry* "}"      (anonymous nested object)

``collection`` directives declare *default types* for attribute values
that "would otherwise be interpreted as strings" — e.g. in Fig 2,
``abstract text postscript ps`` says the ``abstract`` attribute holds a
text file and ``postscript`` a PostScript file.  Per the paper, "these
directives are not constraints and can be overridden in the input file":
a value that is not a plain string (an int, a reference, …) keeps its
own type.

Type names accepted in directives: ``text``, ``ps``/``postscript``,
``html``, ``image``, ``url``, ``int``, ``float``, ``string``, ``bool``.
"""

from __future__ import annotations

from repro.errors import DDLError
from repro.graph.model import Graph, GraphObject, Oid
from repro.graph.values import Atom, AtomType
from repro.lexutil import (
    EOF, FLOAT, IDENT, INT, MAX_NESTING, PUNCT, STRING, ScanError, Token,
    scan,
)

_PUNCTUATION = ("{", "}", "&", ",")

#: DDL type-directive names to atom types.
TYPE_NAMES: dict[str, AtomType] = {
    "text": AtomType.TEXT_FILE,
    "ps": AtomType.POSTSCRIPT_FILE,
    "postscript": AtomType.POSTSCRIPT_FILE,
    "html": AtomType.HTML_FILE,
    "image": AtomType.IMAGE_FILE,
    "url": AtomType.URL,
    "int": AtomType.INT,
    "float": AtomType.FLOAT,
    "string": AtomType.STRING,
    "bool": AtomType.BOOL,
}


class DDLParser:
    """Recursive-descent parser producing a :class:`~repro.graph.Graph`.

    Parsing is two-phase: declarations are read in document order, and
    ``&name`` references resolve against *all* objects in the file, so
    forward references are legal.
    """

    def __init__(self, text: str, graph_name: str = "data") -> None:
        try:
            # Attribute names may contain hyphens (Fig 2 uses pub-type).
            self._tokens = list(scan(
                text, _PUNCTUATION,
                ident_ok=lambda ch: ch.isalnum() or ch in "-_"))
        except ScanError as exc:
            raise DDLError(str(exc), exc.line) from exc
        self._pos = 0
        self._graph = Graph(graph_name)
        #: collection name -> attribute -> default AtomType
        self._defaults: dict[str, dict[str, AtomType]] = {}
        #: (source oid, attr, ref name, line) pending reference edges
        self._pending: list[tuple[Oid, str, str, int]] = []
        self._declared: dict[str, Oid] = {}
        self._anon_counter = 0
        self._depth = 0

    # -- token plumbing -----------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not EOF and token.kind != EOF:
            self._pos += 1
        return token

    def _expect(self, kind: str, text: str | None = None) -> Token:
        token = self._peek()
        if token.kind != kind or (text is not None and token.text != text):
            want = text if text is not None else kind
            raise DDLError(f"expected {want!r}, found {token.text!r}",
                           token.line)
        return self._next()

    def _at_punct(self, text: str) -> bool:
        token = self._peek()
        return token.kind == PUNCT and token.text == text

    def _at_keyword(self, word: str) -> bool:
        token = self._peek()
        return token.kind == IDENT and token.text == word

    # -- grammar --------------------------------------------------------------

    def parse(self) -> Graph:
        """Parse the whole input and return the resulting data graph."""
        while self._peek().kind != EOF:
            if self._at_keyword("collection"):
                self._parse_collection()
            elif self._at_keyword("object"):
                self._parse_object()
            else:
                token = self._peek()
                raise DDLError(
                    f"expected 'collection' or 'object', found {token.text!r}",
                    token.line)
        self._resolve_references()
        return self._graph

    def _parse_collection(self) -> None:
        self._expect(IDENT, "collection")
        name = self._expect(IDENT).text
        self._graph.declare_collection(name)
        defaults = self._defaults.setdefault(name, {})
        self._expect(PUNCT, "{")
        while not self._at_punct("}"):
            attr = self._expect(IDENT).text
            type_token = self._expect(IDENT)
            atom_type = TYPE_NAMES.get(type_token.text.lower())
            if atom_type is None:
                raise DDLError(f"unknown type directive {type_token.text!r}",
                               type_token.line)
            defaults[attr] = atom_type
        self._expect(PUNCT, "}")

    def _parse_object(self) -> None:
        self._expect(IDENT, "object")
        name_token = self._expect(IDENT)
        oid = self._declared.get(name_token.text)
        if oid is None:
            oid = Oid(name_token.text)
            self._declared[name_token.text] = oid
        self._graph.add_node(oid)
        collections: list[str] = []
        if self._at_keyword("in"):
            self._next()
            collections.append(self._expect(IDENT).text)
            while self._at_punct(","):
                self._next()
                collections.append(self._expect(IDENT).text)
        for cname in collections:
            self._graph.add_to_collection(cname, oid)
        self._parse_body(oid, collections)

    def _parse_body(self, oid: Oid, collections: list[str]) -> None:
        self._expect(PUNCT, "{")
        while not self._at_punct("}"):
            attr_token = self._expect(IDENT)
            self._parse_entry(oid, attr_token.text, collections,
                              attr_token.line)
        self._expect(PUNCT, "}")

    def _parse_entry(self, oid: Oid, attr: str, collections: list[str],
                     line: int) -> None:
        token = self._peek()
        if token.kind == STRING:
            self._next()
            atom = self._typed_string(attr, token.text, collections)
            self._graph.add_edge(oid, attr, atom)
        elif token.kind == INT:
            self._next()
            self._graph.add_edge(oid, attr, Atom.int(int(token.text)))
        elif token.kind == FLOAT:
            self._next()
            self._graph.add_edge(oid, attr, Atom.float(float(token.text)))
        elif token.kind == IDENT and token.text in ("true", "false"):
            self._next()
            self._graph.add_edge(oid, attr, Atom.bool(token.text == "true"))
        elif token.kind == IDENT and token.text == "null":
            # An explicit null records the attribute's presence with an
            # empty string; the semistructured model has no null atom.
            self._next()
            self._graph.add_edge(oid, attr, Atom.string(""))
        elif self._at_punct("&"):
            self._next()
            ref = self._expect(IDENT).text
            self._pending.append((oid, attr, ref, line))
        elif self._at_punct("{"):
            if self._depth == MAX_NESTING:
                raise DDLError(f"objects nested deeper than {MAX_NESTING}",
                               token.line)
            nested = self._fresh_anonymous(oid, attr)
            self._graph.add_edge(oid, attr, nested)
            self._depth += 1
            self._parse_body(nested, [])
            self._depth -= 1
        else:
            raise DDLError(f"expected a value after attribute {attr!r}, "
                           f"found {token.text!r}", token.line)

    def _fresh_anonymous(self, parent: Oid, attr: str) -> Oid:
        self._anon_counter += 1
        return self._graph.add_node(
            Oid(f"{parent.name}.{attr}#{self._anon_counter}"))

    def _typed_string(self, attr: str, text: str,
                      collections: list[str]) -> Atom:
        for cname in collections:
            default = self._defaults.get(cname, {}).get(attr)
            if default is not None:
                if default.is_file:
                    return Atom(default, text)
                if default is AtomType.URL:
                    return Atom.url(text)
                if default is AtomType.INT:
                    try:
                        return Atom.int(int(text))
                    except ValueError:
                        return Atom.string(text)
                if default is AtomType.FLOAT:
                    try:
                        return Atom.float(float(text))
                    except ValueError:
                        return Atom.string(text)
                if default is AtomType.BOOL:
                    return Atom.bool(text.lower() in ("true", "1", "yes"))
                return Atom.string(text)
        return Atom.string(text)

    def _resolve_references(self) -> None:
        for source, attr, ref, line in self._pending:
            target = self._declared.get(ref)
            if target is None:
                raise DDLError(f"reference to undeclared object {ref!r}",
                               line)
            self._graph.add_edge(source, attr, target)


def parse_ddl(text: str, graph_name: str = "data") -> Graph:
    """Parse STRUDEL DDL text into a data graph."""
    return DDLParser(text, graph_name).parse()


def parse_ddl_file(path: str, graph_name: str | None = None) -> Graph:
    """Parse a DDL file; the graph is named after the file by default."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if graph_name is None:
        import os
        graph_name = os.path.splitext(os.path.basename(path))[0]
    return parse_ddl(text, graph_name)

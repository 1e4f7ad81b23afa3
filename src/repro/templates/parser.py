"""Parser for the HTML-template language.

Plain HTML passes through untouched; the parser recognizes the directive
tags case-insensitively:

.. code-block:: text

    <SFMT @expr [FORMAT=EMBED|LINK] [TAG="text"|TAG=@expr]>
    <SIF cond> ... [<SELSE> ...] </SIF>
    <SFOR var @expr [ORDER=ascend|descend] [KEY=attr] [DELIM="s"]> ... </SFOR>
    <SFMTLIST @expr [FORMAT=...] [TAG=...] [ORDER=...] [KEY=...]
              [DELIM="s"] [WRAP=UL|OL]>

Conditions follow Fig 6's EBNF: comparisons with ``= != < <= > >=``
between attribute expressions and constants (``NULL`` tests absence),
combined with ``AND``/``OR``/``NOT`` and parentheses.  Because ``>``
terminates the directive tag, comparisons using ``<``/``>`` must be
parenthesized: ``<SIF (@year > 1997)>``; a tag ends at the first ``>``
at parenthesis depth zero outside a quoted string.
"""

from __future__ import annotations

import re

from repro.errors import TemplateSyntaxError
from repro.graph.values import Atom
from repro.lexutil import MAX_NESTING
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

_DIRECTIVE = re.compile(r"<(/?)(SFMTLIST|SFMT|SIF|SELSE|SFOR)\b",
                        re.IGNORECASE)

_ORDER_VALUES = ("ascend", "descend")


class _Tag:
    """One scanned directive tag: its kind and inner text."""

    def __init__(self, closing: bool, kind: str, body: str, start: int,
                 end: int, line: int) -> None:
        self.closing = closing
        self.kind = kind.upper()
        self.body = body
        self.start = start
        self.end = end
        self.line = line


def _find_tag_end(text: str, start: int, line: int) -> int:
    """Index just past the ``>`` ending a directive tag."""
    depth = 0
    i = start
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == '"':
            i += 1
            while i < n and text[i] != '"':
                i += 1
            if i >= n:
                raise TemplateSyntaxError("unterminated string in tag", line)
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == ">" and depth == 0:
            return i + 1
        i += 1
    raise TemplateSyntaxError("unterminated directive tag", line)


def _scan(text: str) -> list[object]:
    """Split template text into Text runs and _Tag markers."""
    out: list[object] = []
    pos = 0
    for match in _DIRECTIVE.finditer(text):
        if match.start() < pos:
            continue  # inside a previously consumed tag
        if match.start() > pos:
            out.append(Text(text[pos:match.start()]))
        line = text.count("\n", 0, match.start()) + 1
        closing = match.group(1) == "/"
        kind = match.group(2)
        end = _find_tag_end(text, match.end(), line)
        body = text[match.end():end - 1].strip()
        out.append(_Tag(closing, kind, body, match.start(), end, line))
        pos = end
    if pos < len(text):
        out.append(Text(text[pos:]))
    return out


class TemplateParser:
    """Builds a :class:`Template` from directive-scanned pieces."""

    def __init__(self, name: str, text: str) -> None:
        self._name = name
        self._source = text
        self._pieces = _scan(text)
        self._pos = 0
        self._depth = 0

    def parse(self) -> Template:
        nodes = self._parse_nodes(stop=None)
        if self._pos < len(self._pieces):
            piece = self._pieces[self._pos]
            assert isinstance(piece, _Tag)
            raise TemplateSyntaxError(
                f"unexpected closing tag </{piece.kind}>", piece.line)
        return Template(self._name, nodes, source=self._source)

    def _parse_nodes(self, stop: str | None) -> list[TemplateNode]:
        nodes: list[TemplateNode] = []
        while self._pos < len(self._pieces):
            piece = self._pieces[self._pos]
            if isinstance(piece, Text):
                nodes.append(piece)
                self._pos += 1
                continue
            assert isinstance(piece, _Tag)
            if piece.closing or piece.kind == "SELSE":
                if stop is None:
                    if piece.kind == "SELSE":
                        raise TemplateSyntaxError(
                            "<SELSE> outside <SIF>", piece.line)
                    raise TemplateSyntaxError(
                        f"unmatched closing tag </{piece.kind}>", piece.line)
                return nodes
            self._pos += 1
            if piece.kind == "SFMT":
                nodes.append(self._parse_sfmt(piece))
            elif piece.kind == "SFMTLIST":
                nodes.append(self._parse_sfmtlist(piece))
            elif piece.kind == "SIF":
                nodes.append(self._parse_sif(piece))
            elif piece.kind == "SFOR":
                nodes.append(self._parse_sfor(piece))
            else:
                raise TemplateSyntaxError(
                    f"unexpected directive {piece.kind}", piece.line)
        return nodes

    def _parse_block(self, tag: _Tag) -> list[TemplateNode]:
        """The nodes inside a ``SIF``/``SFOR`` block, one level deeper."""
        if self._depth == MAX_NESTING:
            raise TemplateSyntaxError(
                f"<{tag.kind}> nested deeper than {MAX_NESTING}", tag.line)
        self._depth += 1
        nodes = self._parse_nodes(stop=tag.kind)
        self._depth -= 1
        return nodes

    # -- block closers ------------------------------------------------------------

    def _consume_closer(self, kind: str, line: int) -> None:
        if self._pos >= len(self._pieces):
            raise TemplateSyntaxError(f"missing </{kind}>", line)
        piece = self._pieces[self._pos]
        if not isinstance(piece, _Tag) or not piece.closing \
                or piece.kind != kind:
            raise TemplateSyntaxError(f"missing </{kind}>", line)
        self._pos += 1

    def _parse_sif(self, tag: _Tag) -> IfExpr:
        cond = _CondParser(tag.body, tag.line).parse()
        then = self._parse_block(tag)
        orelse: list[TemplateNode] = []
        if self._pos < len(self._pieces):
            piece = self._pieces[self._pos]
            if isinstance(piece, _Tag) and piece.kind == "SELSE" \
                    and not piece.closing:
                self._pos += 1
                orelse = self._parse_block(tag)
        self._consume_closer("SIF", tag.line)
        return IfExpr(cond, then, orelse)

    def _parse_sfor(self, tag: _Tag) -> ForExpr:
        words = _Words(tag.body, tag.line)
        var = words.take_identifier("loop variable")
        # Optional 'IN' keyword for readability.
        if words.peek_word() and words.peek_word().upper() == "IN":
            words.take_word()
        expr = words.take_attr_expr()
        options = words.take_options(("ORDER", "KEY", "DELIM"))
        words.finish()
        body = self._parse_block(tag)
        self._consume_closer("SFOR", tag.line)
        return ForExpr(var=var, expr=expr, body=body,
                       order=_order(options, tag.line),
                       key=options.get("KEY"),
                       delim=options.get("DELIM"))

    def _parse_sfmt(self, tag: _Tag) -> FormatExpr:
        words = _Words(tag.body, tag.line)
        expr = words.take_attr_expr()
        options = words.take_options(("FORMAT", "TAG"))
        words.finish()
        return FormatExpr(expr=expr,
                          format=_format(options, tag.line),
                          tag=options.get("TAG"))

    def _parse_sfmtlist(self, tag: _Tag) -> ListExpr:
        words = _Words(tag.body, tag.line)
        expr = words.take_attr_expr()
        options = words.take_options(
            ("FORMAT", "TAG", "ORDER", "KEY", "DELIM", "WRAP"))
        words.finish()
        wrap = options.get("WRAP")
        if isinstance(wrap, str):
            wrap = wrap.upper()
            if wrap not in ("UL", "OL", "NONE"):
                raise TemplateSyntaxError(
                    f"WRAP must be UL, OL or NONE, got {wrap!r}", tag.line)
            if wrap == "NONE":
                wrap = None
        return ListExpr(expr=expr,
                        format=_format(options, tag.line),
                        tag=options.get("TAG"),
                        order=_order(options, tag.line),
                        key=options.get("KEY"),
                        delim=options.get("DELIM"),
                        wrap=wrap)


def _order(options: dict, line: int) -> str | None:
    order = options.get("ORDER")
    if order is None:
        return None
    if not isinstance(order, str) or order.lower() not in _ORDER_VALUES:
        raise TemplateSyntaxError(
            f"ORDER must be ascend or descend, got {order!r}", line)
    return order.lower()


def _format(options: dict, line: int) -> str | None:
    fmt = options.get("FORMAT")
    if fmt is None:
        return None
    if not isinstance(fmt, str) or fmt.upper() not in ("EMBED", "LINK"):
        raise TemplateSyntaxError(
            f"FORMAT must be EMBED or LINK, got {fmt!r}", line)
    return fmt.upper()


class _Words:
    """Tokenizer for directive-tag bodies: words, options, @-exprs."""

    _TOKEN = re.compile(
        r'\s*(?:(@[A-Za-z_][\w.-]*)|"((?:[^"\\]|\\.)*)"|'
        r'([A-Za-z_][\w-]*)|(=)|(\()|(\))|(-?\d+(?:\.\d+)?)|'
        r'(!=|<=|>=|<|>))')

    def __init__(self, body: str, line: int) -> None:
        self.body = body
        self.line = line
        self.pos = 0

    def _match(self) -> re.Match | None:
        if self.pos >= len(self.body):
            return None
        match = self._TOKEN.match(self.body, self.pos)
        if match is None:
            raise TemplateSyntaxError(
                f"cannot tokenize tag body near "
                f"{self.body[self.pos:self.pos + 12]!r}", self.line)
        return match

    def peek_word(self) -> str | None:
        save = self.pos
        match = self._match()
        self.pos = save
        if match and match.group(3):
            return match.group(3)
        return None

    def take_word(self) -> str:
        match = self._match()
        if match is None or not match.group(3):
            raise TemplateSyntaxError("expected a word", self.line)
        self.pos = match.end()
        return match.group(3)

    def take_identifier(self, what: str) -> str:
        match = self._match()
        if match is None or not match.group(3):
            raise TemplateSyntaxError(f"expected {what}", self.line)
        self.pos = match.end()
        return match.group(3)

    def take_attr_expr(self) -> AttrExpr:
        match = self._match()
        if match is None or not match.group(1):
            raise TemplateSyntaxError(
                "expected an attribute expression (@attr or @var.attr)",
                self.line)
        self.pos = match.end()
        return AttrExpr(tuple(match.group(1)[1:].split(".")))

    def take_options(self, allowed: tuple[str, ...]) -> dict[str, object]:
        options: dict[str, object] = {}
        while True:
            save = self.pos
            match = self._match()
            if match is None or not match.group(3):
                self.pos = save
                break
            name = match.group(3).upper()
            if name not in allowed:
                raise TemplateSyntaxError(
                    f"unknown option {match.group(3)!r} "
                    f"(allowed: {', '.join(allowed)})", self.line)
            self.pos = match.end()
            eq = self._match()
            if eq is None or not eq.group(4):
                raise TemplateSyntaxError(
                    f"option {name} needs '='", self.line)
            self.pos = eq.end()
            value = self._match()
            if value is None:
                raise TemplateSyntaxError(
                    f"option {name} needs a value", self.line)
            self.pos = value.end()
            if value.group(1):
                options[name] = AttrExpr(
                    tuple(value.group(1)[1:].split(".")))
            elif value.group(2) is not None:
                options[name] = value.group(2).replace('\\"', '"')
            elif value.group(3):
                options[name] = value.group(3)
            else:
                raise TemplateSyntaxError(
                    f"bad value for option {name}", self.line)
        return options

    def finish(self) -> None:
        if self.body[self.pos:].strip():
            raise TemplateSyntaxError(
                f"trailing content in tag: {self.body[self.pos:]!r}",
                self.line)


class _CondParser:
    """Recursive-descent parser for Fig 6's CondExpr grammar."""

    def __init__(self, body: str, line: int) -> None:
        self._words = _Words(body, line)
        self.line = line
        self._depth = 0

    def parse(self) -> Cond:
        cond = self._parse_or()
        self._words.finish()
        return cond

    def _parse_or(self) -> Cond:
        left = self._parse_and()
        while self._at_keyword("OR"):
            self._words.take_word()
            left = OrCond(left, self._parse_and())
        return left

    def _parse_and(self) -> Cond:
        left = self._parse_unary()
        while self._at_keyword("AND"):
            self._words.take_word()
            left = AndCond(left, self._parse_unary())
        return left

    def _at_keyword(self, word: str) -> bool:
        peeked = self._words.peek_word()
        return peeked is not None and peeked.upper() == word

    def _parse_unary(self) -> Cond:
        if self._depth == MAX_NESTING:
            raise TemplateSyntaxError(
                f"condition nested deeper than {MAX_NESTING}", self.line)
        if self._at_keyword("NOT"):
            self._words.take_word()
            self._depth += 1
            cond = NotCondT(self._parse_unary())
            self._depth -= 1
            return cond
        match = self._words._match()
        if match is None:
            raise TemplateSyntaxError("expected a condition", self.line)
        if match.group(5):  # '('
            self._words.pos = match.end()
            self._depth += 1
            inner = self._parse_or()
            self._depth -= 1
            closer = self._words._match()
            if closer is None or not closer.group(6):
                raise TemplateSyntaxError("missing ')'", self.line)
            self._words.pos = closer.end()
            return inner
        return self._parse_comparison()

    def _parse_comparison(self) -> Cond:
        left = self._parse_expr()
        match = self._words._match()
        op: str | None = None
        if match is not None:
            if match.group(4):
                op = "="
                self._words.pos = match.end()
            elif match.group(8):
                op = match.group(8)
                self._words.pos = match.end()
        if op is None:
            if isinstance(left, AttrExpr):
                return ExistsCond(left)
            raise TemplateSyntaxError(
                "a constant alone is not a condition", self.line)
        right = self._parse_expr()
        return CmpCond(left, op, right)

    def _parse_expr(self):
        match = self._words._match()
        if match is None:
            raise TemplateSyntaxError("expected an expression", self.line)
        self._words.pos = match.end()
        if match.group(1):
            return AttrExpr(tuple(match.group(1)[1:].split(".")))
        if match.group(2) is not None:
            return Constant(Atom.string(match.group(2).replace('\\"', '"')))
        if match.group(3):
            word = match.group(3).upper()
            if word == "NULL":
                return Null()
            if word in ("TRUE", "FALSE"):
                return Constant(Atom.bool(word == "TRUE"))
            raise TemplateSyntaxError(
                f"unexpected word {match.group(3)!r} in condition",
                self.line)
        if match.group(7):
            text = match.group(7)
            if "." in text:
                return Constant(Atom.float(float(text)))
            return Constant(Atom.int(int(text)))
        raise TemplateSyntaxError("expected an expression", self.line)


def parse_template(name: str, text: str) -> Template:
    """Compile template ``text`` under ``name``."""
    return TemplateParser(name, text).parse()

"""A small shared lexical scanner used by the DDL and StruQL lexers.

Both languages tokenize the same lexeme families — identifiers, numbers,
quoted strings, punctuation, ``//``/``#`` comments — and differ only in
keyword sets and punctuation tables, so the character-level machinery
lives here once, as does the nesting limit all three parsers (DDL,
StruQL, templates) share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass(frozen=True)
class Token:
    """One lexical token: a kind tag, its text, and source position."""

    kind: str
    text: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


#: Deepest nesting a recursive-descent parser accepts: blocks, objects,
#: directive tags, parentheses and ``not``.  Past it the parser raises
#: its own syntax error, with a position, rather than running out of
#: interpreter stack; hand-written sites nest a few levels deep.
MAX_NESTING = 64


#: Token kind constants shared by the language front ends.
IDENT = "IDENT"
STRING = "STRING"
INT = "INT"
FLOAT = "FLOAT"
PUNCT = "PUNCT"
EOF = "EOF"


class ScanError(Exception):
    """Raised on an unlexable character; front ends wrap it."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(message)
        self.line = line
        self.column = column


def scan(text: str, punctuation: tuple[str, ...],
         ident_ok: Callable[[str], bool] = str.isalnum) -> Iterator[Token]:
    """Tokenize ``text``.

    ``punctuation`` lists multi/single-character operators, longest
    first (the scanner greedily matches in the given order).
    ``ident_ok`` decides which characters may continue an identifier
    (the first character must be a letter or underscore).

    Yields a trailing :data:`EOF` token so parsers need no sentinel
    handling.
    """
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#" or text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                raise ScanError("unterminated comment", line, col)
            skipped = text[i:end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = end + 2
            continue
        if ch == '"':
            token, i2 = _scan_string(text, i, line, col)
            col += i2 - i
            i = i2
            yield token
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()
                            and _minus_starts_number(punctuation)):
            token, i2 = _scan_number(text, i, line, col)
            col += i2 - i
            i = i2
            yield token
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (ident_ok(text[i]) or text[i] == "_"):
                i += 1
            yield Token(IDENT, text[start:i], line, col)
            col += i - start
            continue
        matched = False
        for punct in punctuation:
            if text.startswith(punct, i):
                yield Token(PUNCT, punct, line, col)
                i += len(punct)
                col += len(punct)
                matched = True
                break
        if not matched:
            raise ScanError(f"unexpected character {ch!r}", line, col)
    yield Token(EOF, "", line, col)


def _minus_starts_number(punctuation: tuple[str, ...]) -> bool:
    # Languages that use '-' as an operator (e.g. '->') handle negative
    # literals in the parser instead; only lex '-3' as a number when the
    # bare '-' is not an operator.
    return "-" not in punctuation and "->" not in punctuation


def _scan_string(text: str, i: int, line: int, col: int) -> tuple[Token, int]:
    out: list[str] = []
    j = i + 1
    n = len(text)
    while j < n:
        ch = text[j]
        if ch == '"':
            return Token(STRING, "".join(out), line, col), j + 1
        if ch == "\\" and j + 1 < n:
            escape = text[j + 1]
            out.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
                       .get(escape, escape))
            j += 2
            continue
        if ch == "\n":
            raise ScanError("unterminated string literal", line, col)
        out.append(ch)
        j += 1
    raise ScanError("unterminated string literal", line, col)


def _scan_number(text: str, i: int, line: int, col: int) -> tuple[Token, int]:
    j = i
    n = len(text)
    if text[j] == "-":
        j += 1
    while j < n and text[j].isdigit():
        j += 1
    is_float = False
    if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
        is_float = True
        j += 1
        while j < n and text[j].isdigit():
            j += 1
    # Scientific notation: 2.5e-308, 1E6 — only when the exponent is
    # well-formed, so identifiers following a number stay separate.
    if j < n and text[j] in "eE":
        k = j + 1
        if k < n and text[k] in "+-":
            k += 1
        if k < n and text[k].isdigit():
            while k < n and text[k].isdigit():
                k += 1
            j = k
            is_float = True
    kind = FLOAT if is_float else INT
    return Token(kind, text[i:j], line, col), j

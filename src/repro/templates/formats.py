"""Type-specific HTML realization rules (paper section 4).

    Format expressions are concise, because the HTML generator uses
    type-specific rules to determine an attribute's HTML value.  For
    most atomic values (integers, strings, URLs, HTML and text files),
    the attribute's HTML value is converted to a string and is embedded
    in the HTML template. [...] Some values, such as PostScript files,
    should not be realized as strings.  For these values, the HTML
    generator produces an appropriate link to the value.

Rules implemented:

========================  =============================================
atom type                 default realization
========================  =============================================
int, float, bool, string  escaped text
url                       anchor to the URL (text = tag or the URL)
text file                 file contents escaped (via the loader), else
                          the path as text
html file                 file contents inlined raw (it *is* HTML)
postscript file           anchor to the file (text = tag or the path)
image file                ``<img>`` tag
========================  =============================================

``FORMAT=LINK`` forces an anchor for any value; atoms have no meaningful
``FORMAT=EMBED`` override (they already embed where sensible).
"""

from __future__ import annotations

from typing import Callable

from repro.graph.values import Atom, AtomType

#: Loads file contents for text/HTML embedding; returns None if the
#: file cannot be provided (the path is then shown as text).
FileLoader = Callable[[str], str | None]


def escape(text: str) -> str:
    """HTML-escape arbitrary text.

    The replacements of ``html.escape(text, quote=True)``, spelled out
    so that rendering does not import :mod:`html` and its entity table.
    """
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;")
            .replace("'", "&#x27;"))


def anchor(href: str, text: str) -> str:
    """An ``<a>`` element."""
    return f'<a href="{escape(href)}">{escape(text)}</a>'


def realize_atom(atom: Atom, tag: str | None = None,
                 format: str | None = None,
                 loader: FileLoader | None = None) -> str:
    """The HTML value of an atomic value.

    ``tag`` is the anchor text for link realizations; ``format`` is the
    template's explicit FORMAT override (``"LINK"`` forces an anchor).
    """
    text = str(atom.value)
    if format == "LINK":
        return anchor(text, tag or text)
    if atom.type is AtomType.URL:
        return anchor(text, tag or text)
    if atom.type is AtomType.POSTSCRIPT_FILE:
        return anchor(text, tag or text)
    if atom.type is AtomType.IMAGE_FILE:
        alt = escape(tag) if tag else ""
        return f'<img src="{escape(text)}" alt="{alt}">'
    if atom.type is AtomType.HTML_FILE:
        contents = loader(text) if loader else None
        return contents if contents is not None else escape(text)
    if atom.type is AtomType.TEXT_FILE:
        contents = loader(text) if loader else None
        return escape(contents) if contents is not None else escape(text)
    return escape(text)

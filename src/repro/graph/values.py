"""Atomic value types of the STRUDEL data model.

The paper (section 2.1) models objects as either *nodes*, identified by a
unique oid, or *atomic values* — integers, strings, and the file-like
types that commonly appear on Web pages: URLs and PostScript, text, image,
and HTML files.  Atomic types are "handled in a uniform fashion, and
values are coerced dynamically when they are compared at run time".

This module implements that value system:

* :class:`Atom` — immutable wrapper pairing a Python payload with an
  :class:`AtomType`.
* :func:`coerce_pair` — the dynamic coercion rule used by comparisons.
* :func:`compare` — three-way comparison with coercion, used by StruQL
  comparison predicates and by the template language's ``ORDER`` sort.
* ``is_*`` type predicates registered as StruQL built-ins elsewhere.

Atoms are hashable and totally ordered *within* a coercible family, so
they can live in sets, serve as dict keys, and be sorted.
"""

from __future__ import annotations

import enum
from functools import total_ordering
from typing import Any

from repro.errors import CoercionError


class AtomType(enum.Enum):
    """The atomic types the paper lists for Web-page content."""

    INT = "int"
    FLOAT = "float"
    BOOL = "bool"
    STRING = "string"
    URL = "url"
    TEXT_FILE = "text"
    HTML_FILE = "html"
    POSTSCRIPT_FILE = "postscript"
    IMAGE_FILE = "image"

    @property
    def is_file(self) -> bool:
        """Whether values of this type denote file contents, not scalars."""
        return self in _FILE_TYPES

    @property
    def is_numeric(self) -> bool:
        """Whether values of this type participate in numeric coercion."""
        return self in (AtomType.INT, AtomType.FLOAT, AtomType.BOOL)


_FILE_TYPES = frozenset({
    AtomType.TEXT_FILE,
    AtomType.HTML_FILE,
    AtomType.POSTSCRIPT_FILE,
    AtomType.IMAGE_FILE,
})

#: File-name suffixes used to infer a file atom's type, mirroring the
#: paper's wrappers which classify values like ``papers/icde98.ps.gz``.
_SUFFIX_TYPES: tuple[tuple[tuple[str, ...], AtomType], ...] = (
    ((".ps", ".ps.gz", ".ps.z", ".eps"), AtomType.POSTSCRIPT_FILE),
    ((".html", ".htm"), AtomType.HTML_FILE),
    ((".gif", ".jpg", ".jpeg", ".png", ".bmp", ".xbm"), AtomType.IMAGE_FILE),
    ((".txt", ".text", ".abs"), AtomType.TEXT_FILE),
)


@total_ordering
class Atom:
    """An immutable atomic value: a payload tagged with an :class:`AtomType`.

    ``Atom`` instances compare with dynamic coercion: ``Atom.int(3) ==
    Atom.string("3")`` is true because the string coerces to an integer at
    comparison time, exactly as the paper prescribes for run-time
    comparisons.  Values that cannot be coerced to a common type are
    simply unequal (and ordering between them raises
    :class:`~repro.errors.CoercionError`).

    The hash is computed on first use and kept in the ``_hash`` slot:
    most atoms built for comparisons are never hashed, while an atom in
    a Skolem argument or an index key is hashed many times.
    """

    __slots__ = ("type", "value", "_hash")

    def __init__(self, type: AtomType, value: Any) -> None:
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "value", _validate(type, value))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def int(value: int) -> "Atom":
        """Build an integer atom."""
        return Atom(AtomType.INT, int(value))

    @staticmethod
    def float(value: float) -> "Atom":
        """Build a floating-point atom."""
        return Atom(AtomType.FLOAT, float(value))

    @staticmethod
    def bool(value: bool) -> "Atom":
        """Build a boolean atom."""
        return Atom(AtomType.BOOL, bool(value))

    @staticmethod
    def string(value: str) -> "Atom":
        """Build a string atom."""
        return Atom(AtomType.STRING, str(value))

    @staticmethod
    def url(value: str) -> "Atom":
        """Build a URL atom."""
        return Atom(AtomType.URL, str(value))

    @staticmethod
    def file(path: str, type: AtomType | None = None) -> "Atom":
        """Build a file atom, inferring its type from the suffix.

        ``type`` overrides inference; unknown suffixes default to
        :attr:`AtomType.TEXT_FILE`, matching the paper's default of
        treating unrecognized file attributes as text.
        """
        if type is None:
            type = infer_file_type(path)
        if not type.is_file:
            raise ValueError(f"{type} is not a file type")
        return Atom(type, str(path))

    @staticmethod
    def of(value: Any) -> "Atom":
        """Wrap a plain Python value in the natural atom type.

        Existing atoms pass through unchanged, so ``Atom.of`` is safe to
        apply to values of unknown provenance.
        """
        if isinstance(value, Atom):
            return value
        if isinstance(value, bool):
            return Atom.bool(value)
        if isinstance(value, int):
            return Atom.int(value)
        if isinstance(value, float):
            return Atom.float(value)
        if isinstance(value, str):
            return Atom.string(value)
        raise TypeError(f"cannot make an Atom from {type(value).__name__}")

    # -- immutability ------------------------------------------------------

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Atom is immutable")

    # -- comparison with dynamic coercion -----------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        pair = _try_coerce_pair(self, other)
        if pair is None:
            return False
        return pair[0] == pair[1]

    def __lt__(self, other: "Atom") -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        left, right = coerce_pair(self, other)
        return left < right

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        value = _hash_atom(self)
        object.__setattr__(self, "_hash", value)
        return value

    # -- presentation --------------------------------------------------------

    def __repr__(self) -> str:
        return f"Atom({self.type.value}, {self.value!r})"

    def __str__(self) -> str:
        return str(self.value)

    def to_python(self) -> Any:
        """Return the underlying Python payload."""
        return self.value


def _hash_atom(atom: Atom) -> int:
    """Hash an atom so that atoms equal under coercion hash equal.

    Numbers hash by numeric value (Python hashes equal ints and floats
    alike); string-like payloads hash by the number they coerce to when
    they look numeric, else by their text.  A NaN-looking string hashes
    by its text: it equals only string-like atoms with the same text.
    """
    if atom.type.is_numeric:
        return hash(atom.value)
    text = str(atom.value)
    number = _text_number(text)
    if number is None or number != number:
        return hash(text)
    return hash(number)


def _validate(type: AtomType, value: Any) -> Any:
    if type is AtomType.INT and not isinstance(value, int):
        raise TypeError(f"INT atom needs int, got {value!r}")
    if type is AtomType.FLOAT and not isinstance(value, float):
        raise TypeError(f"FLOAT atom needs float, got {value!r}")
    if type is AtomType.BOOL and not isinstance(value, bool):
        raise TypeError(f"BOOL atom needs bool, got {value!r}")
    if type in (AtomType.STRING, AtomType.URL) and not isinstance(value, str):
        raise TypeError(f"{type.value} atom needs str, got {value!r}")
    if type.is_file and not isinstance(value, str):
        raise TypeError(f"file atom needs str path, got {value!r}")
    return value


def infer_file_type(path: str) -> AtomType:
    """Classify a file path into one of the file atom types by suffix."""
    lowered = path.lower()
    for suffixes, atom_type in _SUFFIX_TYPES:
        if lowered.endswith(suffixes):
            return atom_type
    return AtomType.TEXT_FILE


def _coerce_numeric(atom: Atom) -> float | int | None:
    """Try to view an atom as a number; ``None`` if it cannot be."""
    if atom.type is AtomType.INT:
        return atom.value
    if atom.type is AtomType.FLOAT:
        return atom.value
    if atom.type is AtomType.BOOL:
        return int(atom.value)
    if atom.type is AtomType.STRING:
        return _text_number(atom.value)
    return None


def _text_number(text: str) -> float | int | None:
    """The number a numeric-looking string coerces to, else ``None``."""
    text = text.strip()
    # Most strings are words.  ``int``/``float`` accept no text that
    # starts with a letter except ``inf``/``infinity``/``nan`` in any
    # case, so answer the rest without raising two ``ValueError``s.
    if not text or (text[0].isalpha() and text[0] not in "iInN"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return None


def _try_coerce_pair(a: Atom, b: Atom) -> tuple[Any, Any] | None:
    """Coerce two atoms to a common comparable representation.

    Rules, applied in order:

    1. Same type: compare payloads directly.
    2. Both coercible to numbers (numerics, numeric-looking strings):
       compare numerically.
    3. Both string-like (strings, URLs, file paths): compare as strings.
    4. Otherwise: not coercible (``None``).
    """
    if a.type is b.type:
        return a.value, b.value
    na, nb = _coerce_numeric(a), _coerce_numeric(b)
    if na is not None and nb is not None:
        return na, nb
    a_stringish = not a.type.is_numeric
    b_stringish = not b.type.is_numeric
    if a_stringish and b_stringish:
        return str(a.value), str(b.value)
    return None


def coerce_pair(a: Atom, b: Atom) -> tuple[Any, Any]:
    """Like :func:`_try_coerce_pair` but raising on incoercible pairs."""
    pair = _try_coerce_pair(a, b)
    if pair is None:
        raise CoercionError(f"cannot coerce {a!r} and {b!r} to a common type")
    return pair


def compare(a: Atom, b: Atom) -> int:
    """Three-way comparison with dynamic coercion: -1, 0 or +1."""
    left, right = coerce_pair(a, b)
    if left == right:
        return 0
    return -1 if left < right else 1


# --------------------------------------------------------------------------
# Type predicates (registered as StruQL built-ins by repro.struql.predicates)


def is_int(value: Any) -> bool:
    """True for integer atoms."""
    return isinstance(value, Atom) and value.type is AtomType.INT


def is_float(value: Any) -> bool:
    """True for floating-point atoms."""
    return isinstance(value, Atom) and value.type is AtomType.FLOAT


def is_string(value: Any) -> bool:
    """True for string atoms."""
    return isinstance(value, Atom) and value.type is AtomType.STRING


def is_url(value: Any) -> bool:
    """True for URL atoms."""
    return isinstance(value, Atom) and value.type is AtomType.URL


def is_file(value: Any) -> bool:
    """True for any file atom (text, HTML, PostScript, image)."""
    return isinstance(value, Atom) and value.type.is_file


def is_postscript(value: Any) -> bool:
    """True for PostScript file atoms (the paper's ``isPostScript``)."""
    return isinstance(value, Atom) and value.type is AtomType.POSTSCRIPT_FILE


def is_image_file(value: Any) -> bool:
    """True for image file atoms (the paper's ``isImageFile``)."""
    return isinstance(value, Atom) and value.type is AtomType.IMAGE_FILE


def is_html_file(value: Any) -> bool:
    """True for HTML file atoms."""
    return isinstance(value, Atom) and value.type is AtomType.HTML_FILE


def is_text_file(value: Any) -> bool:
    """True for plain-text file atoms."""
    return isinstance(value, Atom) and value.type is AtomType.TEXT_FILE

"""Atomic value types: construction, coercion, comparison, hashing."""

import pytest

from repro.errors import CoercionError
from repro.graph.values import (
    Atom,
    AtomType,
    compare,
    infer_file_type,
    is_file,
    is_image_file,
    is_postscript,
    is_url,
)


class TestConstruction:
    def test_int(self):
        atom = Atom.int(42)
        assert atom.type is AtomType.INT
        assert atom.value == 42

    def test_float(self):
        assert Atom.float(2.5).value == 2.5

    def test_bool(self):
        assert Atom.bool(True).value is True

    def test_string(self):
        assert Atom.string("x").type is AtomType.STRING

    def test_url(self):
        assert Atom.url("http://a/b").type is AtomType.URL

    def test_of_passthrough(self):
        atom = Atom.string("x")
        assert Atom.of(atom) is atom

    def test_of_python_values(self):
        assert Atom.of(3).type is AtomType.INT
        assert Atom.of(3.5).type is AtomType.FLOAT
        assert Atom.of(True).type is AtomType.BOOL
        assert Atom.of("s").type is AtomType.STRING

    def test_of_rejects_unknown(self):
        with pytest.raises(TypeError):
            Atom.of([1, 2])

    def test_type_validation(self):
        with pytest.raises(TypeError):
            Atom(AtomType.INT, "not an int")
        with pytest.raises(TypeError):
            Atom(AtomType.STRING, 3)

    def test_bool_is_not_int(self):
        # bool is a subclass of int in Python; the model keeps them apart.
        assert Atom.of(True).type is AtomType.BOOL

    def test_immutable(self):
        atom = Atom.int(1)
        with pytest.raises(AttributeError):
            atom.value = 2


class TestFileTypes:
    @pytest.mark.parametrize("path,expected", [
        ("papers/x.ps", AtomType.POSTSCRIPT_FILE),
        ("papers/x.ps.gz", AtomType.POSTSCRIPT_FILE),
        ("x.EPS", AtomType.POSTSCRIPT_FILE),
        ("a/b.html", AtomType.HTML_FILE),
        ("a/b.htm", AtomType.HTML_FILE),
        ("img.gif", AtomType.IMAGE_FILE),
        ("img.JPEG", AtomType.IMAGE_FILE),
        ("img.png", AtomType.IMAGE_FILE),
        ("doc.txt", AtomType.TEXT_FILE),
        ("README", AtomType.TEXT_FILE),       # unknown -> text
        ("weird.xyz", AtomType.TEXT_FILE),
    ])
    def test_infer(self, path, expected):
        assert infer_file_type(path) is expected

    def test_file_constructor_infers(self):
        assert Atom.file("a.ps").type is AtomType.POSTSCRIPT_FILE

    def test_file_constructor_override(self):
        atom = Atom.file("a.dat", AtomType.IMAGE_FILE)
        assert atom.type is AtomType.IMAGE_FILE

    def test_file_constructor_rejects_scalar_type(self):
        with pytest.raises(ValueError):
            Atom.file("a.ps", AtomType.INT)

    def test_is_file_predicates(self):
        ps = Atom.file("a.ps")
        assert is_file(ps) and is_postscript(ps)
        assert not is_image_file(ps)
        assert is_image_file(Atom.file("a.gif"))
        assert is_url(Atom.url("http://x"))
        assert not is_file(Atom.int(1))
        assert not is_postscript("a.ps")  # non-atoms are never files


class TestCoercion:
    def test_same_type_equality(self):
        assert Atom.int(3) == Atom.int(3)
        assert Atom.int(3) != Atom.int(4)

    def test_numeric_cross_type(self):
        assert Atom.int(3) == Atom.float(3.0)
        assert Atom.int(1) == Atom.bool(True)

    def test_string_to_number(self):
        assert Atom.string("1997") == Atom.int(1997)
        assert Atom.string(" 2.5 ") == Atom.float(2.5)

    def test_string_url_comparison(self):
        assert Atom.string("http://x") == Atom.url("http://x")

    def test_file_path_string(self):
        assert Atom.file("a.ps") == Atom.string("a.ps")

    def test_incoercible_unequal(self):
        assert Atom.int(3) != Atom.string("three")

    def test_equal_atoms_hash_equal(self):
        assert hash(Atom.int(3)) == hash(Atom.string("3"))
        assert hash(Atom.int(3)) == hash(Atom.float(3.0))
        assert hash(Atom.string("x.ps")) == hash(Atom.file("x.ps"))

    def test_nan_text_hashes_stably(self):
        # float("nan") hashes by its address, so a NaN-looking string
        # must hash by its text.  The held floats take the address the
        # first hash's NaN was freed from.
        members = {Atom.string(" NaN ")}
        held = [float(text) for text in ("1", "2")]
        assert Atom.string(" NaN ") in members
        assert Atom.url(" NaN ") in members
        assert held

    def test_usable_in_sets(self):
        values = {Atom.int(3), Atom.string("3"), Atom.float(3.0)}
        assert len(values) == 1
        assert Atom.bool(True) in {Atom.int(1)}

    def test_ordering(self):
        assert Atom.int(3) < Atom.int(5)
        assert Atom.string("10") > Atom.int(9)
        assert Atom.string("abc") < Atom.string("abd")

    def test_ordering_incoercible_raises(self):
        with pytest.raises(CoercionError):
            Atom.int(3) < Atom.string("three")

    def test_compare_three_way(self):
        assert compare(Atom.int(1), Atom.int(2)) == -1
        assert compare(Atom.int(2), Atom.int(2)) == 0
        assert compare(Atom.string("5"), Atom.int(4)) == 1

    def test_not_equal_to_non_atom(self):
        assert Atom.int(3) != 3
        assert (Atom.int(3) == 3) is False


class TestPresentation:
    def test_str_is_payload(self):
        assert str(Atom.string("hi")) == "hi"
        assert str(Atom.int(7)) == "7"

    def test_repr_mentions_type(self):
        assert "postscript" in repr(Atom.file("a.ps"))

    def test_to_python(self):
        assert Atom.int(3).to_python() == 3


#: Strings at the edges of numeric coercion: surrounding blanks, an
#: underscore separator, a non-ASCII digit, the float words, a bare
#: fraction, an exponent without a mantissa, and the empty string.
COERCION_CORPUS = (" 3 ", "1_000", "٣", "inf", "NaN", "-.5", "e5", "",
                   "Infinity", " nan ", "x", "abc", "1e5", "+inf", "  ")


def _parsed(text):
    """What ``int``/``float`` make of ``text``: the number, or ``None``."""
    text = text.strip()
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return None


class TestTextNumberFastPath:
    @pytest.mark.parametrize("text", COERCION_CORPUS)
    def test_agrees_with_int_and_float(self, text):
        from repro.graph.values import _text_number
        got, expected = _text_number(text), _parsed(text)
        if expected is None:
            assert got is None
        elif expected != expected:  # NaN
            assert got != got
        else:
            assert got == expected and type(got) is type(expected)

    def test_words_hash_by_their_text(self):
        assert hash(Atom.string("e5")) == hash("e5")
        assert hash(Atom.string(" 3 ")) == hash(Atom.int(3))
        assert Atom.string("٣") == Atom.int(3)

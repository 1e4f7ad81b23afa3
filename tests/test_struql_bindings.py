"""Runtime value coercions and the binding relation."""

import pytest

from repro.graph import Atom, Oid
from repro.struql.bindings import (
    as_atom,
    as_label,
    extend_binding,
    runtime_compare,
    runtime_eq,
)


class TestViews:
    def test_as_label(self):
        assert as_label("year") == "year"
        assert as_label(Atom.string("year")) == "year"
        assert as_label(Atom.int(3)) == "3"
        assert as_label(Oid("x")) is None

    def test_as_atom(self):
        assert as_atom("s") == Atom.string("s")
        atom = Atom.int(1)
        assert as_atom(atom) is atom
        assert as_atom(Oid("x")) is None


class TestEquality:
    def test_oids_structural(self):
        assert runtime_eq(Oid("a"), Oid("a"))
        assert not runtime_eq(Oid("a"), Oid("b"))

    def test_oid_never_equals_atom(self):
        assert not runtime_eq(Oid("3"), Atom.int(3))
        assert not runtime_eq(Atom.int(3), Oid("3"))

    def test_label_vs_atom_coerces(self):
        assert runtime_eq("1997", Atom.int(1997))
        assert runtime_eq(Atom.string("x"), "x")

    def test_cross_numeric(self):
        assert runtime_eq(Atom.int(1), Atom.float(1.0))


class TestCompare:
    @pytest.mark.parametrize("op,expected", [
        ("=", False), ("!=", True), ("<", True), ("<=", True),
        (">", False), (">=", False),
    ])
    def test_numeric_ordering(self, op, expected):
        assert runtime_compare(Atom.int(1), op, Atom.int(2)) is expected

    def test_label_against_atom(self):
        assert runtime_compare("10", "<", Atom.int(11))

    def test_oid_ordering_always_false(self):
        assert not runtime_compare(Oid("a"), "<", Oid("b"))
        assert runtime_compare(Oid("a"), "=", Oid("a"))

    def test_incoercible_ordering_fails_quietly(self):
        assert not runtime_compare(Atom.string("abc"), "<", Atom.int(3))

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            runtime_compare(Atom.int(1), "~", Atom.int(2))


class TestExtendBinding:
    def test_binds_fresh_variable(self):
        row = {"x": Oid("a")}
        out = extend_binding(row, "y", Atom.int(1))
        assert out == {"x": Oid("a"), "y": Atom.int(1)}
        assert row == {"x": Oid("a")}  # input untouched

    def test_consistent_rebind_keeps_row(self):
        row = {"x": Atom.int(3)}
        assert extend_binding(row, "x", Atom.string("3")) is row

    def test_conflicting_rebind_fails(self):
        row = {"x": Atom.int(3)}
        assert extend_binding(row, "x", Atom.int(4)) is None


class TestLabelAgainstStringAtom:
    """A label compared with a string atom takes the payload fast path;
    the answer must be what comparing the label's string atom gives."""

    ATOMS = [Atom.string(text) for text in
             (" 3 ", "1_000", "٣", "inf", "NaN", "-.5", "e5", "", "3")] + [
        Atom.int(3), Atom.float(-0.5), Atom.float(float("inf")),
        Atom.int(1000), Atom.url("e5")]

    @pytest.mark.parametrize("text", [" 3 ", "1_000", "٣", "inf", "NaN",
                                      "-.5", "e5", "", "3"])
    def test_matches_the_atom_path(self, text):
        for atom in self.ATOMS:
            expected = Atom.string(text) == atom
            assert runtime_eq(text, atom) is expected, (text, atom)
            assert runtime_eq(atom, text) is expected, (atom, text)
        assert runtime_eq(text, text)
        assert not runtime_eq(text, text + "x")

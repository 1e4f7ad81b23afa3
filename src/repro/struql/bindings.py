"""Runtime values and the binding relation.

The query stage's result is "a relation with one attribute for each
variable" (paper section 3).  A row of that relation is a ``Binding``:
a dict from variable name to a runtime value.  Runtime values are:

* :class:`~repro.graph.Oid` — node variables bound to internal objects;
* :class:`~repro.graph.Atom` — node variables bound to atomic values;
* ``str`` — arc variables bound to edge labels.

This module centralizes the value-kind coercions every operator needs:
label extraction, coercing equality, and ordered comparison with the
paper's dynamic coercion rules.
"""

from __future__ import annotations

from typing import Union

from repro.errors import CoercionError
from repro.graph.model import GraphObject, Oid
from repro.graph.values import Atom, AtomType

#: A runtime value: node object, atomic value, or edge label.
RuntimeValue = Union[Oid, Atom, str]

#: One row of the binding relation.
Binding = dict[str, RuntimeValue]


def as_label(value: RuntimeValue) -> str | None:
    """View a runtime value as an edge label, if it can be one."""
    if isinstance(value, str):
        return value
    if isinstance(value, Atom):
        return str(value.value)
    return None


def as_atom(value: RuntimeValue) -> Atom | None:
    """View a runtime value as an atom (labels become string atoms)."""
    if isinstance(value, Atom):
        return value
    if isinstance(value, str):
        return Atom.string(value)
    return None


def runtime_eq(a: RuntimeValue, b: RuntimeValue) -> bool:
    """Equality with dynamic coercion.

    Oids compare structurally with each other and are never equal to
    atoms or labels; atoms and labels compare under atom coercion.
    """
    if isinstance(a, Oid) or isinstance(b, Oid):
        return isinstance(a, Oid) and isinstance(b, Oid) and a == b
    # A label is a string atom, so against a label or a string atom the
    # same-type rule compares the payloads: no atom is built.
    if isinstance(a, str):
        if isinstance(b, str):
            return a == b
        if b.type is AtomType.STRING:
            return a == b.value
    elif isinstance(b, str) and a.type is AtomType.STRING:
        return a.value == b
    left, right = as_atom(a), as_atom(b)
    assert left is not None and right is not None
    return left == right


def runtime_compare(a: RuntimeValue, op: str, b: RuntimeValue) -> bool:
    """Apply a comparison operator with dynamic coercion.

    Equality/inequality follow :func:`runtime_eq`.  Ordered comparisons
    require coercible atoms; incoercible pairs simply fail the
    comparison (the run-time analogue of a type error in a schemaless
    model is "no match", not an exception).
    """
    if op == "=":
        return runtime_eq(a, b)
    if op == "!=":
        return not runtime_eq(a, b)
    if isinstance(a, Oid) or isinstance(b, Oid):
        return False
    left, right = as_atom(a), as_atom(b)
    assert left is not None and right is not None
    try:
        if op == "<":
            return left < right
        if op == "<=":
            return left < right or left == right
        if op == ">":
            return right < left
        if op == ">=":
            return right < left or left == right
    except CoercionError:
        return False
    raise ValueError(f"unknown comparison operator {op!r}")


def extend_binding(binding: Binding, var: str,
                   value: RuntimeValue) -> Binding | None:
    """Bind ``var`` to ``value``, or check consistency if already bound.

    Returns the (new) binding on success, ``None`` on conflict.  The
    input binding is never mutated.
    """
    existing = binding.get(var)
    if existing is not None:
        return binding if runtime_eq(existing, value) else None
    out = dict(binding)
    out[var] = value
    return out

"""Skolem-function machinery for StruQL's construction stage.

    ``New`` is a Skolem function that creates new object oids; by
    definition, a Skolem function applied to the same inputs produces the
    same node oid.  (paper, section 3)

Identity is structural: :meth:`SkolemRegistry.apply` mints
``Oid.skolem(fn, args)`` whose equality/hash already encode the Skolem
convention, so two applications with coercion-equal arguments unify even
across separately evaluated blocks or separately run queries that share
a registry (the multi-query site-building pattern of section 5.1).

The registry mints each oid once: it keys every oid by its function and
*canonical* arguments, and a repeat application returns the oid object
already minted instead of rendering a new one.  The same table tells
which oids each function produced, which the site layer uses to map
site-schema nodes to concrete pages.

Nothing else is recorded per mint: an oid names its function and
arguments, so provenance (:mod:`repro.obs.lineage`) reads them from the
oid and takes the creating query block from the query itself.
"""

from __future__ import annotations

from typing import Iterable

from repro.graph.model import Oid
from repro.graph.values import Atom, AtomType, _coerce_numeric


def _canonical(value: object) -> object:
    """Canonicalize a Skolem argument for identity purposes.

    Arc variables bind to plain strings; node variables bind to oids or
    atoms.  Strings become string atoms so that a label and an equal
    string atom produce the same oid, and numerically coercible atoms
    normalize (``F(0)``, ``F(0.0)`` and ``F("0")`` are the same node —
    atom comparison is coercing, so oid identity must be too).
    """
    if isinstance(value, str):
        value = Atom.string(value)
    if isinstance(value, Atom) and value.type is not AtomType.INT:
        number = _coerce_numeric(value)
        if number is None:
            return value
        if isinstance(number, int) or number.is_integer():
            return Atom.int(int(number))
        if value.type is not AtomType.FLOAT:
            return Atom.float(number)
    return value


class SkolemRegistry:
    """Mints and remembers Skolem-created oids."""

    def __init__(self) -> None:
        #: fn -> canonical args -> oid, in first-mint order.
        self._created: dict[str, dict[tuple, Oid]] = {}

    def apply(self, fn: str, args: Iterable[object]) -> Oid:
        """The oid of ``fn`` applied to ``args`` (minted on first use).

        Keyed on the canonical arguments, not the raw ones: a URL
        ``" 3 "`` equals a string ``" 3 "`` as an atom, yet only the
        string canonicalizes to ``3``, so the two mint different oids.
        """
        canonical = tuple(_canonical(a) for a in args)
        bucket = self._created.setdefault(fn, {})
        oid = bucket.get(canonical)
        if oid is None:
            oid = bucket.setdefault(canonical, Oid.skolem(fn, canonical))
        return oid

    def functions(self) -> list[str]:
        """Function names that have minted at least one oid."""
        return sorted(self._created)

    def created_by(self, fn: str) -> list[Oid]:
        """All oids minted by function ``fn``, in creation order."""
        return list(self._created.get(fn, {}).values())

    def all_created(self) -> set[Oid]:
        """Every oid this registry has minted."""
        out: set[Oid] = set()
        for oids in self._created.values():
            out.update(oids.values())
        return out

    def __len__(self) -> int:
        return sum(len(oids) for oids in self._created.values())

    def __repr__(self) -> str:
        return f"SkolemRegistry(functions={self.functions()}, oids={len(self)})"

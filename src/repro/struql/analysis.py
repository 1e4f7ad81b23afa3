"""Static analysis of StruQL queries: range restriction and lint checks.

Section 3: "the active-domain semantics is unsatisfactory because it
depends on how we define the active domain [...] there it is solved by
considering range-restricted queries [...].  We are currently specifying
range-restriction rules for StruQL."  This module supplies those rules:

A block's conditions are **range restricted** when every variable is
*positively bound* — bound by a generator whose results come from the
data itself (collection membership, a path condition anchored through
positively bound variables or constants, an ``in`` enumeration, an
equality against a constant or a positively bound variable) — before it
is used by a negation, an ordered comparison, or a construction clause.
Such queries mean the same thing under any definition of the active
domain; the complement-graph query is the canonical *non*-restricted
example (its meaning changes if the active domain changes).

:func:`analyze` returns a list of :class:`Warning` diagnostics; a query
with none is domain independent.  :func:`is_range_restricted` is the
boolean convenience.  The analyzer never rejects: the engine still
evaluates non-restricted queries under active-domain semantics, exactly
as the paper's prototype did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.struql.ast import (
    AggregateCond,
    Block,
    ComparisonCond,
    Condition,
    Const,
    InCond,
    LabelEquals,
    MembershipCond,
    NotCond,
    PathCond,
    Query,
    RAlt,
    RConcat,
    RLabel,
    RStar,
    RegularPath,
    Var,
    condition_variables,
)
from repro.struql.parser import parse_query


@dataclass(frozen=True)
class Warning:
    """One diagnostic: which block, which condition, what's wrong."""

    block: str
    condition: str
    variables: tuple[str, ...]
    reason: str

    def __str__(self) -> str:
        block = self.block or "(top)"
        variables = ", ".join(self.variables)
        return f"[{block}] {self.condition}: {self.reason} ({variables})"


def _positively_bindable(condition: Condition,
                         bound: set[str]) -> set[str]:
    """Variables this condition can positively bind, given ``bound``."""
    if isinstance(condition, MembershipCond):
        # Collection membership generates; external predicates only
        # filter — but we cannot always distinguish statically, and a
        # filter binds nothing, so the conservative answer for arity-1
        # conditions is "generates" only when used as a collection.
        # Multi-argument conditions are certainly predicates.
        if len(condition.args) == 1 and isinstance(condition.args[0], Var):
            return {condition.args[0].name}
        return set()
    if isinstance(condition, PathCond):
        anchored = (isinstance(condition.source, Const)
                    or (isinstance(condition.source, Var)
                        and condition.source.name in bound)
                    or isinstance(condition.target, Const)
                    or (isinstance(condition.target, Var)
                        and condition.target.name in bound))
        # Paths always range over actual edges of the graph, so even an
        # unanchored path binds its variables from the data: positive.
        out = set()
        if isinstance(condition.source, Var):
            out.add(condition.source.name)
        if isinstance(condition.target, Var):
            out.add(condition.target.name)
        if condition.arc_var is not None:
            out.add(condition.arc_var)
        return out
    if isinstance(condition, ComparisonCond) and condition.op == "=":
        out = set()
        left_ok = isinstance(condition.left, Const) or (
            isinstance(condition.left, Var)
            and condition.left.name in bound)
        right_ok = isinstance(condition.right, Const) or (
            isinstance(condition.right, Var)
            and condition.right.name in bound)
        if left_ok and isinstance(condition.right, Var):
            out.add(condition.right.name)
        if right_ok and isinstance(condition.left, Var):
            out.add(condition.left.name)
        return out
    if isinstance(condition, InCond):
        return {condition.var.name}
    if isinstance(condition, AggregateCond):
        needed = {condition.var.name} | {g.name for g in condition.group}
        if needed <= bound:
            return {condition.out.name}
        return set()
    return set()


def _block_warnings(block: Block, inherited: set[str],
                    warnings: list[Warning]) -> set[str]:
    """Check one block; returns the positively-bound set it exports."""
    bound = set(inherited)
    # Fixpoint: conditions may bind in any order, so saturate.
    changed = True
    positive_conditions = [c for c in block.conditions
                           if not isinstance(c, NotCond)]
    while changed:
        changed = False
        for condition in positive_conditions:
            new = _positively_bindable(condition, bound) - bound
            if new:
                bound |= new
                changed = True
    # Now flag the offenders.
    for condition in block.conditions:
        if isinstance(condition, NotCond):
            free = tuple(sorted(
                condition_variables(condition.inner) - bound))
            if free:
                warnings.append(Warning(
                    block=block.label, condition=str(condition),
                    variables=free,
                    reason="negation over variables not positively "
                           "bound: meaning depends on the active domain"))
        elif isinstance(condition, ComparisonCond):
            if condition.op == "=":
                frees = tuple(sorted(
                    condition_variables(condition) - bound))
            else:
                frees = tuple(sorted(
                    name for name in condition_variables(condition)
                    if name not in bound))
            if frees:
                warnings.append(Warning(
                    block=block.label, condition=str(condition),
                    variables=frees,
                    reason="comparison over unbound variables"))
    for term in block.creates:
        frees = tuple(sorted(
            {arg.name for arg in term.args if isinstance(arg, Var)}
            - bound))
        if frees:
            warnings.append(Warning(
                block=block.label, condition=f"create {term}",
                variables=frees,
                reason="Skolem arguments not positively bound"))
    return bound


def analyze(query: Query | str) -> list[Warning]:
    """All range-restriction warnings for ``query`` (empty = safe)."""
    if isinstance(query, str):
        query = parse_query(query)
    warnings: list[Warning] = []

    def walk(block: Block, inherited: set[str]) -> None:
        bound = _block_warnings(block, inherited, warnings)
        for child in block.children:
            walk(child, bound)

    # Declared form parameters are bound by the caller.
    walk(query.root, set(query.params))
    return warnings


def is_range_restricted(query: Query | str) -> bool:
    """Whether the query's meaning is independent of the active domain."""
    return not analyze(query)


# --------------------------------------------------------------------------
# Read footprints — what part of the data graph a query depends on.
#
# A materialized query result stays valid until the data it *read*
# changes.  The footprint is the static over-approximation of that read
# set: which collections the conditions enumerate and which edge labels
# they traverse.  ``any_label``/``any_collection`` mark the wildcard
# reads (``->*->``, arc variables without a narrowing equality, blocks
# that are not range restricted) where precision is impossible and the
# only sound answer is "everything".


@dataclass(frozen=True)
class Footprint:
    """Collections and edge labels a set of conditions may read.

    Soundness contract: if a data change is not matched by
    :meth:`intersects`, re-evaluating the conditions is guaranteed to
    produce the same result.  Over-approximation is fine (a spurious
    invalidation recomputes an identical view); missing a read is not.
    """

    collections: frozenset[str] = frozenset()
    labels: frozenset[str] = frozenset()
    any_label: bool = False
    any_collection: bool = False

    def union(self, other: "Footprint") -> "Footprint":
        return Footprint(
            collections=self.collections | other.collections,
            labels=self.labels | other.labels,
            any_label=self.any_label or other.any_label,
            any_collection=self.any_collection or other.any_collection)

    def intersects(self, change) -> bool:
        """Whether ``change`` (duck-typed: ``labels``, ``collections``,
        ``full``) may affect data this footprint reads."""
        if change is None or getattr(change, "full", False):
            return True
        labels = getattr(change, "labels", frozenset())
        collections = getattr(change, "collections", frozenset())
        if labels and (self.any_label or (self.labels & labels)):
            return True
        if collections and (self.any_collection
                            or (self.collections & collections)):
            return True
        return False

    def as_dict(self) -> dict:
        return {
            "collections": sorted(self.collections),
            "labels": sorted(self.labels),
            "any_label": self.any_label,
            "any_collection": self.any_collection,
        }

    def __str__(self) -> str:
        parts = []
        if self.any_collection:
            parts.append("collections:*")
        elif self.collections:
            parts.append("collections:" + ",".join(sorted(self.collections)))
        if self.any_label:
            parts.append("labels:*")
        elif self.labels:
            parts.append("labels:" + ",".join(sorted(self.labels)))
        return " ".join(parts) or "(empty)"


#: The footprint that intersects every change — the sound fallback.
ANY_FOOTPRINT = Footprint(any_label=True, any_collection=True)


def _path_footprint(path: RegularPath) -> Footprint:
    """Labels a regular path expression may traverse."""
    if isinstance(path, RLabel):
        if isinstance(path.pred, LabelEquals):
            return Footprint(labels=frozenset({path.pred.label}))
        # AnyLabel and named label predicates range over all edges.
        return Footprint(any_label=True)
    if isinstance(path, (RConcat, RAlt)):
        parts = path.parts if isinstance(path, RConcat) else path.options
        out = Footprint()
        for part in parts:
            out = out.union(_path_footprint(part))
        return out
    if isinstance(path, RStar):
        return _path_footprint(path.inner)
    return ANY_FOOTPRINT


def _arc_constants(conditions: Iterable[Condition]) -> dict[str, set[str]]:
    """Arc variable -> the constant labels it is pinned to, if any.

    ``x -> l -> v, l = "year"`` reads only ``year`` edges: the equality
    (or an ``in`` enumeration) narrows the wildcard.  Only top-level
    positive constraints narrow; anything inside ``not(...)`` does not
    restrict the rows the path itself enumerates.
    """
    pinned: dict[str, set[str]] = {}
    for condition in conditions:
        if isinstance(condition, ComparisonCond) and condition.op == "=":
            pairs = [(condition.left, condition.right),
                     (condition.right, condition.left)]
            for var, const in pairs:
                if isinstance(var, Var) and isinstance(const, Const):
                    pinned.setdefault(var.name, set()).add(
                        str(const.value.value))
        elif isinstance(condition, InCond):
            pinned.setdefault(condition.var.name, set()).update(
                str(v.value.value) for v in condition.values)
    return pinned


def conditions_footprint(
        conditions: Iterable[Condition]) -> Footprint:
    """The read footprint of one conjunction of conditions."""
    conditions = list(conditions)
    pinned = _arc_constants(conditions)
    out = Footprint()

    def visit(condition: Condition, narrowing: bool) -> None:
        nonlocal out
        if isinstance(condition, MembershipCond):
            # Arity-1 is a collection read (or a pure predicate over an
            # already-bound value — treating it as a collection read is
            # a harmless over-approximation).  Multi-argument conditions
            # are external predicates: pure functions, no data read.
            if len(condition.args) == 1:
                out = out.union(Footprint(
                    collections=frozenset({condition.name})))
        elif isinstance(condition, PathCond):
            if condition.path is not None:
                out = out.union(_path_footprint(condition.path))
            else:
                labels = pinned.get(condition.arc_var) if narrowing else None
                if labels:
                    out = out.union(Footprint(labels=frozenset(labels)))
                else:
                    out = out.union(Footprint(any_label=True))
        elif isinstance(condition, NotCond):
            # The negation flips when data matching the inner condition
            # appears; its reads count.  Narrowing equalities scoped
            # outside the negation do not restrict what the inner path
            # ranges over, so the inner arc variables stay wildcards.
            visit(condition.inner, narrowing=False)
        # Comparisons, in-lists and aggregates consume values that flow
        # from the conditions above: no direct data read.

    for condition in conditions:
        visit(condition, narrowing=True)
    return out


def _restricted(conditions: list[Condition]) -> bool:
    """Whether a condition list is range restricted on its own."""
    block = Block(conditions=list(conditions))
    warnings: list[Warning] = []
    _block_warnings(block, set(), warnings)
    return not warnings


def unit_footprint(unit) -> Footprint:
    """Footprint of one flattened conjunctive unit.

    A unit whose conditions are not range restricted evaluates under
    active-domain semantics: *any* new object can change its meaning,
    so the only sound footprint is :data:`ANY_FOOTPRINT`.
    """
    conditions = list(unit.conditions)
    if not _restricted(conditions):
        return ANY_FOOTPRINT
    return conditions_footprint(conditions)


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

from repro.struql.ast import (
    AggregateCond,
    Block,
    ComparisonCond,
    Condition,
    Const,
    InCond,
    MembershipCond,
    NotCond,
    PathCond,
    Query,
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


#: The name :mod:`repro.struql` exports it under (``Warning`` shadows
#: the builtin there).
RangeWarning = Warning


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

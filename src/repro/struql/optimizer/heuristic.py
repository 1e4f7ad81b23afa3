"""The naive ordering and the first-prototype heuristic optimizer.

The heuristic optimizer uses no statistics — only structural ranks, in
the spirit of STRUDEL's "simple heuristic-based optimizer" first cut:

1. run filters (everything bound) as early as possible;
2. prefer binders that are cheap and selective (equality/``in`` binds);
3. then collection scans (anchored generators);
4. then edge steps / paths with at least one anchored endpoint;
5. leave unanchored scans and negations for last.
"""

from __future__ import annotations

from typing import Sequence

from repro.graph.model import Graph
from repro.struql.ast import (
    AggregateCond,
    ComparisonCond,
    Condition,
    Const,
    InCond,
    MembershipCond,
    NotCond,
    PathCond,
    Var,
    condition_variables,
)
from repro.struql.optimizer.base import (
    Optimizer,
    executable,
)
from repro.struql.predicates import PredicateRegistry


class NaiveOptimizer(Optimizer):
    """Source order, except that non-executable conditions are delayed
    until their variables are bound (otherwise evaluation would error,
    not merely be slow)."""

    name = "naive"

    def order(self, conditions: Sequence[Condition], bound: set[str],
              graph: Graph, predicates: PredicateRegistry,
              stats=None) -> list[Condition]:
        pending = list(conditions)
        ordered: list[Condition] = []
        known = set(bound)
        while pending:
            for i, condition in enumerate(pending):
                if executable(condition, known, graph, predicates):
                    ordered.append(pending.pop(i))
                    known |= condition_variables(condition)
                    break
            else:
                # Nothing executable: emit the rest in order and let the
                # runtime raise its precise unbound-variable error.
                ordered.extend(pending)
                break
        return ordered


def _anchored(term: Var | Const, bound: set[str]) -> bool:
    return isinstance(term, Const) or term.name in bound


class HeuristicOptimizer(Optimizer):
    """Greedy rank-based ordering without statistics."""

    name = "heuristic"

    def order(self, conditions: Sequence[Condition], bound: set[str],
              graph: Graph, predicates: PredicateRegistry,
              stats=None) -> list[Condition]:
        pending = list(conditions)
        ordered: list[Condition] = []
        known = set(bound)
        while pending:
            best_index = min(
                (i for i in range(len(pending))
                 if executable(pending[i], known, graph, predicates)),
                key=lambda i: self.rank(pending[i], known, graph),
                default=None)
            if best_index is None:
                ordered.extend(pending)
                break
            condition = pending.pop(best_index)
            ordered.append(condition)
            known |= condition_variables(condition)
        return ordered

    def annotate_candidate(self, condition: Condition, bound: set[str],
                           graph: Graph) -> dict:
        """Expose the structural rank tier in decision traces."""
        tier, new = self.rank(condition, bound, graph)
        return {"rank_tier": tier, "new_vars": new}

    def rank(self, condition: Condition, bound: set[str],
             graph: Graph) -> tuple[int, int]:
        """Lower is better; the second component keeps ties stable-ish
        by preferring conditions that bind fewer new variables."""
        new = len(condition_variables(condition) - bound)
        if isinstance(condition, NotCond):
            # Fully bound negation is a plain filter; free variables make
            # it an active-domain enumeration — dead last.
            return (1, new) if new == 0 else (9, new)
        if new == 0:
            return (0, 0)  # pure filter
        if isinstance(condition, ComparisonCond):
            return (2, new)  # equality bind
        if isinstance(condition, InCond):
            return (2, new)
        if isinstance(condition, MembershipCond):
            if graph.has_collection(condition.name):
                return (3, new)
            return (8, new)  # predicate with free vars: shouldn't happen
        if isinstance(condition, AggregateCond):
            return (5, new)  # blocking; run once inputs are bound
        if isinstance(condition, PathCond):
            anchored = _anchored(condition.source, bound) or _anchored(
                condition.target, bound)
            if condition.arc_var is not None:
                return (4, new) if anchored else (6, new)
            return (5, new) if anchored else (7, new)
        raise TypeError(f"not a condition: {condition!r}")

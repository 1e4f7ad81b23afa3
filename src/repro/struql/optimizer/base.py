"""Optimizer interface and executability rules shared by all generations.

An optimizer's job here is to choose the *order* in which a block's
conditions run (access-path choice inside each operator is adaptive; see
:mod:`repro.struql.plan`).  Orders must be *executable*: an operator
whose semantics cannot generate bindings (external predicates, ordered
comparisons, negations that would otherwise enumerate huge domains) must
not run before its variables are bound.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
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
)
from repro.struql.predicates import PredicateRegistry


def executable(condition: Condition, bound: set[str], graph: Graph,
               predicates: PredicateRegistry) -> bool:
    """Whether ``condition`` may run when ``bound`` variables are bound."""
    if isinstance(condition, MembershipCond):
        if graph.has_collection(condition.name):
            return True
        # External predicates only filter: every variable argument must
        # already be bound.
        return all(not isinstance(arg, Var) or arg.name in bound
                   for arg in condition.args)
    if isinstance(condition, ComparisonCond):
        left_ok = isinstance(condition.left, Const) or \
            condition.left.name in bound
        right_ok = isinstance(condition.right, Const) or \
            condition.right.name in bound
        if condition.op == "=":
            return left_ok or right_ok
        return left_ok and right_ok
    if isinstance(condition, (PathCond, InCond)):
        return True
    if isinstance(condition, NotCond):
        # Always executable via active-domain enumeration, but orderings
        # should bind the inner variables first; the schedulers below
        # treat fully-bound negation as vastly cheaper.
        return True
    if isinstance(condition, AggregateCond):
        # Blocking: its input variables must be bound first.
        needed = {condition.var.name} | {g.name for g in condition.group}
        return needed <= bound
    raise TypeError(f"not a condition: {condition!r}")


@dataclass
class OrderDecision:
    """One step of an optimizer decision trace.

    Records, for the condition the optimizer placed at ``step``, every
    pending candidate it weighed at that point — each with its
    executability, cost-model numbers, and the access path the operator
    would choose given the bound set — plus the running cardinality
    estimate after applying the winner.  Produced by
    :func:`repro.struql.optimizer.cost.trace_decisions`.
    """

    step: int
    chosen: str
    est_rows: float
    candidates: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "chosen": self.chosen,
            "est_rows": self.est_rows,
            "candidates": self.candidates,
        }


class Optimizer:
    """Base class: order a conjunction of conditions."""

    #: Registry name used by :func:`get_optimizer`.
    name = "base"

    def order(self, conditions: Sequence[Condition], bound: set[str],
              graph: Graph, predicates: PredicateRegistry,
              stats=None) -> list[Condition]:
        """Return the conditions in execution order.

        ``bound`` names the variables already bound by ancestor blocks;
        ``stats`` is a :class:`~repro.repository.GraphStatistics` or
        ``None``.
        """
        raise NotImplementedError

    def annotate_candidate(self, condition: Condition, bound: set[str],
                           graph: Graph) -> dict:
        """Optimizer-specific extras for a decision-trace candidate.

        Subclasses override to expose the quantity their ordering
        actually ranks on (the heuristic optimizer reports its structural
        rank tier); the base contributes nothing.
        """
        return {}


#: Each optimizer's registry name (its class's ``name``) and where the
#: class is defined; :func:`get_optimizer` imports the module on the
#: first request, so no import has to register anything beforehand.
_OPTIMIZERS = {
    "naive": ("repro.struql.optimizer.heuristic", "NaiveOptimizer"),
    "heuristic": ("repro.struql.optimizer.heuristic", "HeuristicOptimizer"),
    "cost": ("repro.struql.optimizer.cost", "CostBasedOptimizer"),
}


def get_optimizer(name: str) -> Optimizer:
    """Instantiate an optimizer by registry name.

    Known names: ``naive``, ``heuristic``, ``cost``.
    """
    try:
        module, cls = _OPTIMIZERS[name]
    except KeyError:
        known = ", ".join(sorted(_OPTIMIZERS))
        raise ValueError(f"unknown optimizer {name!r} (known: {known})") \
            from None
    return getattr(importlib.import_module(module), cls)()

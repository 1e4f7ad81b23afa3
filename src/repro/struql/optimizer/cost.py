"""The cost-based optimizer in the style of [FLO 97].

For each block the optimizer enumerates condition orders with
System-R-style dynamic programming over subsets (exact for conjunctions
of up to :data:`DP_LIMIT` conditions, greedy beyond), estimating
intermediate-result cardinalities from repository statistics
(:class:`~repro.repository.GraphStatistics`):

* a collection scan multiplies cardinality by the collection size;
* a forward edge step multiplies by the label's fan-out (average
  out-degree for arc variables bound later);
* a backward step multiplies by fan-in — this is how plans "exploit
  indexes on the data and the schema": a bound target with a backward
  index is often far cheaper than scanning a collection forward;
* equality against a constant applies the ``1/V(A)`` selectivity;
* regular path expressions estimate by structural recursion (fan-out
  products for concatenation, sums for alternation, reachable-set bound
  for closure).

The cost of a plan is the sum of its intermediate cardinalities (the
canonical CH-cost), which rewards orders that keep intermediates small.
"""

from __future__ import annotations

from typing import Sequence

from repro.graph.model import Graph
from repro.repository.stats import GraphStatistics
from repro.struql.ast import (
    AggregateCond,
    AnyLabel,
    ComparisonCond,
    Condition,
    Const,
    InCond,
    LabelEquals,
    LabelPredicate,
    MembershipCond,
    NotCond,
    PathCond,
    RAlt,
    RConcat,
    RegularPath,
    RLabel,
    RStar,
    Var,
    condition_variables,
)
from repro.struql.optimizer.base import (
    Optimizer,
    OrderDecision,
    executable,
)
from repro.struql.predicates import PredicateRegistry

#: Beyond this many conditions, fall back from DP to greedy.
DP_LIMIT = 10

_FILTER_SELECTIVITY = {"=": 0.1, "!=": 0.9, "<": 0.3, "<=": 0.35,
                       ">": 0.3, ">=": 0.35}


def _anchored(term: Var | Const, bound: set[str]) -> bool:
    return isinstance(term, Const) or term.name in bound


def estimate_path_fanout(path: RegularPath, stats: GraphStatistics) -> float:
    """Expected number of endpoints reached per start node."""
    cap = max(stats.node_count + stats.atom_count, 1)
    if isinstance(path, RLabel):
        if isinstance(path.pred, LabelEquals):
            return max(stats.label_fan_out(path.pred.label), 0.001)
        if isinstance(path.pred, AnyLabel):
            return max(stats.any_label_fan_out(), 0.001)
        if isinstance(path.pred, LabelPredicate):
            return max(stats.any_label_fan_out() * 0.5, 0.001)
    if isinstance(path, RConcat):
        product = 1.0
        for part in path.parts:
            product *= estimate_path_fanout(part, stats)
        return min(product, cap)
    if isinstance(path, RAlt):
        return min(sum(estimate_path_fanout(o, stats)
                       for o in path.options), cap)
    if isinstance(path, RStar):
        # Closure can reach a large fraction of the graph; assume half.
        return max(cap / 2.0, 1.0)
    raise TypeError(f"not a path: {path!r}")


def estimate_condition(condition: Condition, bound: set[str],
                       stats: GraphStatistics
                       ) -> tuple[float, float]:
    """``(multiplier, cost_weight)`` of applying a condition.

    ``multiplier`` scales the running cardinality estimate; the plan
    cost accumulates ``rows * cost_weight`` per applied condition.
    """
    if isinstance(condition, MembershipCond):
        size = stats.collection_size(condition.name)
        if size == 0:
            # Unknown name: external predicate filter (or empty
            # collection, which makes any order fine).
            return 0.5, 1.0
        arg = condition.args[0] if condition.args else None
        if arg is not None and isinstance(arg, Var) and arg.name in bound:
            total = max(stats.node_count + stats.atom_count, 1)
            return min(size / total, 1.0), 1.0
        return float(size), 1.0

    if isinstance(condition, PathCond):
        source_anchored = _anchored(condition.source, bound)
        target_anchored = _anchored(condition.target, bound)
        if condition.arc_var is not None:
            arc_bound = condition.arc_var in bound
            fan_out = stats.any_label_fan_out()
            if source_anchored and target_anchored:
                return (0.5 if arc_bound else 0.8), 1.0
            if source_anchored:
                mult = max(fan_out * (0.5 if arc_bound else 1.0), 0.01)
                return mult, 1.0
            if target_anchored:
                fan_in = max(stats.edge_count /
                             max(stats.node_count + stats.atom_count, 1),
                             0.01)
                return fan_in, 1.0
            return float(max(stats.edge_count, 1)), 2.0
        assert condition.path is not None
        fan = estimate_path_fanout(condition.path, stats)
        if source_anchored and target_anchored:
            return min(fan / max(stats.node_count, 1), 1.0), 2.0
        if source_anchored or target_anchored:
            return max(fan, 0.01), 2.0
        return float(max(stats.node_count, 1)) * max(fan, 0.01), 4.0

    if isinstance(condition, ComparisonCond):
        frees = condition_variables(condition) - bound
        if not frees:
            return _FILTER_SELECTIVITY.get(condition.op, 0.5), 0.1
        return 1.0, 0.1  # equality bind: one new row value per row

    if isinstance(condition, InCond):
        if condition.var.name in bound:
            return min(0.1 * len(condition.values), 1.0), 0.1
        return float(len(condition.values)), 0.1

    if isinstance(condition, NotCond):
        frees = condition_variables(condition.inner) - bound
        if not frees:
            return 0.9, 1.0
        domain = float(max(stats.node_count + stats.atom_count, 1))
        return domain ** len(frees) * 0.9, 5.0

    if isinstance(condition, AggregateCond):
        # Blocking pass over the rows; cardinality preserved.
        return 1.0, 1.0

    raise TypeError(f"not a condition: {condition!r}")


# -- access paths and decision traces (EXPLAIN support) -----------------------


def _single_label(path: RegularPath) -> str | None:
    """The label when a regular path is one constant-label step."""
    if isinstance(path, RLabel) and isinstance(path.pred, LabelEquals):
        return path.pred.label
    return None


def candidate_access_paths(condition: Condition, bound: set[str],
                           stats: GraphStatistics,
                           graph: Graph | None = None) -> list[dict]:
    """The access-path arms an operator could take for ``condition``.

    Mirrors the adaptive dispatch inside :mod:`repro.struql.plan`: each
    arm says whether it applies given the ``bound`` variables, a rough
    per-input-row cost from statistics, and whether the operator would
    actually choose it (the first applicable arm in dispatch priority).
    This is what the optimizer decision trace shows per candidate.
    """
    def arm(name: str, applicable: bool, cost: float) -> dict:
        return {"access_path": name, "applicable": applicable,
                "est_cost": round(max(cost, 0.0), 4), "chosen": False}

    domain = max(stats.node_count + stats.atom_count, 1)
    arms: list[dict] = []
    if isinstance(condition, PathCond):
        src = _anchored(condition.source, bound)
        tgt = _anchored(condition.target, bound)
        if condition.arc_var is not None:
            arc = condition.arc_var in bound
            fan_out = max(stats.any_label_fan_out(), 0.01)
            fan_in = max(stats.edge_count / domain, 0.01)
            per_label = stats.edge_count / max(len(stats.labels), 1) \
                if stats.labels else float(stats.edge_count)
            arms = [
                arm("forward-index" if arc else "out-edge-scan", src,
                    fan_out * (0.5 if arc else 1.0)),
                arm("backward-index" if arc else "in-edge-scan", tgt,
                    fan_in),
                arm("attribute-extent-scan", arc, per_label),
                arm("full-edge-scan", True, float(stats.edge_count)),
            ]
        else:
            assert condition.path is not None
            label = _single_label(condition.path)
            if label is not None:
                arms = [
                    arm("forward-index", src,
                        max(stats.label_fan_out(label), 0.001)),
                    arm("backward-index", tgt,
                        max(stats.label_fan_in(label), 0.001)),
                    arm("attribute-extent-scan", True,
                        float(stats.label_edges(label))),
                ]
            else:
                fan = estimate_path_fanout(condition.path, stats)
                arms = [
                    arm("automaton-connect", src and tgt,
                        fan / max(stats.node_count, 1)),
                    arm("automaton-forward", src, fan),
                    arm("automaton-backward", tgt, fan),
                    arm("automaton-pairs", True,
                        max(stats.node_count, 1) * max(fan, 0.01)),
                ]
    elif isinstance(condition, MembershipCond):
        size = stats.collection_size(condition.name)
        is_collection = (graph.has_collection(condition.name)
                         if graph is not None else size > 0)
        if is_collection:
            args = condition.args
            arg_bound = bool(args) and (
                isinstance(args[0], Const) or args[0].name in bound)
            arms = [
                arm("membership-test", arg_bound, 1.0),
                arm("collection-scan", True, float(size)),
            ]
        else:
            arms = [arm("predicate-filter", True, 1.0)]
    elif isinstance(condition, ComparisonCond):
        frees = condition_variables(condition) - bound
        arms = [
            arm("filter", not frees, 0.1),
            arm("equality-bind",
                bool(frees) and condition.op == "=" and len(frees) == 1,
                0.1),
        ]
    elif isinstance(condition, InCond):
        arms = [
            arm("filter", condition.var.name in bound,
                0.1 * len(condition.values)),
            arm("constant-list-bind", True, float(len(condition.values))),
        ]
    elif isinstance(condition, NotCond):
        frees = condition_variables(condition.inner) - bound
        arms = [
            arm("anti-filter", not frees, 1.0),
            arm("active-domain-scan", True,
                float(domain) ** max(len(frees), 1)),
        ]
    elif isinstance(condition, AggregateCond):
        arms = [arm("blocking-aggregate", True, 1.0)]
    else:
        raise TypeError(f"not a condition: {condition!r}")
    for candidate in arms:
        if candidate["applicable"]:
            candidate["chosen"] = True
            break
    return arms


def access_path_for(condition: Condition, bound: set[str],
                    stats: GraphStatistics,
                    graph: Graph | None = None) -> str:
    """The access path the operator will take given the bound set."""
    for candidate in candidate_access_paths(condition, bound, stats, graph):
        if candidate["chosen"]:
            return candidate["access_path"]
    return "unknown"


def annotate_plan(ops, bound: set[str], stats: GraphStatistics,
                  parent_rows: float = 1.0,
                  graph: Graph | None = None) -> float:
    """Thread cost-model estimates into an ordered operator pipeline.

    Sets ``est_multiplier``/``cost_weight``/``est_rows``/``access_path``
    on each :class:`~repro.struql.plan.PhysicalOp` so ``Plan.explain()``
    and EXPLAIN ANALYZE can show estimated-vs-actual side by side.
    Returns the final cardinality estimate.
    """
    rows = max(float(parent_rows), 1.0)
    known = set(bound)
    for op in ops:
        multiplier, weight = estimate_condition(op.condition, known, stats)
        rows = max(rows * multiplier, 0.0)
        op.est_multiplier = multiplier
        op.cost_weight = weight
        op.est_rows = round(rows, 2)
        op.access_path = access_path_for(op.condition, known, stats, graph)
        known |= condition_variables(op.condition)
    return rows


def trace_decisions(ordered: Sequence[Condition], bound: set[str],
                    stats: GraphStatistics, graph: Graph,
                    predicates: PredicateRegistry,
                    optimizer: Optimizer | None = None,
                    parent_rows: float = 1.0) -> list[OrderDecision]:
    """Replay an ordering as a step-by-step decision trace.

    For every position in ``ordered``, lists the candidates that were
    still pending — executability, cost-model multiplier/weight, the
    access path each would use, and the incremental cost the greedy
    objective assigns — marking the condition actually placed there.
    ``optimizer.annotate_candidate`` merges in optimizer-specific extras
    (e.g. the heuristic rank tier).
    """
    decisions: list[OrderDecision] = []
    pending = list(ordered)
    known = set(bound)
    rows = max(float(parent_rows), 1.0)
    for step, condition in enumerate(ordered, start=1):
        candidates = []
        for pending_condition in pending:
            runnable = executable(pending_condition, known, graph,
                                  predicates)
            multiplier, weight = estimate_condition(pending_condition,
                                                    known, stats)
            candidate = {
                "condition": str(pending_condition),
                "executable": runnable,
                "multiplier": round(multiplier, 4),
                "cost_weight": weight,
                "est_cost": round(rows * weight + rows * multiplier, 4),
                "access_path": access_path_for(pending_condition, known,
                                               stats, graph),
                "chosen": pending_condition is condition,
            }
            if optimizer is not None:
                candidate.update(optimizer.annotate_candidate(
                    pending_condition, known, graph))
            candidates.append(candidate)
        multiplier, _ = estimate_condition(condition, known, stats)
        rows = max(rows * multiplier, 0.0)
        known |= condition_variables(condition)
        pending.remove(condition)
        decisions.append(OrderDecision(
            step=step, chosen=str(condition),
            est_rows=round(rows, 2), candidates=candidates))
    return decisions


class CostBasedOptimizer(Optimizer):
    """DP plan enumeration with statistics; greedy beyond the DP limit."""

    name = "cost"

    def order(self, conditions: Sequence[Condition], bound: set[str],
              graph: Graph, predicates: PredicateRegistry,
              stats: GraphStatistics | None = None) -> list[Condition]:
        if stats is None:
            stats = GraphStatistics.gather(graph)
        if len(conditions) <= 1:
            return list(conditions)
        if len(conditions) <= DP_LIMIT:
            return self._dp_order(conditions, bound, graph, predicates,
                                  stats)
        return self._greedy_order(conditions, bound, graph, predicates,
                                  stats)

    # -- exact: DP over subsets ------------------------------------------------

    def _dp_order(self, conditions: Sequence[Condition], bound: set[str],
                  graph: Graph, predicates: PredicateRegistry,
                  stats: GraphStatistics) -> list[Condition]:
        n = len(conditions)
        full = (1 << n) - 1
        # best[mask] = (cost, rows, order, bound_set)
        best: dict[int, tuple[float, float, tuple[int, ...], frozenset[str]]]
        best = {0: (0.0, 1.0, (), frozenset(bound))}
        for mask in range(full + 1):
            if mask not in best:
                continue
            cost, rows, order, known = best[mask]
            for i in range(n):
                bit = 1 << i
                if mask & bit:
                    continue
                condition = conditions[i]
                if not executable(condition, set(known), graph, predicates):
                    continue
                multiplier, weight = estimate_condition(
                    condition, set(known), stats)
                new_rows = max(rows * multiplier, 0.0)
                new_cost = cost + rows * weight + new_rows
                new_mask = mask | bit
                entry = best.get(new_mask)
                if entry is None or new_cost < entry[0]:
                    best[new_mask] = (
                        new_cost, new_rows, order + (i,),
                        known | condition_variables(condition))
        final = best.get(full)
        if final is None:
            # No fully executable order exists (will error at runtime
            # regardless of order); keep source order.
            return list(conditions)
        return [conditions[i] for i in final[2]]

    # -- greedy fallback ----------------------------------------------------------

    def _greedy_order(self, conditions: Sequence[Condition],
                      bound: set[str], graph: Graph,
                      predicates: PredicateRegistry,
                      stats: GraphStatistics) -> list[Condition]:
        pending = list(conditions)
        ordered: list[Condition] = []
        known = set(bound)
        rows = 1.0
        while pending:
            best_index = None
            best_key = None
            for i, condition in enumerate(pending):
                if not executable(condition, known, graph, predicates):
                    continue
                multiplier, weight = estimate_condition(
                    condition, known, stats)
                key = rows * weight + rows * multiplier
                if best_key is None or key < best_key:
                    best_key = key
                    best_index = i
            if best_index is None:
                ordered.extend(pending)
                break
            condition = pending.pop(best_index)
            multiplier, _ = estimate_condition(condition, known, stats)
            rows = max(rows * multiplier, 0.0)
            known |= condition_variables(condition)
            ordered.append(condition)
        return ordered

"""The StruQL query engine: two-stage evaluation over blocks.

Ties together the pieces: for each block (preorder through the nesting
tree) the engine

1. asks the configured optimizer to order the block's conditions,
2. executes the resulting physical plan, *extending the parent block's
   binding relation* — which is exactly the semantics of conjoining a
   nested block's conditions with its ancestors', without re-evaluating
   the ancestors, and
3. hands each binding row to the construction stage
   (:class:`~repro.struql.construction.GraphBuilder`).

The engine can create a fresh output graph or *extend* an existing one
(the relaxation of section 5.2: "we allowed queries to add nodes and
arcs to a graph, instead of creating a new graph in every query"), and a
shared :class:`~repro.struql.skolem.SkolemRegistry` lets composed
queries agree on the identity of Skolem-created pages.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.graph.model import Graph
from repro.obs.queries import (
    MISESTIMATE_RATIO,
    fingerprint,
    get_query_registry,
    misestimate_ratio,
    render_explain,
)
from repro.obs.lineage import get_lineage
from repro.obs.trace import TimedResult, emit_event, get_recorder, timed
from repro.repository.indexes import GraphIndex
from repro.repository.repository import Repository
from repro.repository.stats import GraphStatistics
from repro.struql.ast import (
    AggregateCond,
    Block,
    Condition,
    Query,
    condition_variables,
)
from repro.struql.bindings import Binding
from repro.struql.construction import GraphBuilder
from repro.struql.optimizer import get_optimizer
from repro.struql.optimizer.base import Optimizer
from repro.struql.optimizer.cost import annotate_plan, trace_decisions
from repro.struql.parser import parse_query
from repro.struql.plan import ExecutionContext, Plan
from repro.struql.predicates import PredicateRegistry, default_registry
from repro.struql.skolem import SkolemRegistry


@dataclass
class BlockTrace(TimedResult):
    """Diagnostics for one evaluated block.

    ``seconds`` derives from the ``struql.block`` span that timed the
    evaluation, so the trace tree and this summary always agree.
    ``op_profiles`` holds the per-operator EXPLAIN ANALYZE counters of
    the executed plan; ``decisions`` is the optimizer decision trace
    when the engine was built with ``decision_trace=True``;
    ``executed`` is False for plan-only traces
    (:meth:`QueryEngine.plan_only`), whose row counts are estimates.
    """

    label: str
    plan_explain: str
    binding_rows: int
    estimated_rows: float | None = None
    op_profiles: list = field(default_factory=list)
    decisions: list = field(default_factory=list)
    executed: bool = True


@dataclass
class QueryResult:
    """The outcome of evaluating one StruQL query."""

    output: Graph
    skolem: SkolemRegistry
    traces: list[BlockTrace] = field(default_factory=list)
    fingerprint: str = ""
    optimizer_name: str = ""

    @property
    def total_bindings(self) -> int:
        """Sum of binding-relation sizes across blocks."""
        return sum(t.binding_rows for t in self.traces)

    def explain(self) -> str:
        """Plans and row counts for every block."""
        chunks = []
        for trace in self.traces:
            chunks.append(f"block {trace.label or '(top)'} "
                          f"[{trace.binding_rows} rows, "
                          f"{trace.seconds * 1000:.2f} ms]\n"
                          f"{trace.plan_explain}")
        return "\n\n".join(chunks)

    def explain_analyze(self) -> str:
        """EXPLAIN ANALYZE: per-operator estimated vs actual rows,
        wall time, index hits, and flagged misestimates."""
        return render_explain(self, analyze=True)


class QueryEngine:
    """Evaluates StruQL queries against graphs or a repository."""

    def __init__(self, optimizer: str | Optimizer = "cost",
                 predicates: PredicateRegistry | None = None,
                 indexing: bool = True,
                 decision_trace: bool = False) -> None:
        if isinstance(optimizer, str):
            optimizer = get_optimizer(optimizer)
        self.optimizer = optimizer
        self.predicates = predicates or default_registry()
        #: When False, evaluation never consults or builds graph indexes
        #: (the benchmark A1 ablation switch).
        self.indexing = indexing
        #: When True, every block trace carries the optimizer decision
        #: trace (candidate access paths and costs per ordering step) —
        #: the ``repro explain`` mode; off by default to keep the hot
        #: path free of the replay cost.
        self.decision_trace = decision_trace

    # -- public API --------------------------------------------------------------

    def evaluate(self, query: Query | str, graph: Graph,
                 index: GraphIndex | None = None,
                 stats: GraphStatistics | None = None,
                 output: Graph | None = None,
                 skolem: SkolemRegistry | None = None,
                 initial: Binding | None = None) -> QueryResult:
        """Evaluate ``query`` against ``graph``.

        ``output`` may name an existing graph to extend (multi-query site
        construction); by default a fresh graph named by the query's
        ``output`` clause is created.  ``skolem`` shares Skolem identity
        across composed queries.  ``initial`` binds the query's declared
        ``params`` (form/user input) before evaluation — the mechanism
        behind dynamically created pages that "depend on user input".
        """
        if isinstance(query, str):
            query = parse_query(query)
        if output is None:
            output = Graph(query.output_name)
        skolem = skolem or SkolemRegistry()
        if stats is None:
            stats = GraphStatistics.gather(graph)
        if not self.indexing:
            index = None
        elif index is None:
            index = GraphIndex.build(graph)
        ctx = ExecutionContext(graph, index=index,
                               predicates=self.predicates, stats=stats)
        builder = GraphBuilder(output, graph, skolem)
        result = QueryResult(output=output, skolem=skolem)
        # Collections named by collect clauses exist even when empty.
        for block in query.blocks():
            for collect in block.collects:
                output.declare_collection(collect.name)
        result.fingerprint = fingerprint(query)
        result.optimizer_name = self.optimizer.name
        seed: Binding = dict(initial) if initial else {}
        missing = [p for p in query.params if p not in seed]
        if missing:
            from repro.errors import UnboundVariableError
            raise UnboundVariableError(missing[0])
        started = time.perf_counter()
        with get_recorder().span("struql.query", input=query.input_name,
                                 output=query.output_name,
                                 optimizer=self.optimizer.name,
                                 indexed=index is not None,
                                 fingerprint=result.fingerprint):
            self._run_block(query.root, [seed], set(seed), ctx, builder,
                            result, stats)
            emit_event("info", "struql.query",
                       input=query.input_name, output=query.output_name,
                       fingerprint=result.fingerprint,
                       blocks=len(result.traces),
                       nodes=result.output.node_count,
                       edges=result.output.edge_count)
        get_query_registry().observe(
            query, seconds=time.perf_counter() - started,
            rows=result.total_bindings, plan=result.explain(),
            optimizer=self.optimizer.name,
            misestimates=sum(
                1 for t in result.traces
                if t.estimated_rows is not None and misestimate_ratio(
                    t.estimated_rows, t.binding_rows) > MISESTIMATE_RATIO),
            fp=result.fingerprint)
        return result

    def plan_only(self, query: Query | str, graph: Graph,
                  stats: GraphStatistics | None = None) -> QueryResult:
        """EXPLAIN without ANALYZE: plan every block, execute nothing.

        Orders each block's conditions exactly as :meth:`evaluate`
        would, annotates the plans with cost-model estimates and access
        paths, and (when ``decision_trace`` is on) records the optimizer
        decision trace — but never touches a row.  The returned result
        has an empty output graph and plan-only traces
        (``executed=False``, ``binding_rows=0``).
        """
        if isinstance(query, str):
            query = parse_query(query)
        if stats is None:
            stats = GraphStatistics.gather(graph)
        result = QueryResult(output=Graph(query.output_name),
                             skolem=SkolemRegistry(),
                             fingerprint=fingerprint(query),
                             optimizer_name=self.optimizer.name)
        # Preorder through the nesting tree, mirroring _run_block.
        pending = [(query.root, set(query.params), 1.0)]
        while pending:
            block, bound, parent_estimate = pending.pop(0)
            estimate = parent_estimate
            if block.conditions:
                ordered = self.optimizer.order(
                    block.conditions, bound, graph, self.predicates, stats)
                ordered = _enforce_aggregate_order(ordered)
                plan = Plan.from_conditions(ordered)
                estimate = annotate_plan(plan.ops, bound, stats,
                                         parent_rows=parent_estimate,
                                         graph=graph)
                decisions = trace_decisions(
                    ordered, bound, stats, graph, self.predicates,
                    optimizer=self.optimizer,
                    parent_rows=parent_estimate) \
                    if self.decision_trace else []
                result.traces.append(BlockTrace(
                    label=block.label, plan_explain=plan.explain(),
                    binding_rows=0, estimated_rows=round(estimate, 2),
                    decisions=decisions, executed=False))
            else:
                result.traces.append(BlockTrace(
                    label=block.label, plan_explain="(no conditions)",
                    binding_rows=0, estimated_rows=round(estimate, 2),
                    executed=False))
            child_bound = bound | block.variables()
            pending[0:0] = [(child, child_bound, estimate)
                            for child in block.children]
        return result

    def run(self, query: Query | str, repository: Repository,
            skolem: SkolemRegistry | None = None) -> QueryResult:
        """Evaluate against a repository: resolves the input graph, uses
        its indexes and statistics, and stores the output graph.

        If the output graph already exists in the repository it is
        extended rather than replaced.
        """
        if isinstance(query, str):
            query = parse_query(query)
        graph = repository.graph(query.input_name)
        index = repository.index(query.input_name)
        stats = repository.statistics(query.input_name)
        output = (repository.graph(query.output_name)
                  if repository.has_graph(query.output_name) else None)
        result = self.evaluate(query, graph, index=index, stats=stats,
                               output=output, skolem=skolem)
        repository.store(result.output)
        return result

    # -- block recursion ------------------------------------------------------------

    def _run_block(self, block: Block, parent_rows: list[Binding],
                   bound: set[str], ctx: ExecutionContext,
                   builder: GraphBuilder, result: QueryResult,
                   stats: GraphStatistics | None) -> None:
        recorder = get_recorder()
        with timed("struql.block", label=block.label or "(top)") as span:
            estimated: float | None = None
            profiles: list = []
            decisions: list = []
            if block.conditions:
                with recorder.span("struql.optimize",
                                   optimizer=self.optimizer.name,
                                   conditions=len(block.conditions)):
                    ordered = self.optimizer.order(
                        block.conditions, bound, ctx.graph,
                        ctx.predicates, stats)
                    ordered = _enforce_aggregate_order(ordered)
                plan = Plan.from_conditions(ordered)
                if stats is not None:
                    estimated = round(annotate_plan(
                        plan.ops, bound, stats,
                        parent_rows=len(parent_rows),
                        graph=ctx.graph), 2)
                    if recorder.enabled:
                        span.set(estimated_rows=estimated)
                    if self.decision_trace:
                        decisions = trace_decisions(
                            ordered, bound, stats, ctx.graph,
                            ctx.predicates, optimizer=self.optimizer,
                            parent_rows=len(parent_rows))
                rows = plan.execute(ctx,
                                    initial=[dict(r) for r in parent_rows])
                explain = plan.explain()
                profiles = plan.profiles
            else:
                rows = parent_rows
                explain = "(no conditions)"
            if recorder.enabled:
                span.set(optimizer=self.optimizer.name,
                         actual_rows=len(rows))
            if estimated is not None:
                ratio = misestimate_ratio(estimated, len(rows))
                if ratio > MISESTIMATE_RATIO:
                    emit_event("warning", "struql.misestimate",
                               block=block.label or "(top)",
                               estimated=estimated, actual=len(rows),
                               ratio=round(ratio, 1),
                               optimizer=self.optimizer.name)
            with recorder.span("struql.construct", rows=len(rows)):
                lineage = get_lineage()
                with lineage.query_context(
                        fingerprint=result.fingerprint,
                        block=block.label or "(top)",
                        input=ctx.graph.name):
                    for row in rows:
                        builder.apply_block_row(block, row)
        result.traces.append(BlockTrace(
            label=block.label,
            plan_explain=explain,
            binding_rows=len(rows),
            estimated_rows=estimated,
            op_profiles=profiles,
            decisions=decisions,
            span=span,
        ))
        child_bound = bound | block.variables()
        for child in block.children:
            self._run_block(child, rows, child_bound, ctx, builder, result,
                            stats)


def _enforce_aggregate_order(ordered: list[Condition]
                             ) -> list[Condition]:
    """Pin aggregates to their declarative position.

    An aggregate summarizes the binding relation of *all* other
    conditions (its group semantics must not depend on plan choice), so
    it runs after every condition that does not consume its output, and
    before every condition that does.  Multiple aggregates keep their
    relative order.
    """
    aggregates = [c for c in ordered if isinstance(c, AggregateCond)]
    if not aggregates:
        return ordered
    outputs = {a.out.name for a in aggregates}
    before: list[Condition] = []
    after: list[Condition] = []
    for condition in ordered:
        if isinstance(condition, AggregateCond):
            continue
        if condition_variables(condition) & outputs:
            after.append(condition)
        else:
            before.append(condition)
    return before + aggregates + after


def evaluate(query: Query | str, graph: Graph,
             optimizer: str = "cost") -> Graph:
    """One-shot convenience: evaluate and return the output graph."""
    return QueryEngine(optimizer=optimizer).evaluate(query, graph).output

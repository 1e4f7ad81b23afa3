"""Physical query plans and operators for StruQL's query stage.

As in traditional query processing (paper section 2.4), a query's
``where`` clause is translated into a tree of physical operations — here
a pipeline of operators, each of which *extends* a stream of partial
bindings with one condition.  The operator set includes "conventional
physical operators as well as those necessary to query the schema": an
all-free arc-variable step is exactly the paper's "scan all the
attribute names in a graph".

Operators choose their access path adaptively from what is bound when a
row arrives, and use the repository's indexes when the
:class:`ExecutionContext` carries one:

* :class:`MembershipOp` — collection scan / membership test, or
  built-in/external predicate filter (resolved semantically);
* :class:`EdgeStepOp` — single edge with an arc variable: forward step,
  backward step (via the backward index), attribute-extent scan, or
  full edge scan;
* :class:`PathOp` — regular path expression via product-automaton
  search, forward or backward;
* :class:`ComparisonOp`, :class:`InOp` — filters (an equality or ``in``
  against constants can also *bind* a free variable);
* :class:`NegationOp` — ``not(...)`` under active-domain semantics.

The optimizers in :mod:`repro.struql.optimizer` decide only the operator
*order*; the naive evaluator uses source order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from repro.errors import StruQLError, UnboundVariableError, UnknownPredicateError
from repro.graph.model import EVERYTHING, Edge, Graph, GraphObject, Oid
from repro.graph.values import Atom
from repro.obs.queries import MISESTIMATE_RATIO, misestimate_ratio
from repro.obs.trace import TimedResult, get_recorder, timed
from repro.repository.indexes import GraphIndex
from repro.repository.stats import GraphStatistics
from repro.struql.ast import (
    AggregateCond,
    ComparisonCond,
    Condition,
    Const,
    InCond,
    MembershipCond,
    NotCond,
    PathCond,
    RegularPath,
    Var,
    condition_variables,
)
from repro.struql.bindings import (
    Binding,
    RuntimeValue,
    as_atom,
    as_label,
    extend_binding,
    runtime_compare,
    runtime_eq,
)
from repro.struql.paths import PathEvaluator
from repro.struql.predicates import PredicateRegistry, default_registry


class ExecutionContext:
    """Everything an operator needs: graph, optional index, predicates.

    Every data read of the operators goes through the context.  While
    :attr:`reads` is a set, each read adds to it the read key it
    depends on (see :mod:`repro.graph.model`), so a caller learns what
    a plan read and can tell whether a later data change meets it.

    Path evaluators are cached per regular path expression, so repeated
    rows share automata and label-test memoization.
    """

    def __init__(self, graph: Graph, index: GraphIndex | None = None,
                 predicates: PredicateRegistry | None = None,
                 stats: GraphStatistics | None = None) -> None:
        self.graph = graph
        # A stale index would miss edges added since it was built, so
        # the context falls back to graph scans until it is refreshed.
        self.index = index if (index is not None and index.fresh) else None
        self.predicates = predicates or default_registry()
        self.stats = stats
        self.reads: set[tuple] | None = None
        self._path_evaluators: dict[RegularPath, PathEvaluator] = {}
        # Lookups served by the index and by graph scans; each
        # operator's profile takes its deltas of these.
        self.index_hit_count = 0
        self.index_miss_count = 0

    def path_evaluator(self, expr: RegularPath) -> PathEvaluator:
        evaluator = self._path_evaluators.get(expr)
        if evaluator is None:
            evaluator = PathEvaluator(expr, self.predicates)
            self._path_evaluators[expr] = evaluator
        return evaluator

    def _read(self, key: tuple) -> None:
        if self.reads is not None:
            self.reads.add(key)

    # -- label-aware edge access (index-backed when available) ----------------
    #
    # Without an index, labeled lookups degrade to linear scans over the
    # edge set — the paper's premise that a schemaless store cannot
    # organize data physically without the indexes of section 2.2.  The
    # A1 ablation measures exactly this degradation.

    def _indexed(self) -> bool:
        """Count one lookup as an index hit or a scan; True on a hit."""
        if self.index is not None:
            self.index_hit_count += 1
            return True
        self.index_miss_count += 1
        return False

    def targets(self, source: Oid, label: str) -> list[GraphObject]:
        self._read(("out", source, label))
        if self._indexed():
            return self.index.targets(source, label)
        return [e.target for e in self.graph.edges()
                if e.source == source and e.label == label]

    def sources(self, label: str, target: GraphObject) -> list[Oid]:
        self._read(("in", _pred_arg(target), label))
        if self._indexed():
            return self.index.sources(label, target)
        return [e.source for e in self.graph.edges()
                if e.label == label and runtime_eq(e.target, target)]

    def attribute_extent(self, label: str) -> list[tuple[Oid, GraphObject]]:
        self._read(("label", label))
        if self._indexed():
            return self.index.attribute_extent(label)
        return [(e.source, e.target) for e in self.graph.edges()
                if e.label == label]

    def labels(self) -> list[str]:
        self._read(EVERYTHING)
        if self._indexed():
            return self.index.labels()
        return self.graph.labels()

    # -- unlabeled graph reads --------------------------------------------------

    def out_edges(self, source: Oid) -> list[Edge]:
        self._read(("out", source))
        return self.graph.out_edges(source)

    def in_edges(self, target: GraphObject) -> list[Edge]:
        self._read(("in", _pred_arg(target)))
        return self.graph.in_edges(target)

    def edges(self) -> Iterator[Edge]:
        self._read(EVERYTHING)
        return self.graph.edges()

    def nodes(self) -> Iterator[Oid]:
        self._read(EVERYTHING)
        return self.graph.nodes()

    def atoms(self) -> Iterator[Atom]:
        self._read(EVERYTHING)
        return self.graph.atoms()

    # -- collections -------------------------------------------------------------

    def has_collection(self, name: str) -> bool:
        self._read(("collection", name))
        return self.graph.has_collection(name)

    def collection(self, name: str) -> list[GraphObject]:
        self._read(("collection", name))
        return self.graph.collection(name)

    def in_collection(self, name: str, obj: GraphObject) -> bool:
        self._read(("collection", name))
        return self.graph.in_collection(name, obj)


def _resolve(term: Union[Var, Const], binding: Binding) -> RuntimeValue | None:
    """The runtime value of a term under a binding; ``None`` if unbound."""
    if isinstance(term, Const):
        return term.value
    return binding.get(term.name)


def _pred_arg(value: RuntimeValue) -> Union[Oid, Atom]:
    """Predicates receive oids and atoms; labels become string atoms."""
    if isinstance(value, str):
        return Atom.string(value)
    return value


@dataclass
class OpProfile(TimedResult):
    """EXPLAIN ANALYZE counters for one operator in one execution.

    ``seconds`` reads the ``struql.op`` span :meth:`Plan.execute` ran
    the operator under; that span exists whether or not a recorder is
    on, so ``repro explain --analyze`` works without tracing, and
    under tracing the profile and the trace tree agree by construction.
    """

    op: str
    condition: str
    rows_in: int = 0
    rows_out: int = 0
    index_hits: int = 0
    index_misses: int = 0
    est_rows: float | None = None
    access_path: str | None = None

    @property
    def est_actual_ratio(self) -> float:
        return misestimate_ratio(self.est_rows, self.rows_out)

    @property
    def misestimated(self) -> bool:
        return (self.est_rows is not None
                and self.est_actual_ratio > MISESTIMATE_RATIO)

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "condition": self.condition,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "seconds": self.seconds,
            "index_hits": self.index_hits,
            "index_misses": self.index_misses,
            "est_rows": self.est_rows,
            "access_path": self.access_path,
            "misestimate": self.misestimated,
        }


class PhysicalOp:
    """Base operator: consumes bindings, emits extended bindings."""

    condition: Condition

    # Optimizer annotations threaded in by
    # :func:`repro.struql.optimizer.cost.annotate_plan`; ``None`` until a
    # plan is annotated.  ``access_path`` names the access method the
    # operator will choose given the variables bound at its position.
    est_rows: float | None = None
    est_multiplier: float | None = None
    cost_weight: float | None = None
    access_path: str | None = None

    def extend(self, rows: Iterable[Binding],
               ctx: ExecutionContext) -> Iterator[Binding]:
        raise NotImplementedError

    def explain(self) -> str:
        raise NotImplementedError

    def explain_annotated(self) -> str:
        """The stable one-line form plus optimizer annotations."""
        line = self.explain()
        extras = []
        if self.access_path:
            extras.append(f"via {self.access_path}")
        if self.est_rows is not None:
            extras.append(f"est~{self.est_rows:g} rows")
        if extras:
            line += "  [" + ", ".join(extras) + "]"
        return line

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.condition}>"


class MembershipOp(PhysicalOp):
    """``Name(args)``: collection membership or predicate filter."""

    def __init__(self, condition: MembershipCond) -> None:
        self.condition = condition

    def extend(self, rows: Iterable[Binding],
               ctx: ExecutionContext) -> Iterator[Binding]:
        name = self.condition.name
        if ctx.has_collection(name):
            yield from self._collection(rows, ctx)
        elif ctx.predicates.has(name):
            yield from self._predicate(rows, ctx)
        else:
            raise UnknownPredicateError(name)

    def _collection(self, rows: Iterable[Binding],
                    ctx: ExecutionContext) -> Iterator[Binding]:
        name = self.condition.name
        if len(self.condition.args) != 1:
            raise StruQLError(
                f"collection membership {name}(...) takes one argument")
        arg = self.condition.args[0]
        members = ctx.collection(name)
        for row in rows:
            value = _resolve(arg, row)
            if value is None:
                assert isinstance(arg, Var)
                for member in members:
                    extended = extend_binding(row, arg.name, member)
                    if extended is not None:
                        yield extended
            else:
                lookup = value if isinstance(value, (Oid, Atom)) \
                    else Atom.string(value)
                if ctx.in_collection(name, lookup):
                    yield row

    def _predicate(self, rows: Iterable[Binding],
                   ctx: ExecutionContext) -> Iterator[Binding]:
        fn = ctx.predicates.lookup(self.condition.name)
        for row in rows:
            values = []
            for arg in self.condition.args:
                value = _resolve(arg, row)
                if value is None:
                    assert isinstance(arg, Var)
                    raise UnboundVariableError(arg.name)
                values.append(_pred_arg(value))
            if fn(*values):
                yield row

    def explain(self) -> str:
        return f"member/filter {self.condition}"


class EdgeStepOp(PhysicalOp):
    """``x -> l -> y`` with arc variable ``l``: one edge, label bound."""

    def __init__(self, condition: PathCond) -> None:
        assert condition.arc_var is not None
        self.condition = condition

    def extend(self, rows: Iterable[Binding],
               ctx: ExecutionContext) -> Iterator[Binding]:
        cond = self.condition
        arc = cond.arc_var
        assert arc is not None
        for row in rows:
            source = _resolve(cond.source, row)
            target = _resolve(cond.target, row)
            label_value = row.get(arc)
            label = as_label(label_value) if label_value is not None else None
            yield from self._edges_for(row, source, target, label, ctx)

    def _edges_for(self, row: Binding, source: RuntimeValue | None,
                   target: RuntimeValue | None, label: str | None,
                   ctx: ExecutionContext) -> Iterator[Binding]:
        cond = self.condition
        if isinstance(source, Atom) or isinstance(source, str):
            return  # atoms/labels have no outgoing edges
        if isinstance(source, Oid):
            if label is not None:
                candidates = [(source, t) for t in ctx.targets(source, label)]
                labels = itertools.repeat(label)
                pairs = zip(candidates, labels)
            else:
                edges = ctx.out_edges(source)
                pairs = (((e.source, e.target), e.label) for e in edges)
        elif target is not None:
            if label is not None:
                pairs = ((((s, target), label))
                         for s in ctx.sources(label, target))
            else:
                edges = ctx.in_edges(target)
                pairs = (((e.source, e.target), e.label) for e in edges)
        else:
            if label is not None:
                pairs = (((s, t), label)
                         for s, t in ctx.attribute_extent(label))
            else:
                pairs = (((e.source, e.target), e.label)
                         for e in ctx.edges())
        for (edge_source, edge_target), edge_label in pairs:
            extended: Binding | None = row
            if isinstance(cond.source, Var):
                extended = extend_binding(extended, cond.source.name,
                                          edge_source)
                if extended is None:
                    continue
            if target is not None and not runtime_eq(edge_target, target):
                continue
            assert cond.arc_var is not None
            extended = extend_binding(extended, cond.arc_var, edge_label)
            if extended is None:
                continue
            if isinstance(cond.target, Var):
                extended = extend_binding(extended, cond.target.name,
                                          edge_target)
                if extended is None:
                    continue
            yield extended

    def explain(self) -> str:
        return f"edge-step {self.condition}"


class PathOp(PhysicalOp):
    """``x -> R -> y`` with a regular path expression ``R``."""

    def __init__(self, condition: PathCond) -> None:
        assert condition.path is not None
        self.condition = condition

    @staticmethod
    def _single_label(path) -> str | None:
        """The label when the path is exactly one constant-label step —
        the case where indexed access paths apply."""
        from repro.struql.ast import LabelEquals as _LabelEquals
        from repro.struql.ast import RLabel as _RLabel
        if isinstance(path, _RLabel) and isinstance(path.pred,
                                                    _LabelEquals):
            return path.pred.label
        return None

    def _extend_single_label(self, rows: Iterable[Binding], label: str,
                             ctx: ExecutionContext) -> Iterator[Binding]:
        """Index-exploiting evaluation of ``x -> "label" -> y``."""
        cond = self.condition
        for row in rows:
            source = _resolve(cond.source, row)
            target = _resolve(cond.target, row)
            if isinstance(source, (Atom, str)):
                continue
            if isinstance(source, Oid):
                pairs = [(source, t) for t in ctx.targets(source, label)]
            elif target is not None:
                goal = _pred_arg(target)
                pairs = [(s, goal) for s in ctx.sources(label, goal)]
            else:
                pairs = ctx.attribute_extent(label)
            for edge_source, edge_target in pairs:
                extended: Binding | None = row
                if isinstance(cond.source, Var):
                    extended = extend_binding(extended, cond.source.name,
                                              edge_source)
                    if extended is None:
                        continue
                if target is not None and not runtime_eq(edge_target,
                                                         target):
                    continue
                if isinstance(cond.target, Var):
                    extended = extend_binding(extended, cond.target.name,
                                              edge_target)
                    if extended is None:
                        continue
                yield extended

    def extend(self, rows: Iterable[Binding],
               ctx: ExecutionContext) -> Iterator[Binding]:
        cond = self.condition
        assert cond.path is not None
        label = self._single_label(cond.path)
        if label is not None:
            yield from self._extend_single_label(rows, label, ctx)
            return
        evaluator = ctx.path_evaluator(cond.path)
        for row in rows:
            source = _resolve(cond.source, row)
            target = _resolve(cond.target, row)
            if source is not None and target is not None:
                origin = _pred_arg(source)
                goal = _pred_arg(target)
                if evaluator.connects(ctx, origin, goal):
                    yield row
            elif source is not None:
                origin = _pred_arg(source)
                assert isinstance(cond.target, Var)
                for hit in evaluator.forward(ctx, origin):
                    extended = extend_binding(row, cond.target.name, hit)
                    if extended is not None:
                        yield extended
            elif target is not None:
                goal = _pred_arg(target)
                assert isinstance(cond.source, Var)
                for hit in evaluator.backward(ctx, goal):
                    extended = extend_binding(row, cond.source.name, hit)
                    if extended is not None:
                        yield extended
            else:
                assert isinstance(cond.source, Var)
                assert isinstance(cond.target, Var)
                for pair_source, pair_target in evaluator.pairs(ctx):
                    extended = extend_binding(row, cond.source.name,
                                              pair_source)
                    if extended is None:
                        continue
                    extended = extend_binding(extended, cond.target.name,
                                              pair_target)
                    if extended is not None:
                        yield extended

    def explain(self) -> str:
        return f"path-traverse {self.condition}"


class ComparisonOp(PhysicalOp):
    """``left op right``: filter, or bind on equality with a constant."""

    def __init__(self, condition: ComparisonCond) -> None:
        self.condition = condition

    def extend(self, rows: Iterable[Binding],
               ctx: ExecutionContext) -> Iterator[Binding]:
        cond = self.condition
        for row in rows:
            left = _resolve(cond.left, row)
            right = _resolve(cond.right, row)
            if left is not None and right is not None:
                if runtime_compare(left, cond.op, right):
                    yield row
            elif cond.op == "=" and left is None and right is not None:
                assert isinstance(cond.left, Var)
                extended = extend_binding(row, cond.left.name, right)
                if extended is not None:
                    yield extended
            elif cond.op == "=" and right is None and left is not None:
                assert isinstance(cond.right, Var)
                extended = extend_binding(row, cond.right.name, left)
                if extended is not None:
                    yield extended
            else:
                missing = cond.left if left is None else cond.right
                assert isinstance(missing, Var)
                raise UnboundVariableError(missing.name)

    def explain(self) -> str:
        return f"compare {self.condition}"


class InOp(PhysicalOp):
    """``l in {c1, ..., cn}``: filter a bound variable or bind a free one."""

    def __init__(self, condition: InCond) -> None:
        self.condition = condition

    def extend(self, rows: Iterable[Binding],
               ctx: ExecutionContext) -> Iterator[Binding]:
        cond = self.condition
        for row in rows:
            value = row.get(cond.var.name)
            if value is not None:
                if any(runtime_eq(value, c.value) for c in cond.values):
                    yield row
            else:
                for const in cond.values:
                    extended = extend_binding(row, cond.var.name, const.value)
                    if extended is not None:
                        yield extended

    def explain(self) -> str:
        return f"in-filter {self.condition}"


class NegationOp(PhysicalOp):
    """``not(C)`` under active-domain semantics.

    Free variables of the inner condition range over the active domain —
    source positions over nodes, target positions over nodes and atoms,
    arc variables over labels — and a candidate row survives when the
    inner condition has *no* satisfying extension beyond those bindings
    (which, once the frees are pinned, is a simple failure test).  This
    supports the paper's complement-graph query.
    """

    def __init__(self, condition: NotCond) -> None:
        self.condition = condition
        self._inner = make_op(condition.inner)

    def extend(self, rows: Iterable[Binding],
               ctx: ExecutionContext) -> Iterator[Binding]:
        inner = self.condition.inner
        inner_vars = condition_variables(inner)
        for row in rows:
            free = sorted(v for v in inner_vars if v not in row)
            if not free:
                if not self._satisfiable(row, ctx):
                    yield row
                continue
            domains = [self._domain(name, ctx) for name in free]
            for combo in itertools.product(*domains):
                extended: Binding = dict(row)
                extended.update(zip(free, combo))
                if not self._satisfiable(extended, ctx):
                    yield extended

    def _satisfiable(self, row: Binding, ctx: ExecutionContext) -> bool:
        for _ in self._inner.extend([row], ctx):
            return True
        return False

    def _domain(self, name: str, ctx: ExecutionContext
                ) -> list[RuntimeValue]:
        inner = self.condition.inner
        if isinstance(inner, PathCond):
            if inner.arc_var == name:
                return list(ctx.labels())
            if isinstance(inner.source, Var) and inner.source.name == name:
                return list(ctx.nodes())
        out: list[RuntimeValue] = list(ctx.nodes())
        out.extend(ctx.atoms())
        return out

    def explain(self) -> str:
        return f"negate {self.condition}"


class AggregateOp(PhysicalOp):
    """``fn(v) per group as n``: blocking window aggregation.

    Materializes its input, partitions rows by the group variables'
    values, aggregates the *distinct* values of ``v`` per partition, and
    emits every row extended with the result.  Distinctness matters: a
    publication with three authors contributes each author once to
    ``count(a) per x``, however many (l, v) rows the join produced.
    """

    def __init__(self, condition: AggregateCond) -> None:
        self.condition = condition

    def extend(self, rows: Iterable[Binding],
               ctx: ExecutionContext) -> Iterator[Binding]:
        cond = self.condition
        materialized = list(rows)
        partitions: dict[tuple, dict] = {}
        for row in materialized:
            value = row.get(cond.var.name)
            if value is None:
                raise UnboundVariableError(cond.var.name)
            key = tuple(self._group_key(row, g.name) for g in cond.group)
            bucket = partitions.setdefault(key, {})
            atom = _pred_arg(value)
            bucket.setdefault(atom if isinstance(atom, (Oid, Atom))
                              else value, None)
        results = {key: self._aggregate(list(bucket))
                   for key, bucket in partitions.items()}
        for row in materialized:
            key = tuple(self._group_key(row, g.name) for g in cond.group)
            extended = extend_binding(row, cond.out.name, results[key])
            if extended is not None:
                yield extended

    def _group_key(self, row: Binding, name: str):
        value = row.get(name)
        if value is None:
            raise UnboundVariableError(name)
        return _pred_arg(value) if isinstance(value, str) else value

    def _aggregate(self, values: list) -> Atom:
        fn = self.condition.fn
        if fn == "count":
            return Atom.int(len(values))
        atoms = [v for v in values if isinstance(v, Atom)]
        if len(atoms) != len(values):
            raise StruQLError(
                f"{fn}() requires atomic values, got node objects")
        if not atoms:
            raise StruQLError(f"{fn}() over an empty group")
        if fn == "min":
            return min(atoms)
        if fn == "max":
            return max(atoms)
        numbers = []
        for atom in atoms:
            try:
                numbers.append(float(str(atom.value)))
            except ValueError:
                raise StruQLError(
                    f"{fn}() requires numeric values, got {atom!r}") \
                    from None
        total = sum(numbers)
        if fn == "sum":
            if total.is_integer():
                return Atom.int(int(total))
            return Atom.float(total)
        if fn == "avg":
            return Atom.float(total / len(numbers))
        raise StruQLError(f"unknown aggregate {fn!r}")

    def explain(self) -> str:
        return f"aggregate {self.condition}"


def make_op(condition: Condition) -> PhysicalOp:
    """Build the physical operator implementing ``condition``."""
    if isinstance(condition, MembershipCond):
        return MembershipOp(condition)
    if isinstance(condition, PathCond):
        if condition.arc_var is not None:
            return EdgeStepOp(condition)
        return PathOp(condition)
    if isinstance(condition, ComparisonCond):
        return ComparisonOp(condition)
    if isinstance(condition, InCond):
        return InOp(condition)
    if isinstance(condition, NotCond):
        return NegationOp(condition)
    if isinstance(condition, AggregateCond):
        return AggregateOp(condition)
    raise TypeError(f"not a condition: {condition!r}")


#: Counter name -> the :class:`OpProfile` field it totals, published
#: once per :meth:`Plan.execute`.
_PUBLISHED_COUNTERS = (
    ("struql.rows_scanned", "rows_in"),
    ("struql.rows_produced", "rows_out"),
    ("repository.index.hits", "index_hits"),
    ("repository.index.misses", "index_misses"),
)


class Plan:
    """An ordered pipeline of physical operators.

    Each :meth:`execute` refreshes :attr:`profiles` with one
    :class:`OpProfile` per operator that ran (operators after an empty
    intermediate result are skipped and get no profile).
    """

    def __init__(self, ops: list[PhysicalOp]) -> None:
        self.ops = ops
        self.profiles: list[OpProfile] = []

    @classmethod
    def from_conditions(cls, conditions: Iterable[Condition]) -> "Plan":
        """A plan evaluating conditions in the given order."""
        return cls([make_op(c) for c in conditions])

    def execute(self, ctx: ExecutionContext,
                initial: list[Binding] | None = None) -> list[Binding]:
        """Run the pipeline; ``initial`` defaults to one empty binding.

        Each operator runs under a ``struql.op`` span carrying
        ``rows_scanned``, ``rows_produced``, ``est_rows`` and
        ``access_path``; its :class:`OpProfile` reads that span.  The
        row and index-lookup counters are published once per execution,
        from the sums over the profiles.
        """
        rows: list[Binding] = initial if initial is not None else [{}]
        profiles: list[OpProfile] = []
        self.profiles = profiles
        for op in self.ops:
            before = len(rows)
            hits = ctx.index_hit_count
            misses = ctx.index_miss_count
            with timed("struql.op", op=op.explain()) as span:
                rows = list(op.extend(rows, ctx))
                span.set(rows_scanned=before, rows_produced=len(rows),
                         est_rows=op.est_rows, access_path=op.access_path)
            profiles.append(OpProfile(
                op=span.attributes["op"],
                condition=str(op.condition),
                rows_in=before,
                rows_out=len(rows),
                index_hits=ctx.index_hit_count - hits,
                index_misses=ctx.index_miss_count - misses,
                est_rows=op.est_rows,
                access_path=op.access_path,
                span=span,
            ))
            if not rows:
                break
        metrics = get_recorder().metrics
        for name, field_name in _PUBLISHED_COUNTERS:
            metrics.counter(name).inc(
                sum(getattr(p, field_name) for p in profiles))
        return rows

    def explain(self) -> str:
        """A human-readable description of the operator pipeline.

        Annotated plans (after
        :func:`repro.struql.optimizer.cost.annotate_plan`) additionally
        show the chosen access path and the estimated cardinality after
        each operator; un-annotated plans print structure only, exactly
        as before.
        """
        lines = [f"{i + 1}. {op.explain_annotated()}"
                 for i, op in enumerate(self.ops)]
        return "\n".join(lines) if lines else "(empty plan)"

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:
        return f"Plan({[op.explain() for op in self.ops]})"

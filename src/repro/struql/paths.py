"""Regular path expression compilation and evaluation.

StruQL's regular path expressions (``R ::= Pred | R.R | R|R | R*``) are
more general than regular expressions because their leaves are
*predicates on edge labels*.  Following the classic approach (also used
by G+ and LOREL), an expression compiles to a nondeterministic finite
automaton over label predicates (:class:`PathAutomaton`); the condition
``x -> R -> y`` is evaluated by a breadth-first search over the *product*
of the data graph and the automaton, which computes exactly the pairs
connected by a matching path — including transitive closure for ``*``.

Three evaluation directions are provided, chosen by which endpoint is
bound at run time:

* :func:`eval_forward` — source bound: all matching targets;
* :func:`eval_backward` — target bound: all matching sources (runs the
  reversed automaton over reversed edges);
* :func:`eval_pairs` — neither bound: all matching pairs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.graph.model import Graph, GraphObject, Oid
from repro.graph.values import Atom
from repro.struql.ast import (
    AnyLabel,
    LabelEquals,
    LabelPred,
    LabelPredicate,
    RAlt,
    RConcat,
    RegularPath,
    RLabel,
    RStar,
)
from repro.struql.predicates import PredicateRegistry

#: Evaluates a leaf label predicate against a concrete label.
LabelTest = Callable[[str], bool]


@dataclass
class PathAutomaton:
    """An NFA over edge-label predicates.

    States are integers.  ``transitions[s]`` lists ``(pred, t)`` pairs;
    ``epsilon[s]`` lists epsilon-successor states.
    """

    start: int
    accept: int
    transitions: dict[int, list[tuple[LabelPred, int]]] = field(
        default_factory=dict)
    epsilon: dict[int, list[int]] = field(default_factory=dict)
    state_count: int = 0

    def add_transition(self, src: int, pred: LabelPred, dst: int) -> None:
        self.transitions.setdefault(src, []).append((pred, dst))

    def add_epsilon(self, src: int, dst: int) -> None:
        self.epsilon.setdefault(src, []).append(dst)

    def epsilon_closure(self, states: Iterable[int]) -> frozenset[int]:
        """All states reachable from ``states`` by epsilon moves."""
        seen = set(states)
        stack = list(seen)
        while stack:
            state = stack.pop()
            for nxt in self.epsilon.get(state, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)

    @property
    def accepts_empty(self) -> bool:
        """Whether the empty path matches (e.g. ``R*`` with zero steps)."""
        return self.accept in self.epsilon_closure([self.start])

    def reversed(self) -> "PathAutomaton":
        """The automaton of the reversed language."""
        out = PathAutomaton(start=self.accept, accept=self.start,
                            state_count=self.state_count)
        for src, edges in self.transitions.items():
            for pred, dst in edges:
                out.add_transition(dst, pred, src)
        for src, dsts in self.epsilon.items():
            for dst in dsts:
                out.add_epsilon(dst, src)
        return out


def compile_path(expr: RegularPath) -> PathAutomaton:
    """Thompson-construct an automaton from a regular path expression."""
    builder = _Builder()
    start, accept = builder.build(expr)
    automaton = PathAutomaton(start=start, accept=accept,
                              transitions=builder.transitions,
                              epsilon=builder.epsilon,
                              state_count=builder.count)
    return automaton


class _Builder:
    def __init__(self) -> None:
        self.count = 0
        self.transitions: dict[int, list[tuple[LabelPred, int]]] = {}
        self.epsilon: dict[int, list[int]] = {}

    def _fresh(self) -> int:
        state = self.count
        self.count += 1
        return state

    def _trans(self, src: int, pred: LabelPred, dst: int) -> None:
        self.transitions.setdefault(src, []).append((pred, dst))

    def _eps(self, src: int, dst: int) -> None:
        self.epsilon.setdefault(src, []).append(dst)

    def build(self, expr: RegularPath) -> tuple[int, int]:
        if isinstance(expr, RLabel):
            start, accept = self._fresh(), self._fresh()
            self._trans(start, expr.pred, accept)
            return start, accept
        if isinstance(expr, RConcat):
            start, cursor = None, None
            for part in expr.parts:
                s, a = self.build(part)
                if start is None:
                    start = s
                else:
                    self._eps(cursor, s)
                cursor = a
            assert start is not None and cursor is not None
            return start, cursor
        if isinstance(expr, RAlt):
            start, accept = self._fresh(), self._fresh()
            for option in expr.options:
                s, a = self.build(option)
                self._eps(start, s)
                self._eps(a, accept)
            return start, accept
        if isinstance(expr, RStar):
            start, accept = self._fresh(), self._fresh()
            s, a = self.build(expr.inner)
            self._eps(start, s)
            self._eps(a, accept)
            self._eps(start, accept)
            self._eps(accept, start)
            return start, accept
        raise TypeError(f"not a regular path expression: {expr!r}")


def make_label_test(pred: LabelPred,
                    registry: PredicateRegistry) -> LabelTest:
    """Turn a leaf predicate into a concrete label test."""
    if isinstance(pred, LabelEquals):
        wanted = pred.label
        return lambda label: label == wanted
    if isinstance(pred, AnyLabel):
        return lambda label: True
    if isinstance(pred, LabelPredicate):
        fn = registry.lookup(pred.name)
        return lambda label: bool(fn(Atom.string(label)))
    raise TypeError(f"not a label predicate: {pred!r}")


class PathEvaluator:
    """Evaluates one compiled path expression over one graph.

    Construct once per (expression, graph, registry) and reuse: label
    tests are memoized per distinct label, which matters on graphs with
    many edges but few labels (the common case for site graphs).

    The searches read ``graph`` only through ``out_edges``, ``in_edges``
    and ``nodes``, so the query stage passes its
    :class:`~repro.struql.plan.ExecutionContext`, which records each read.
    """

    def __init__(self, expr: RegularPath, registry: PredicateRegistry) -> None:
        self.automaton = compile_path(expr)
        self._reversed: PathAutomaton | None = None
        self._registry = registry
        self._tests: dict[int, LabelTest] = {}
        self._label_cache: dict[tuple[int, str], bool] = {}

    def _test(self, pred: LabelPred, label: str) -> bool:
        key = (id(pred), label)
        cached = self._label_cache.get(key)
        if cached is None:
            test = self._tests.get(id(pred))
            if test is None:
                test = make_label_test(pred, self._registry)
                self._tests[id(pred)] = test
            cached = test(label)
            self._label_cache[key] = cached
        return cached

    # -- directed evaluations ------------------------------------------------

    def forward(self, graph: Graph, source: GraphObject
                ) -> set[GraphObject]:
        """All objects ``y`` with a matching path ``source -> ... -> y``."""
        return self._search(graph, source, self.automaton, forward=True)

    def backward(self, graph: Graph, target: GraphObject
                 ) -> set[GraphObject]:
        """All nodes ``x`` with a matching path ``x -> ... -> target``."""
        if self._reversed is None:
            self._reversed = self.automaton.reversed()
        return self._search(graph, target, self._reversed, forward=False)

    def pairs(self, graph: Graph) -> set[tuple[GraphObject, GraphObject]]:
        """All matching ``(x, y)`` pairs in the graph."""
        out: set[tuple[GraphObject, GraphObject]] = set()
        for node in graph.nodes():
            for target in self.forward(graph, node):
                out.add((node, target))
        return out

    def connects(self, graph: Graph, source: GraphObject,
                 target: GraphObject) -> bool:
        """Whether a matching path connects ``source`` to ``target``."""
        return target in self.forward(graph, source)

    # -- product search ----------------------------------------------------------

    def _search(self, graph: Graph, origin: GraphObject,
                automaton: PathAutomaton, forward: bool) -> set[GraphObject]:
        results: set[GraphObject] = set()
        start_states = automaton.epsilon_closure([automaton.start])
        if automaton.accept in start_states:
            results.add(origin)
        seen: set[tuple[GraphObject, int]] = {
            (origin, s) for s in start_states}
        queue: deque[tuple[GraphObject, int]] = deque(seen)
        while queue:
            obj, state = queue.popleft()
            edges = (graph.out_edges(obj) if forward and isinstance(obj, Oid)
                     else graph.in_edges(obj) if not forward
                     else ())
            transitions = automaton.transitions.get(state, ())
            if not transitions:
                continue
            for edge in edges:
                neighbour = edge.target if forward else edge.source
                for pred, next_state in transitions:
                    if not self._test(pred, edge.label):
                        continue
                    for closed in automaton.epsilon_closure([next_state]):
                        key = (neighbour, closed)
                        if key in seen:
                            continue
                        seen.add(key)
                        if closed == automaton.accept:
                            results.add(neighbour)
                        queue.append(key)
        return results

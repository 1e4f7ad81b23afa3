"""Property-based tests (hypothesis) for the core invariants.

* atom coercion: equality is symmetric, hash-consistent, and agrees
  with three-way compare;
* graph model: edge-set semantics, import idempotence;
* serialization and DDL: lossless round trips on random graphs;
* regular paths: the product-automaton evaluation agrees with a
  reference implementation (Python ``re`` over enumerated label paths);
* Skolem identity: determinism and injectivity per function;
* optimizers: all three orderings compute the same binding relation;
* incremental evaluation: dynamic page views equal materialized pages
  on random data graphs.
"""

from __future__ import annotations

import re
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.ddl import parse_ddl, write_ddl
from repro.graph import Atom, Graph, Oid, graph_from_json, graph_to_json
from repro.graph.values import compare
from repro.errors import CoercionError
from repro.site import DynamicSite
from repro.struql import (
    LabelEquals,
    PathEvaluator,
    QueryEngine,
    RAlt,
    RConcat,
    RLabel,
    RStar,
    default_registry,
)
from repro.struql.skolem import SkolemRegistry

# --------------------------------------------------------------------------
# Strategies

_names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=4)

_atoms = st.one_of(
    st.integers(-50, 50).map(Atom.int),
    st.floats(-50, 50, allow_nan=False).map(Atom.float),
    st.booleans().map(Atom.bool),
    _names.map(Atom.string),
    st.integers(0, 30).map(lambda n: Atom.string(str(n))),
)


@st.composite
def graphs(draw, max_nodes: int = 8, max_edges: int = 16,
           labels: tuple[str, ...] = ("a", "b", "c")) -> Graph:
    node_count = draw(st.integers(1, max_nodes))
    nodes = [Oid(f"n{i}") for i in range(node_count)]
    graph = Graph("G")
    for node in nodes:
        graph.add_node(node)
    edge_count = draw(st.integers(0, max_edges))
    for _ in range(edge_count):
        source = draw(st.sampled_from(nodes))
        label = draw(st.sampled_from(labels))
        target_is_atom = draw(st.booleans())
        if target_is_atom:
            graph.add_edge(source, label, draw(_atoms))
        else:
            graph.add_edge(source, label, draw(st.sampled_from(nodes)))
    member_count = draw(st.integers(0, node_count))
    for node in nodes[:member_count]:
        graph.add_to_collection("C", node)
    graph.declare_collection("C")
    return graph


@st.composite
def path_exprs(draw, depth: int = 3):
    if depth == 0:
        return RLabel(LabelEquals(draw(st.sampled_from("abc"))))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return RLabel(LabelEquals(draw(st.sampled_from("abc"))))
    if kind == 1:
        return RConcat((draw(path_exprs(depth=depth - 1)),
                        draw(path_exprs(depth=depth - 1))))
    if kind == 2:
        return RAlt((draw(path_exprs(depth=depth - 1)),
                     draw(path_exprs(depth=depth - 1))))
    return RStar(draw(path_exprs(depth=depth - 1)))


# --------------------------------------------------------------------------
# Atom coercion


class TestAtomProperties:
    @given(_atoms, _atoms)
    def test_equality_symmetric(self, a, b):
        assert (a == b) == (b == a)

    @given(_atoms, _atoms)
    def test_equal_implies_hash_equal(self, a, b):
        if a == b:
            assert hash(a) == hash(b)

    @given(_atoms)
    def test_reflexive(self, a):
        assert a == a
        assert compare(a, a) == 0

    @given(_atoms, _atoms)
    def test_compare_consistent_with_eq(self, a, b):
        try:
            result = compare(a, b)
        except CoercionError:
            assert a != b
            return
        assert (result == 0) == (a == b)
        assert result == -compare(b, a)


#: Texts that sit on the numeric/string boundary of atom coercion.
_edge_texts = st.sampled_from(
    ["3", " 3 ", "3.0", "-0", "1e3", "1_000", "nan", " NaN ", "inf",
     "-inf", "0x10", "True", ""])

_numeric_texts = st.one_of(
    st.integers().map(str),
    st.floats().map(str),
    st.integers(-50, 50).map(lambda n: f" {n} "),
    _edge_texts,
)

#: Every kind of atom whose hash depends on coercion: numbers, numeric
#: and plain strings, and URLs (string-like, never numeric).
_hashed_atoms = st.one_of(
    st.integers().map(Atom.int),
    st.floats().map(Atom.float),
    st.booleans().map(Atom.bool),
    _numeric_texts.map(Atom.string),
    st.text(max_size=4).map(Atom.string),
    st.one_of(_numeric_texts, st.text(max_size=4)).map(Atom.url),
)


class TestAtomHashCache:
    @given(_hashed_atoms, _hashed_atoms, st.sampled_from(
        ["none", "a", "b", "both"]))
    def test_equal_implies_hash_equal_around_caching(self, a, b, hashed):
        # Fresh copies, so no hash is cached before the chosen ones.
        a, b = Atom(a.type, a.value), Atom(b.type, b.value)
        equal = a == b
        if hashed in ("a", "both"):
            hash(a)
        if hashed in ("b", "both"):
            hash(b)
        assert (a == b) == equal
        if equal:
            assert hash(a) == hash(b)
        assert hash(a) == hash(Atom(a.type, a.value))
        assert hash(b) == hash(Atom(b.type, b.value))

    @given(_hashed_atoms)
    def test_stays_immutable_after_hashing(self, atom):
        hash(atom)
        for name in ("type", "value", "_hash"):
            with pytest.raises(AttributeError):
                setattr(atom, name, None)


# --------------------------------------------------------------------------
# Graph model and round trips


class TestGraphProperties:
    @given(graphs())
    def test_edge_count_equals_distinct_edges(self, graph):
        assert graph.edge_count == len(set(graph.edges()))

    @given(graphs())
    def test_import_is_idempotent(self, graph):
        target = Graph("copy")
        target.import_graph(graph)
        once = (target.node_count, target.edge_count)
        target.import_graph(graph)
        assert (target.node_count, target.edge_count) == once

    @given(graphs())
    def test_json_roundtrip(self, graph):
        back = graph_from_json(graph_to_json(graph))
        assert set(back.edges()) == set(graph.edges())
        assert back.node_count == graph.node_count
        assert back.collection_names() == graph.collection_names()
        for name in graph.collection_names():
            assert list(back.collection(name)) == \
                list(graph.collection(name))

    @given(graphs())
    @settings(max_examples=30)
    def test_ddl_roundtrip_preserves_structure(self, graph):
        back = parse_ddl(write_ddl(graph))
        assert back.node_count == graph.node_count
        assert back.edge_count == graph.edge_count


# --------------------------------------------------------------------------
# Regular paths vs a reference implementation


def _to_regex(expr) -> str:
    if isinstance(expr, RLabel):
        assert isinstance(expr.pred, LabelEquals)
        return re.escape(expr.pred.label)
    if isinstance(expr, RConcat):
        return "".join(f"(?:{_to_regex(p)})" for p in expr.parts)
    if isinstance(expr, RAlt):
        return "|".join(f"(?:{_to_regex(o)})" for o in expr.options)
    if isinstance(expr, RStar):
        return f"(?:{_to_regex(expr.inner)})*"
    raise TypeError(expr)


def _reference_forward(graph: Graph, start, regex: str,
                       max_length: int = 6) -> set:
    """Enumerate label paths up to a bound and match with ``re``."""
    pattern = re.compile(f"^(?:{regex})$")
    hits = set()
    if pattern.match(""):
        hits.add(start)
    frontier = [(start, "")]
    for _ in range(max_length):
        next_frontier = []
        for obj, word in frontier:
            if not isinstance(obj, Oid):
                continue
            for edge in graph.out_edges(obj):
                extended = word + edge.label
                if pattern.match(extended):
                    hits.add(edge.target)
                next_frontier.append((edge.target, extended))
        frontier = next_frontier
    return hits


class TestPathProperties:
    @given(graphs(max_nodes=5, max_edges=8), path_exprs())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_short_paths(self, graph, expr):
        """Product-automaton results agree with regex matching over
        enumerated paths (bounded; the automaton may also find longer
        matches, so we check the reference is a subset and that every
        automaton hit has *some* matching path)."""
        evaluator = PathEvaluator(expr, default_registry())
        start = next(iter(graph.nodes()))
        mine = evaluator.forward(graph, start)
        reference = _reference_forward(graph, start, _to_regex(expr))
        assert reference <= mine

    @given(graphs(max_nodes=5, max_edges=8), path_exprs())
    @settings(max_examples=40, deadline=None)
    def test_backward_is_converse(self, graph, expr):
        evaluator = PathEvaluator(expr, default_registry())
        pairs = evaluator.pairs(graph)
        for source, target in pairs:
            assert source in evaluator.backward(graph, target)


# --------------------------------------------------------------------------
# Skolem identity


class TestSkolemProperties:
    @given(st.lists(_atoms, max_size=3), st.lists(_atoms, max_size=3))
    def test_identity_iff_equal_args(self, args1, args2):
        registry = SkolemRegistry()
        one = registry.apply("F", args1)
        two = registry.apply("F", args2)
        if tuple(args1) == tuple(args2):
            assert one == two
        if one == two:
            # same oid -> coercion-equal argument tuples
            assert len(args1) == len(args2)

    @given(st.lists(_atoms, max_size=3))
    def test_deterministic_across_registries(self, args):
        assert SkolemRegistry().apply("F", args) == \
            SkolemRegistry().apply("F", args)

    @given(st.lists(_atoms, min_size=1, max_size=3))
    def test_different_functions_never_collide(self, args):
        registry = SkolemRegistry()
        assert registry.apply("F", args) != registry.apply("G", args)


# --------------------------------------------------------------------------
# Optimizer equivalence and incremental agreement on random data

COPY_QUERY = """
input G
where C(x), x -> l -> v
create Page(x)
link Page(x) -> l -> v
collect Pages(Page(x))
output O
"""

LINKED_QUERY = """
input G
create Root()
{ where C(x)
  create Page(x)
  link Root() -> "item" -> Page(x)
  { where x -> "a" -> y
    link Page(x) -> "A" -> y }
}
output O
"""


class TestEngineProperties:
    @given(graphs())
    @settings(max_examples=30, deadline=None)
    def test_optimizers_agree(self, graph):
        outputs = []
        for optimizer in ("naive", "heuristic", "cost"):
            out = QueryEngine(optimizer=optimizer).evaluate(
                COPY_QUERY, graph).output
            outputs.append((out.node_count, frozenset(out.edges())))
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("indexing", [True, False])
    @pytest.mark.parametrize("optimizer", ["naive", "heuristic", "cost"])
    def test_optimizers_agree_on_string_bound_edge_targets(
            self, optimizer, indexing):
        """An edge step whose target is bound to a label (a ``str``)
        finds the string atom equal to it, by index or by scan."""
        graph = Graph("G")
        graph.add_edge(Oid("a"), "title", Atom.string("T"))
        graph.add_edge(Oid("c"), "see", Atom.string("title"))
        out = QueryEngine(optimizer=optimizer, indexing=indexing).evaluate(
            """input G
               where a -> l -> v, z -> m -> l, m = "see"
               create F(z)
               output O""", graph).output
        assert list(out.nodes()) == [Oid.skolem("F", (Oid("c"),))]

    @pytest.mark.parametrize("indexing", [True, False])
    @pytest.mark.parametrize("optimizer", ["naive", "heuristic", "cost"])
    def test_optimizers_agree_on_coercing_atom_targets(
            self, optimizer, indexing):
        """Coercing equality is not transitive: ``" 3 "`` equals ``3``
        and ``3`` equals ``"3"``, but ``" 3 "`` does not equal ``"3"``.
        A join on ``"3"`` finds ``3`` and ``"3"``, by index or by
        scan."""
        graph = Graph("G")
        graph.add_edge(Oid("a"), "x", Atom.int(3))
        graph.add_edge(Oid("b"), "x", Atom.string(" 3 "))
        graph.add_edge(Oid("c"), "x", Atom.string("3"))
        graph.add_edge(Oid("q"), "want", Atom.string("3"))
        out = QueryEngine(optimizer=optimizer, indexing=indexing).evaluate(
            """input G
               where q -> "want" -> v, p -> "x" -> v
               create N(p)
               output O""", graph).output
        assert sorted(str(node) for node in out.nodes()) == \
            ["N(a)", "N(c)"]

    @given(graphs())
    @settings(max_examples=30, deadline=None)
    def test_indexing_does_not_change_results(self, graph):
        with_index = QueryEngine(indexing=True).evaluate(
            COPY_QUERY, graph).output
        without = QueryEngine(indexing=False).evaluate(
            COPY_QUERY, graph).output
        assert frozenset(with_index.edges()) == frozenset(without.edges())

    @given(graphs())
    @settings(max_examples=25, deadline=None)
    def test_dynamic_pages_equal_materialized(self, graph):
        materialized = QueryEngine().evaluate(LINKED_QUERY, graph).output
        dynamic = DynamicSite(LINKED_QUERY, graph)
        for node in materialized.nodes():
            if node.skolem_fn is None:
                continue
            view = dynamic.get_page(node)
            expected = {(e.label, e.target)
                        for e in materialized.out_edges(node)}
            assert set(view.edges) == expected

    @given(graphs())
    @settings(max_examples=25, deadline=None)
    def test_copy_query_preserves_attribute_multiset(self, graph):
        out = QueryEngine().evaluate(COPY_QUERY, graph).output
        for member in graph.collection("C"):
            if not isinstance(member, Oid):
                continue
            page = Oid.skolem("Page", (member,))
            if not out.has_node(page):
                assert not graph.out_edges(member)
                continue
            original = {(e.label, e.target if not isinstance(e.target, Oid)
                         else e.target)
                        for e in graph.out_edges(member)}
            copied = {(e.label, e.target)
                      for e in out.out_edges(page)}
            assert len(copied) == len(original)


# --------------------------------------------------------------------------
# Aggregation and site-diff properties

AGG_QUERY = """
input G
where C(x), x -> "a" -> v, count(v) per x as n
create F(x)
link F(x) -> "n" -> n
collect All(F(x))
output O
"""


class TestAggregateProperties:
    @given(graphs(labels=("a", "b")))
    @settings(max_examples=30, deadline=None)
    def test_count_matches_direct_computation(self, graph):
        out = QueryEngine().evaluate(AGG_QUERY, graph).output
        for member in graph.collection("C"):
            if not isinstance(member, Oid):
                continue
            distinct = {
                (str(t.type), str(t.value)) if not isinstance(t, Oid)
                else t
                for t in graph.get(member, "a")}
            page = Oid.skolem("F", (member,))
            if not distinct:
                assert not out.has_node(page)
                continue
            counted = out.get_one(page, "n")
            assert counted is not None
            assert counted.value == len(distinct)

    @given(graphs(labels=("a", "b")))
    @settings(max_examples=20, deadline=None)
    def test_aggregate_stable_across_optimizers(self, graph):
        results = []
        for optimizer in ("naive", "heuristic", "cost"):
            out = QueryEngine(optimizer=optimizer).evaluate(
                AGG_QUERY, graph).output
            results.append(frozenset(out.edges()))
        assert results[0] == results[1] == results[2]


class TestDiffProperties:
    @given(graphs(), graphs())
    @settings(max_examples=30, deadline=None)
    def test_diff_is_exact(self, old, new):
        from repro.site import diff_graphs
        diff = diff_graphs(old, new)
        assert diff.added_edges == set(new.edges()) - set(old.edges())
        assert diff.removed_edges == set(old.edges()) - set(new.edges())
        assert diff.added_nodes == set(new.nodes()) - set(old.nodes())

    @given(graphs())
    @settings(max_examples=30, deadline=None)
    def test_self_diff_empty(self, graph):
        from repro.site import diff_graphs
        assert diff_graphs(graph, graph.copy()).empty


class TestTemplateRobustness:
    """Rendering never crashes on arbitrary site graphs."""

    TEMPLATE = ('<SIF @a><SFMT @a></SIF>'
                '<SFOR v @b DELIM=", "><SFMT @v></SFOR>'
                '<SFMTLIST @c ORDER=ascend WRAP=UL>')

    @given(graphs(labels=("a", "b", "c")))
    @settings(max_examples=40, deadline=None)
    def test_render_total(self, graph):
        from repro.templates import HtmlGenerator, TemplateSet
        templates = TemplateSet()
        for node in graph.nodes():
            templates.add(node.name, self.TEMPLATE)
        generator = HtmlGenerator(graph, templates)
        for node in graph.nodes():
            html = generator.render(node)
            assert isinstance(html, str)

    @given(graph=graphs(labels=("a", "b", "c")))
    @settings(max_examples=25, deadline=None)
    def test_generated_files_parse_as_text(self, tmp_path_factory, graph):
        from repro.templates import HtmlGenerator, TemplateSet
        templates = TemplateSet()
        for node in graph.nodes():
            templates.add(node.name, self.TEMPLATE)
        generator = HtmlGenerator(graph, templates)
        out = tmp_path_factory.mktemp("site")
        written = generator.generate_site(str(out))
        assert len(written) == graph.node_count

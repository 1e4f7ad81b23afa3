"""Direct unit tests for internal machinery: errors, skolem registry,
predicates, construction, plan operators, engine diagnostics."""

import pytest

from repro.errors import (
    AccessPatternError,
    ConstraintViolation,
    DDLError,
    MissingTemplateError,
    PageNotFoundError,
    StruQLSyntaxError,
    StrudelError,
    TemplateSyntaxError,
    UnboundVariableError,
    UnknownCollectionError,
    UnknownGraphError,
    UnknownObjectError,
    UnknownPredicateError,
)
from repro.graph import Atom, Graph, Oid
from repro.struql import (
    ExecutionContext,
    Plan,
    QueryEngine,
    SkolemRegistry,
    default_registry,
    parse_query,
)
from repro.struql.construction import GraphBuilder
from repro.struql.ast import (
    Block,
    CollectSpec,
    Const,
    LinkSpec,
    SkolemTerm,
    Var,
)
from repro.struql.plan import make_op


class TestErrors:
    def test_all_derive_from_strudel_error(self):
        for exc in (DDLError("x"), UnknownGraphError("g"),
                    UnknownCollectionError("c"), UnknownObjectError("o"),
                    UnknownPredicateError("p"), UnboundVariableError("v"),
                    StruQLSyntaxError("s"), TemplateSyntaxError("t"),
                    MissingTemplateError(Oid("n")),
                    PageNotFoundError(Oid("n")),
                    AccessPatternError("a"),
                    ConstraintViolation("c", ["w"])):
            assert isinstance(exc, StrudelError)

    def test_positions_in_messages(self):
        assert "(line 3)" in str(DDLError("bad", line=3))
        assert "line 2, column 5" in str(StruQLSyntaxError("bad", 2, 5))

    def test_constraint_violation_truncates_witnesses(self):
        violation = ConstraintViolation("c", [f"w{i}" for i in range(9)])
        assert "+4 more" in str(violation)
        assert violation.witnesses[8] == "w8"

    def test_payload_attributes(self):
        assert UnknownPredicateError("frob").name == "frob"
        assert UnknownGraphError("g").name == "g"
        assert PageNotFoundError(Oid("p")).oid == Oid("p")


class TestSkolemRegistry:
    def test_bookkeeping(self):
        registry = SkolemRegistry()
        a = registry.apply("F", [Atom.int(1)])
        b = registry.apply("F", [Atom.int(2)])
        registry.apply("G", [])
        assert registry.functions() == ["F", "G"]
        assert registry.created_by("F") == [a, b]
        assert len(registry) == 3
        assert registry.all_created() == {a, b, registry.apply("G", [])}
        assert "F" in repr(registry)

    def test_unknown_function_empty(self):
        assert SkolemRegistry().created_by("nope") == []

    def test_coercion_equal_args_share_one_oid(self):
        registry = SkolemRegistry()
        oid = registry.apply("F", [Atom.int(3)])
        assert registry.apply("F", [Atom.string("3")]) is oid
        assert registry.apply("F", [Atom.float(3.0)]) is oid
        assert len(registry) == 1

    def test_memo_keys_on_canonical_args(self):
        # Equal as atoms, yet only the string canonicalizes to 3.
        assert Atom.url(" 3 ") == Atom.string(" 3 ")
        registry = SkolemRegistry()
        url = registry.apply("F", [Atom.url(" 3 ")])
        string = registry.apply("F", [Atom.string(" 3 ")])
        assert url != string
        assert string is registry.apply("F", [Atom.int(3)])
        assert len(registry) == 2

    def test_repeat_applications_mint_and_record_once(self, monkeypatch):
        from repro.obs.lineage import LineageIndex, lineage_recording
        index = LineageIndex()
        recorded = []
        record_node = index.record_node
        monkeypatch.setattr(index, "record_node", lambda oid, fn, args: (
            recorded.append(oid), record_node(oid, fn, args)))
        registry = SkolemRegistry()
        with lineage_recording(index):
            for _ in range(3):
                a = registry.apply("F", [Atom.int(1)])
                b = registry.apply("F", ["x"])
                root = registry.apply("Root", ())
        assert len(registry) == 3
        assert recorded == [a, b, root]


class TestPredicateRegistry:
    def test_copy_is_independent(self):
        base = default_registry()
        clone = base.copy()
        clone.register("mine", lambda v: True)
        assert clone.has("mine") and not base.has("mine")

    def test_case_insensitive(self):
        registry = default_registry()
        assert registry.has("ISPOSTSCRIPT")
        assert registry.lookup("ispostscript")(Atom.file("a.ps"))

    def test_names_sorted(self):
        names = default_registry().names()
        assert names == sorted(names)

    def test_is_name_predicate(self):
        fn = default_registry().lookup("isName")
        assert fn(Atom.string("valid_name"))
        assert fn("bare-string")
        assert not fn(Atom.string("3starts-with-digit"))
        assert not fn(Atom.string(""))
        assert not fn(Atom.int(3))


class TestGraphBuilder:
    def make(self):
        data = Graph("in")
        data.add_node(Oid("d"))
        output = Graph("out")
        return GraphBuilder(output, data, SkolemRegistry()), data, output

    F_X = SkolemTerm("F", (Var("x"),))

    def test_resolve_const_var_skolem(self):
        builder, _, output = self.make()
        row = {"x": Oid("d"), "l": "label"}
        block = Block(creates=[self.F_X], links=[
            LinkSpec(self.F_X, Const(Atom.string("c")), Const(Atom.int(3))),
            LinkSpec(self.F_X, Const(Atom.string("v")), Var("x")),
            LinkSpec(self.F_X, Const(Atom.string("s")),
                     SkolemTerm("G", (Var("x"), Const(Atom.int(1))))),
        ])
        builder.apply_block_row(block, row)
        f = Oid.skolem("F", (Oid("d"),))
        g = Oid.skolem("G", (Oid("d"), Atom.int(1)))
        assert output.has_node(f)
        assert output.get(f, "c") == [Atom.int(3)]
        assert output.get(f, "v") == [Oid("d")]
        assert output.get(f, "s") == [g]

    def test_unbound_variable_raises(self):
        from repro.errors import StruQLSemanticError
        builder, _, _ = self.make()
        block = Block(creates=[SkolemTerm("F", ())], links=[
            LinkSpec(SkolemTerm("F", ()), Const(Atom.string("a")),
                     Var("missing"))])
        with pytest.raises(StruQLSemanticError, match="missing"):
            builder.apply_block_row(block, {})

    def test_link_label_from_arc_variable(self):
        builder, _, output = self.make()
        row = {"x": Oid("d"), "l": "attr"}
        block = Block(creates=[self.F_X],
                      links=[LinkSpec(self.F_X, Var("l"), Var("x"))])
        builder.apply_block_row(block, row)
        f = Oid.skolem("F", (Oid("d"),))
        assert output.has_edge(f, "attr", Oid("d"))

    def test_link_label_must_be_labelable(self):
        from repro.errors import StruQLSemanticError
        builder, _, _ = self.make()
        row = {"x": Oid("d"), "l": Oid("d")}  # an oid can't be a label
        block = Block(creates=[self.F_X],
                      links=[LinkSpec(self.F_X, Var("l"), Var("x"))])
        with pytest.raises(StruQLSemanticError, match="label"):
            builder.apply_block_row(block, row)

    def test_collect_string_becomes_atom(self):
        builder, _, output = self.make()
        block = Block(collects=[CollectSpec("Labels", Var("l"))])
        builder.apply_block_row(block, {"l": "year"})
        assert output.collection("Labels") == [Atom.string("year")]

    def test_link_out_of_input_node_raises(self):
        from repro.errors import StruQLSemanticError
        # A composed query's input graph can hold an earlier query's
        # Skolem nodes; they are as immutable as any other input node.
        data = Graph("in")
        data.add_node(Oid.skolem("F", (Oid("d"),)))
        output = Graph("out")
        builder = GraphBuilder(output, data, SkolemRegistry())
        block = Block(links=[LinkSpec(self.F_X, Const(Atom.string("a")),
                                      Var("x"))])
        with pytest.raises(StruQLSemanticError, match="immutable"):
            builder.apply_block_row(block, {"x": Oid("d")})
        assert output.edge_count == 0


class TestPlanInternals:
    def test_plan_explain_lists_ops(self, fig2_graph):
        query = parse_query("""
            input BIBTEX
            where Publications(x), x -> "year" -> y, y > 1990
            create F(x)
            output O
        """)
        conditions = next(b for b in query.blocks()
                          if b.conditions).conditions
        plan = Plan.from_conditions(conditions)
        explained = plan.explain()
        assert "member/filter" in explained
        assert "compare" in explained
        assert len(plan) == 3
        assert "Plan(" in repr(plan)

    def test_empty_plan(self):
        plan = Plan([])
        assert plan.explain() == "(empty plan)"
        ctx = ExecutionContext(Graph("g"))
        assert plan.execute(ctx) == [{}]

    def test_ops_have_repr(self, fig2_graph):
        query = parse_query("""
            input BIBTEX
            where Publications(x), not(isPostScript(x)),
                  x -> * -> v, l in {"a"}
            create F(x)
            output O
        """)
        conditions = next(b for b in query.blocks()
                          if b.conditions).conditions
        for condition in conditions:
            op = make_op(condition)
            assert type(op).__name__ in repr(op)
            assert op.explain()

    @pytest.mark.parametrize("indexed", [True, False])
    def test_context_records_the_keys_of_its_reads(self, fig2_graph,
                                                    indexed):
        """Every operator read goes through the context, which adds its
        read key to ``reads``, with or without an index."""
        from repro.graph.model import EVERYTHING
        from repro.repository.indexes import GraphIndex
        index = GraphIndex.build(fig2_graph) if indexed else None
        pub1 = Oid("pub1")

        def reads_of(text: str, seed: dict | None = None) -> set:
            conditions = next(b for b in parse_query(
                f"input BIBTEX where {text} create F() output O"
            ).blocks() if b.conditions).conditions
            ctx = ExecutionContext(fig2_graph, index=index)
            ctx.reads = set()
            Plan.from_conditions(conditions).execute(ctx, [seed or {}])
            return ctx.reads

        assert reads_of('Publications(x), x -> "year" -> y') == {
            ("collection", "Publications"), ("out", pub1, "year"),
            ("out", Oid("pub2"), "year")}
        assert reads_of("x -> l -> y", {"x": pub1}) == {("out", pub1)}
        assert reads_of('x -> "year" -> y', {"y": Atom.int(1997)}) == {
            ("in", Atom.int(1997), "year")}
        assert reads_of('x -> "year" -> y') == {("label", "year")}
        assert reads_of("x -> l -> y") == {EVERYTHING}
        assert reads_of('x -> ("title" | "year") -> y', {"x": pub1}) \
            == {("out", pub1)}
        assert EVERYTHING in reads_of(
            'Publications(x), not(x -> l -> x)')

    def test_pipeline_short_circuits_on_empty(self, fig2_graph):
        ctx = ExecutionContext(fig2_graph)
        query = parse_query("""
            input BIBTEX
            where Publications(x), x -> "nope" -> v, v > 3
            create F(x)
            output O
        """)
        conditions = next(b for b in query.blocks()
                          if b.conditions).conditions
        plan = Plan.from_conditions(conditions)
        assert plan.execute(ctx) == []


class TestEngineDiagnostics:
    def test_result_explain_contains_plans(self, fig2_graph, fig3_query):
        result = QueryEngine().evaluate(fig3_query, fig2_graph)
        text = result.explain()
        assert "block" in text and "rows" in text
        assert "(no conditions)" in text  # the top block
        assert "edge-step" in text or "member/filter" in text

    def test_traces_have_timing(self, fig2_graph, fig3_query):
        result = QueryEngine().evaluate(fig3_query, fig2_graph)
        assert all(t.seconds >= 0 for t in result.traces)
        assert any(t.label == "Q1" for t in result.traces)

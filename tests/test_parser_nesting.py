"""Deep nesting ends in each parser's own syntax error.

The DDL, StruQL and template parsers are recursive descent.  Past
``MAX_NESTING`` levels each raises its own classified error, with a
position, instead of letting ``RecursionError`` escape.  The XML and
JSON wrappers walk their documents recursively and raise
``WrapperError`` past the same limit.  A serialized graph too deep for
the JSON decoder, or cut short, is a ``GraphError``.
"""

import pytest

from repro.cli import main
from repro.ddl.parser import parse_ddl
from repro.errors import (
    DDLError,
    GraphError,
    StruQLSyntaxError,
    TemplateSyntaxError,
    WrapperError,
)
from repro.graph import Atom, Graph, Oid, graph_from_json, graph_to_json
from repro.lexutil import MAX_NESTING
from repro.struql.parser import parse_query
from repro.templates.parser import parse_template
from repro.wrappers.json_wrapper import JsonWrapper
from repro.wrappers.xml_wrapper import XmlWrapper


def _query(body: str) -> str:
    return f"INPUT DATA {body} OUTPUT SITE"


DEEP = {
    "template nested SIF": (
        lambda: parse_template(
            "t", "<SIF @a>" * 1200 + "x" + "</SIF>" * 1200),
        TemplateSyntaxError),
    "template unclosed SIF": (
        lambda: parse_template("t", "<SIF @a>" * 3000),
        TemplateSyntaxError),
    "template unclosed SFOR": (
        lambda: parse_template("t", "<SFOR x IN @a>" * 3000),
        TemplateSyntaxError),
    "template condition parentheses": (
        lambda: parse_template(
            "t", "<SIF " + "(" * 1000 + "@a" + ")" * 1000 + ">x</SIF>"),
        TemplateSyntaxError),
    "query nested blocks": (
        lambda: parse_query(_query(
            "{ WHERE C(x) CREATE F(x) " * 1000 + "}" * 1000)),
        StruQLSyntaxError),
    "query where chain": (
        lambda: parse_query(_query("".join(
            f"WHERE C(x{i}) CREATE F{i}(x{i}) " for i in range(1000)))),
        StruQLSyntaxError),
    "query path parentheses": (
        lambda: parse_query(_query(
            'WHERE C(x), x -> ' + "(" * 1000 + '"a"' + ")" * 1000
            + " -> y CREATE F(y)")),
        StruQLSyntaxError),
    "query nested not": (
        lambda: parse_query(_query(
            "WHERE C(x), " + "not(" * 1000 + "D(x)" + ")" * 1000
            + " CREATE F(x)")),
        StruQLSyntaxError),
    "ddl nested objects": (
        lambda: parse_ddl(
            "object o { a " + "{ a " * 1000 + "1" + " }" * 1000 + " }"),
        DDLError),
}


@pytest.mark.parametrize("case", sorted(DEEP))
def test_deep_nesting_is_a_syntax_error(case):
    parse, error = DEEP[case]
    with pytest.raises(error, match="deeper than") as info:
        parse()
    assert info.value.line == 1


def test_nesting_up_to_the_limit_parses():
    depth = MAX_NESTING
    template = parse_template(
        "t", "<SIF @a>" * depth + "x" + "</SIF>" * depth)
    assert len(template.nodes) == 1
    query = parse_query(_query(
        "{ WHERE C(x) CREATE F(x) " * depth + "}" * depth))
    assert len(list(query.blocks())) > depth
    graph = parse_ddl(
        "object o { a " + "{ a " * depth + "1" + " }" * depth + " }")
    assert len(list(graph.nodes())) == depth + 1


def _xml(depth: int) -> str:
    return "<a>" * depth + "</a>" * depth


def _json(depth: int) -> str:
    return '{"a": ' * depth + "1" + "}" * depth


DEEP_SOURCES = {
    # The stdlib parsers accept 10,000 XML levels but not 10,000 JSON
    # levels; 500 JSON levels parse and reach the wrapper's own walk.
    "xml nested elements": lambda: XmlWrapper().wrap(_xml(10_000)),
    "json nested objects": lambda: JsonWrapper().wrap(_json(10_000)),
    "json nested objects past the stdlib parser":
        lambda: JsonWrapper().wrap(_json(500)),
    "json nested arrays": lambda: JsonWrapper().wrap(
        '{"a": ' + "[" * 10_000 + "1" + "]" * 10_000 + "}"),
}


@pytest.mark.parametrize("case", sorted(DEEP_SOURCES))
def test_deep_source_is_a_wrapper_error(case):
    with pytest.raises(WrapperError, match=f"deeper than {MAX_NESTING}"):
        DEEP_SOURCES[case]()


def test_sources_up_to_the_limit_wrap():
    assert XmlWrapper().wrap(_xml(MAX_NESTING)).node_count == MAX_NESTING
    assert JsonWrapper().wrap(_json(MAX_NESTING)).node_count == MAX_NESTING


def test_cli_build_on_deep_xml_is_a_classified_error(tmp_path, capsys):
    (tmp_path / "deep.xml").write_text(_xml(3000))
    (tmp_path / "site.struql").write_text(
        "input XML where A(x) create P(x) output SITE")
    code = main(["build", "--data", str(tmp_path / "deep.xml"),
                 "--query", str(tmp_path / "site.struql"),
                 "--out", str(tmp_path / "www")])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err
    assert "Traceback" not in err


def _truncated_graph() -> str:
    graph = Graph("g")
    graph.add_edge(Oid("p"), "title", Atom.string("A"))
    text = graph_to_json(graph)
    return text[:len(text) // 2]


SERIALIZED_GRAPHS = {
    "graph json nested objects": _json(10_000),
    "graph json nested arrays": "[" * 10_000 + "]" * 10_000,
    "truncated graph json": _truncated_graph(),
}


@pytest.mark.parametrize("case", sorted(SERIALIZED_GRAPHS))
def test_malformed_serialized_graph_is_a_graph_error(case):
    with pytest.raises(GraphError, match="nested too deeply|malformed"):
        graph_from_json(SERIALIZED_GRAPHS[case])


@pytest.mark.parametrize("text", [_json(3000), _truncated_graph()],
                         ids=["deep", "truncated"])
def test_cli_build_on_bad_json_is_a_classified_error(tmp_path, capsys,
                                                     text):
    (tmp_path / "data.json").write_text(text)
    (tmp_path / "site.struql").write_text(
        "input G where A(x) create P(x) output SITE")
    code = main(["build", "--data", str(tmp_path / "data.json"),
                 "--query", str(tmp_path / "site.struql"),
                 "--out", str(tmp_path / "www")])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err
    assert "Traceback" not in err

"""Shared fixtures: the paper's running example and small graphs."""

from __future__ import annotations

import pytest

from repro.ddl import parse_ddl
from repro.graph import Atom, Graph, Oid
from repro.sites.homepage import FIG2_DDL, FIG3_QUERY
from repro.struql import QueryEngine, parse_query


@pytest.fixture
def fig2_graph() -> Graph:
    """The Fig 2 data graph (two publications)."""
    return parse_ddl(FIG2_DDL, "BIBTEX")


@pytest.fixture
def fig3_query():
    """The Fig 3 site-definition query, parsed."""
    return parse_query(FIG3_QUERY)


@pytest.fixture
def fig4_site(fig2_graph, fig3_query) -> Graph:
    """The Fig 4 site graph: Fig 3 applied to Fig 2."""
    return QueryEngine().evaluate(fig3_query, fig2_graph).output


@pytest.fixture
def tiny_graph() -> Graph:
    """root -sec-> a, b; a -pic-> img; b -next-> a; plus atoms."""
    graph = Graph("tiny")
    root, a, b, img = Oid("root"), Oid("a"), Oid("b"), Oid("img")
    graph.add_edge(root, "sec", a)
    graph.add_edge(root, "sec", b)
    graph.add_edge(a, "pic", img)
    graph.add_edge(img, "data", Atom.file("x.gif"))
    graph.add_edge(a, "txt", Atom.string("hello"))
    graph.add_edge(b, "next", a)
    graph.add_to_collection("Root", root)
    return graph


@pytest.fixture(params=["naive", "heuristic", "cost"])
def any_engine(request) -> QueryEngine:
    """A query engine for each optimizer generation."""
    return QueryEngine(optimizer=request.param)


@pytest.fixture
def fetch_log(monkeypatch):
    """An empty process-global fetch log, restored after the test."""
    from collections import OrderedDict

    from repro.obs import lineage
    monkeypatch.setattr(lineage, "_FETCHES", OrderedDict())

"""Form-driven dynamic pages: parameterized queries at click time."""

import pytest

from repro import obs
from repro.errors import SiteError, UnboundVariableError
from repro.graph import Atom, Oid
from repro.site import FormHandler, register_string_predicates
from repro.struql import QueryEngine, default_registry, parse_query
from repro.templates import TemplateSet

SEARCH_QUERY = """
input BIBTEX
{ where Publications(x), x -> "title" -> t, contains(t, kw)
  create Results(kw), Hit(kw, x)
  link Hit(kw, x) -> "title" -> t,
       Results(kw) -> "Hit" -> Hit(kw, x),
       Results(kw) -> "term" -> kw }
output SearchSite
"""


def search_templates() -> TemplateSet:
    templates = TemplateSet()
    templates.add("Results", """<HTML><BODY>
<H1>Results for "<SFMT @term>"</H1>
<SFMTLIST @Hit FORMAT=EMBED DELIM="<BR>">
</BODY></HTML>""")
    templates.add("Hit", "<SFMT @title>", as_page=False)
    return templates


@pytest.fixture
def handler(fig2_graph):
    return FormHandler(SEARCH_QUERY, fig2_graph, search_templates(),
                       result_fn="Results", params=("kw",))


class TestParameterizedQueries:
    def test_params_assumed_bound_at_parse(self):
        query = parse_query(SEARCH_QUERY, params=("kw",))
        assert query.params == ("kw",)

    def test_undeclared_param_fails_at_evaluation(self, fig2_graph):
        # Without the declaration the query still parses (kw is
        # mentioned in a condition), but no execution order can bind
        # it: the runtime reports the unbound variable.
        query = parse_query(SEARCH_QUERY)
        registry = default_registry()
        register_string_predicates(registry)
        with pytest.raises(UnboundVariableError):
            QueryEngine(predicates=registry).evaluate(query, fig2_graph)

    def test_evaluate_requires_initial(self, fig2_graph):
        registry = default_registry()
        register_string_predicates(registry)
        engine = QueryEngine(predicates=registry)
        query = parse_query(SEARCH_QUERY, params=("kw",))
        with pytest.raises(UnboundVariableError):
            engine.evaluate(query, fig2_graph)
        result = engine.evaluate(query, fig2_graph,
                                 initial={"kw": Atom.string("Regular")})
        page = Oid.skolem("Results", (Atom.string("Regular"),))
        assert result.output.has_node(page)


def add_publication(title):
    """A mutation for ``server.update`` adding one titled publication."""
    def mutate(data):
        pub = Oid("pub-added")
        data.add_to_collection("Publications", pub)
        data.add_edge(pub, "title", Atom.string(title))
    return mutate


class TestFormHandler:
    def test_submission_renders_matches(self, handler):
        response = handler.submit(kw="Regular")
        assert response.status == 200
        assert response.oid == Oid.skolem(
            "Results", (Atom.string("Regular"),))
        assert "Optimizing Regular Path Expressions" in response.body
        assert "Specifying" not in response.body

    def test_case_insensitive_contains(self, handler):
        response = handler.submit(kw="optimizing")
        assert "Optimizing" in response.body

    def test_distinct_params_distinct_pages(self, handler):
        one = handler.submit(kw="Regular")
        two = handler.submit(kw="Machine")
        assert one.oid != two.oid
        assert "Machine Instructions" in two.body

    def test_caching(self, handler):
        # The handler keeps no cache of its own: bodies are the
        # server's views, and a full server invalidation recomputes.
        views = handler.server.matviews
        first = handler.submit(kw="Regular")
        handler.server.invalidate()
        second = handler.submit(kw="Regular")
        assert second.body == first.body
        assert views.stats["misses"] == 2 and views.stats["hits"] == 0

    def test_repeat_submission_is_a_view_hit(self, handler):
        first = handler.submit(kw="Regular")
        second = handler.submit(kw="Regular")
        assert second.body == first.body and second.reads == first.reads
        assert handler.server.matviews.stats["hits"] == 1
        assert handler.server.matviews.stats["misses"] == 1

    def test_update_shows_in_next_submission(self, handler):
        before = handler.submit(kw="Specifying")
        assert "Everything Again" not in before.body
        handler.server.update(
            add_publication("Specifying Everything Again"))
        after = handler.submit(kw="Specifying")
        assert after.status == 200
        assert "Specifying Everything Again" in after.body
        assert "Specifying Representations" in after.body

    def test_no_matches_is_still_a_page_problem(self, handler):
        # No publication contains "zzz": the query creates no Results
        # page for it, so the submission is answered 404.
        with obs.recording() as rec:
            response = handler.submit(kw="zzz")
        assert response.status == 404
        counters = rec.metrics.as_dict()["counters"]
        assert {name: value for name, value in counters.items()
                if name.startswith("server.")} == {
            'server.errors{kind="not_found"}': 1, "server.requests": 1}

    def test_submission_is_recorded_as_a_server_request(self, handler):
        with obs.recording() as rec:
            handler.submit(kw="Regular")
            handler.submit(kw="Regular")
        assert [r.name for r in rec.roots] == ["server.request"] * 2
        assert rec.metrics.counter("server.requests").value == 2
        assert not any(name.startswith("forms.")
                       for kind in rec.metrics.as_dict().values()
                       for name in kind)

    def test_body_views_stay_bounded(self, handler, fig2_graph):
        handler.server.matviews.max_views = 8
        titles = [str(fig2_graph.get_one(pub, "title").value)
                  for pub in fig2_graph.collection("Publications")]
        keywords = sorted({title[i:j] for title in titles
                           for i in range(len(title))
                           for j in range(i + 3, len(title) + 1)
                           if title[i:j] == title[i:j].strip()})[:50]
        assert len(keywords) == 50
        for keyword in keywords:
            assert handler.submit(kw=keyword).status == 200
        assert len(handler.server.matviews) <= 8
        assert handler.server.matviews.stats["evictions"] >= 42

    def test_missing_and_extra_params(self, handler):
        with pytest.raises(SiteError):
            handler.submit()
        with pytest.raises(SiteError):
            handler.submit(kw="x", other="y")

    def test_query_without_params_rejected(self, fig2_graph):
        with pytest.raises(SiteError):
            FormHandler("""
                input BIBTEX
                where Publications(x)
                create P(x)
                output O
            """, fig2_graph, search_templates(), result_fn="P")

    def test_unseedable_query_rejected(self, fig2_graph):
        # Hit(x) is minted by a block that reads kw, but a click-time
        # Hit page is computed from x alone: one page for every keyword.
        with pytest.raises(SiteError, match=r"'kw'.*Hit\(x\)"):
            FormHandler("""
                input BIBTEX
                { where Publications(x), x -> "title" -> t,
                        contains(t, kw)
                  create Results(kw), Hit(x)
                  link Hit(x) -> "title" -> t,
                       Results(kw) -> "Hit" -> Hit(x) }
                output SearchSite
            """, fig2_graph, search_templates(), result_fn="Results",
                params=("kw",))

    def test_string_predicates(self):
        registry = default_registry()
        register_string_predicates(registry)
        assert registry.lookup("startsWith")(Atom.string("Hello"), "he")
        assert registry.lookup("endsWith")(Atom.string("Hello"), "LO")
        assert registry.lookup("iequals")(Atom.string("AbC"), "aBc")
        assert not registry.lookup("contains")(Atom.string("x"), "y")

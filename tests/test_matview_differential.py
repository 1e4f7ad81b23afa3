"""Differential-correctness harness for the materialized-view layer.

The oracle is the paper's own definition: a site *is* its query's
result, so after any sequence of mutations the warm, view-serving
server must agree with a fresh, uncached evaluation.  Two layers pin
that down:

* **byte layer** — every page body must be byte-identical to what a
  brand-new (cold, cache-free) serving stack over the same data
  produces.  Any view that survived an invalidation it shouldn't, any
  single-flight race that cached a pre-change body, any binding cache
  one label too sticky diverges here.
* **edge layer** — every page's outgoing edges must equal, as a
  multiset, the page's edges in a full ``QueryEngine`` evaluation of
  the site query.  This is the paper's semantic definition of the
  site.  It is deliberately order-insensitive: ``SFMTLIST`` without
  ``ORDER`` renders in evaluation-enumeration order, and the seeded
  click-time plan may enumerate the same result in a different order
  than the cold full build — same site, different byte order — so
  byte-identity *across* evaluation strategies is not the invariant;
  set-identity is.

The harness applies hundreds of random additive mutations (the graph
model is additive by design), describes each with a
:class:`~repro.struql.matview.ChangeSummary`, invalidates selectively,
and re-compares **every page**.

Randomness is stdlib ``random`` with pinned seeds (no hypothesis
dependency): every run, locally and in CI, replays the same mutation
scripts.  ``MATVIEW_DIFF_ROUNDS`` scales the round count.
"""

import os
import random
import threading

import pytest

from repro.graph import Atom, Graph, Oid
from repro.site import DynamicSiteServer
from repro.sites.homepage import FIG3_QUERY, fig2_data, fig7_templates
from repro.struql import QueryEngine
from repro.struql.matview import ChangeSummary
from repro.templates import HtmlGenerator, TemplateSet

#: Total randomized mutation rounds across all seeds (acceptance floor
#: is 200).  Override with MATVIEW_DIFF_ROUNDS to go deeper.
ROUNDS = int(os.environ.get("MATVIEW_DIFF_ROUNDS", "220"))

#: Pinned seeds; each seed runs its share of ROUNDS.
SEEDS = (0xA11CE, 0xB0B)

#: Value pools kept small so the page count stays bounded while the
#: mutation space stays interesting.
YEARS = list(range(1995, 2004))
CATEGORIES = ["Semistructured Data", "Query Optimization", "Compilers",
              "Networking", "Databases", "Information Retrieval"]
EXTRA_LABELS = ["note", "keyword", "doi", "award"]

#: Rounds that may add a whole new publication (caps page growth).
NEW_PUB_ROUNDS = 40


def oracle_pages(data: Graph, query: str = FIG3_QUERY,
                 templates=None):
    """Fresh full evaluation: the edge-layer oracle's generator."""
    site = QueryEngine().evaluate(query, data).output
    return HtmlGenerator(site, templates or fig7_templates())


def _edge_multiset(graph, page: Oid):
    return sorted((edge.label, str(edge.target))
                  for edge in graph.out_edges(page))


def assert_server_matches_oracle(server: DynamicSiteServer,
                                 data: Graph, context: str, *,
                                 query: str = FIG3_QUERY,
                                 templates_factory=fig7_templates) -> None:
    """Every page, two layers: view-served body byte-identical to a
    cold serving stack, and page edges set-identical to a full
    evaluation.  Each page is requested twice so the view-hit path is
    exercised too."""
    site = QueryEngine().evaluate(query, data).output
    oracle = HtmlGenerator(site, templates_factory())
    pages = oracle.pages()
    assert pages, "oracle produced no pages"
    cold = DynamicSiteServer(query, data, templates_factory())
    for page in pages:
        expected = cold.request(page)
        assert expected.status == 200, \
            f"{context}: cold {page} -> {expected.status}"
        first = server.request(page)
        assert first.status == 200, f"{context}: {page} -> {first.status}"
        assert first.body == expected.body, f"{context}: stale {page}"
        again = server.request(page)
        assert again.body == expected.body, \
            f"{context}: hit diverged {page}"
        assert _edge_multiset(server.graph, page) == \
            _edge_multiset(site, page), f"{context}: edges diverged {page}"


class Mutator:
    """Random additive mutations with their accurate change summaries."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.pub_count = 0

    def existing_pub(self, data: Graph) -> Oid:
        return self.rng.choice(list(data.collection("Publications")))

    def mutate(self, data: Graph, round_no: int) -> ChangeSummary:
        choices = ["attribute", "year", "category"]
        if round_no < NEW_PUB_ROUNDS:
            choices.append("new_pub")
        kind = self.rng.choice(choices)
        if kind == "attribute":
            label = self.rng.choice(EXTRA_LABELS)
            data.add_edge(self.existing_pub(data), label,
                          Atom.string(f"v{self.rng.randrange(10_000)}"))
            return ChangeSummary.for_labels(label)
        if kind == "year":
            data.add_edge(self.existing_pub(data), "year",
                          Atom.int(self.rng.choice(YEARS)))
            return ChangeSummary.for_labels("year")
        if kind == "category":
            data.add_edge(self.existing_pub(data), "category",
                          Atom.string(self.rng.choice(CATEGORIES)))
            return ChangeSummary.for_labels("category")
        # A whole new publication: collection membership + attributes.
        self.pub_count += 1
        pub = Oid(f"gen-pub{self.pub_count}")
        data.add_to_collection("Publications", pub)
        data.add_edge(pub, "title",
                      Atom.string(f"Generated Paper {self.pub_count}"))
        data.add_edge(pub, "year", Atom.int(self.rng.choice(YEARS)))
        data.add_edge(pub, "category",
                      Atom.string(self.rng.choice(CATEGORIES)))
        return ChangeSummary(
            labels=frozenset({"title", "year", "category"}),
            collections=frozenset({"Publications"}))


class TestDifferentialOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_mutations_never_serve_stale(self, seed):
        rng = random.Random(seed)
        data = fig2_data()
        server = DynamicSiteServer(FIG3_QUERY, data, fig7_templates())
        mutator = Mutator(rng)
        assert_server_matches_oracle(server, data, "seed start")
        rounds = max(1, ROUNDS // len(SEEDS))
        for round_no in range(rounds):
            # Mostly selective invalidation (update() adopts the
            # ChangeSummary the mutator returns); every ~10th round
            # forces the full-drop path so both stay verified.
            if rng.random() < 0.1:
                server.update(
                    lambda graph: mutator.mutate(graph, round_no),
                    ChangeSummary.full_change())
            else:
                server.update(
                    lambda graph: mutator.mutate(graph, round_no))
            assert_server_matches_oracle(
                server, data, f"seed={seed:#x} round={round_no}")
        # The LRU bounds held throughout.
        assert len(server.matviews) <= server.matviews.max_views

    #: A site whose every read is narrow — no ``x -> l -> v`` wildcard
    #: anywhere — so body footprints stay precise and selective drops
    #: are observable at the matview layer.
    NARROW_QUERY = """
        input G
        where Pubs(x), x -> "year" -> y
        create Root(), YearPage(y)
        link Root() -> "YearPage" -> YearPage(y),
             YearPage(y) -> "Year" -> y
        output S
    """

    @staticmethod
    def narrow_templates():
        templates = TemplateSet()
        templates.add("Root", """<HTML><BODY>
<SFMTLIST @YearPage ORDER=ascend KEY=Year WRAP=UL>
</BODY></HTML>""")
        templates.add("YearPage", """<HTML><BODY>
Year <SFMT @Year>
</BODY></HTML>""")
        return templates

    def _narrow_data(self):
        data = Graph("G")
        for name, year in (("pub1", 1997), ("pub2", 1998)):
            pub = Oid(name)
            data.add_to_collection("Pubs", pub)
            data.add_edge(pub, "year", Atom.int(year))
        return data

    def test_footprint_precision_keeps_unrelated_views(self):
        """A change outside a view's footprint must not recompute it."""
        data = self._narrow_data()
        server = DynamicSiteServer(
            self.NARROW_QUERY, data, self.narrow_templates())
        root = Oid.skolem("Root", ())
        year_page = Oid.skolem("YearPage", (Atom.int(1997),))
        server.request(root)
        server.request(year_page)
        misses_before = server.matviews.stats["misses"]

        # A "note" edge is outside every footprint here (all reads
        # narrow to Pubs + "year"), so both bodies survive the drop.
        server.update(
            lambda graph: graph.add_edge(
                Oid("pub1"), "note", Atom.string("kept")),
            ChangeSummary.for_labels("note"))
        server.request(root)
        server.request(year_page)
        assert server.matviews.stats["misses"] == misses_before

        # A "year" edge intersects both: they recompute — correctly.
        server.update(
            lambda graph: graph.add_edge(
                Oid("pub1"), "year", Atom.int(2003)),
            ChangeSummary.for_labels("year"))
        fresh = server.request(root)
        assert "2003" in fresh.body
        assert server.matviews.stats["misses"] > misses_before
        assert_server_matches_oracle(
            server, data, "precision", query=self.NARROW_QUERY,
            templates_factory=self.narrow_templates)

    def test_collection_precision_on_fig3(self):
        """Fig 3 bodies traverse the ``x -> l -> v`` wildcard, so any
        *label* change drops them — but a change confined to a
        collection none of them read leaves every body cached."""
        data = fig2_data()
        server = DynamicSiteServer(FIG3_QUERY, data, fig7_templates())
        for page in oracle_pages(data).pages():
            server.request(page)
        misses_before = server.matviews.stats["misses"]
        server.update(
            lambda graph: graph.add_to_collection("People", Oid("mff")),
            ChangeSummary.for_collections("People"))
        for page in oracle_pages(data).pages():
            server.request(page)
        assert server.matviews.stats["misses"] == misses_before


class TestConcurrentStress:
    READERS = 8
    REQUESTS_PER_READER = 120
    WRITER_MUTATIONS = 30

    def test_mixed_gets_updates_invalidations(self):
        rng = random.Random(0xC0FFEE)
        data = fig2_data()
        server = DynamicSiteServer(FIG3_QUERY, data, fig7_templates())
        # URLs known before any mutation: additive data means they
        # never disappear, so every read must answer 200.  Priming by
        # oid teaches the router every route up front (routes are
        # discovered as pages materialize, and must then survive every
        # flush the writer triggers).
        oracle = oracle_pages(data)
        urls = [oracle.url_for(page) for page in oracle.pages()]
        for page in oracle.pages():
            assert server.request(page).status == 200
        failures: list[BaseException] = []
        statuses: set[int] = set()
        mutator = Mutator(random.Random(0xD1CE))
        start = threading.Barrier(self.READERS + 1)

        def reader(seed: int) -> None:
            local = random.Random(seed)
            try:
                start.wait(10)
                for _ in range(self.REQUESTS_PER_READER):
                    response = server.request(local.choice(urls))
                    statuses.add(response.status)
            except BaseException as exc:  # noqa: BLE001 — collected
                failures.append(exc)

        def writer() -> None:
            try:
                start.wait(10)
                for i in range(self.WRITER_MUTATIONS):
                    if rng.random() < 0.2:  # full drop path
                        server.update(
                            lambda graph, i=i: mutator.mutate(graph, i),
                            ChangeSummary.full_change())
                    else:
                        server.update(
                            lambda graph, i=i: mutator.mutate(graph, i))
            except BaseException as exc:  # noqa: BLE001 — collected
                failures.append(exc)

        threads = [threading.Thread(target=reader, args=(1000 + i,))
                   for i in range(self.READERS)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not any(t.is_alive() for t in threads), "threads hung"
        assert not failures, failures
        assert statuses == {200}
        # No stale-after-invalidate: with the writer quiescent, every
        # page serves exactly the oracle's bytes.
        assert_server_matches_oracle(server, data, "post-stress")
        # Bounds held under fire.
        assert len(server.matviews) <= server.matviews.max_views
        registry = server.matviews.stats
        assert registry["misses"] > 0
        assert registry["invalidations"] >= self.WRITER_MUTATIONS

"""Incremental / click-time evaluation [FER 98c]: dynamic pages must
agree exactly with the materialized site graph."""

import pytest

from repro.errors import PageNotFoundError
from repro.graph import Atom, Graph, Oid
from repro.site import DynamicSite, LazySiteGraph
from repro.struql import QueryEngine
from repro.sites.homepage import FIG3_QUERY


class TestDynamicSite:
    @pytest.fixture
    def dynamic(self, fig2_graph):
        return DynamicSite(FIG3_QUERY, fig2_graph)

    def test_roots_are_precomputable(self, dynamic):
        roots = {str(r) for r in dynamic.roots()}
        assert roots == {"RootPage()", "AbstractsPage()"}

    def test_root_page_links(self, dynamic):
        view = dynamic.get_page(Oid.skolem("RootPage", ()))
        labels = {label for label, _ in view.edges}
        assert labels == {"AbstractsPage", "YearPage", "CategoryPage"}

    def test_parameterized_page(self, dynamic):
        year = Oid.skolem("YearPage", (Atom.int(1997),))
        view = dynamic.get_page(year)
        assert ("Year", Atom.int(1997)) in view.edges
        papers = [t for label, t in view.edges if label == "Paper"]
        assert papers == [Oid.skolem("PaperPresentation", (Oid("pub1"),))]

    def test_agrees_with_materialized(self, fig2_graph, fig4_site,
                                      dynamic):
        """Every materialized page's out-edges match the dynamic view."""
        for node in fig4_site.nodes():
            if node.skolem_fn is None:
                continue
            view = dynamic.get_page(node)
            materialized = {(e.label, e.target)
                            for e in fig4_site.out_edges(node)}
            assert set(view.edges) == materialized, str(node)

    def test_membership_edit_starts_a_new_data_version(self, fig2_graph,
                                                       monkeypatch):
        """Adding an existing node to a collection changes neither the
        node, edge nor collection count, yet the statistics and unit
        plans built before it must go."""
        from repro.repository.stats import GraphStatistics
        gather = GraphStatistics.gather
        gathered = []

        def counting(graph, index=None):
            gathered.append(graph.edge_count)
            return gather(graph, index)

        monkeypatch.setattr(GraphStatistics, "gather",
                            staticmethod(counting))
        late = Oid("pub3")
        fig2_graph.add_edge(late, "year", Atom.int(2003))
        site = DynamicSite(FIG3_QUERY, fig2_graph)
        root = Oid.skolem("RootPage", ())
        year = Oid.skolem("YearPage", (Atom.int(2003),))
        assert ("YearPage", year) not in site.get_page(root).edges
        assert len(gathered) == 1
        fig2_graph.add_to_collection("Publications", late)
        assert ("YearPage", year) in site.get_page(root).edges
        assert len(gathered) == 2
        assert gathered[0] == gathered[1]  # no edge changed

    def test_get_page_reuses_the_site_fingerprint(self, fig2_graph,
                                                  monkeypatch):
        """A page compute feeds the query registry under the site
        query's fingerprint without hashing the query text again."""
        from repro.obs import queries
        from repro.site import incremental

        site = DynamicSite(FIG3_QUERY, fig2_graph)
        calls = []

        def counting(query):
            calls.append(query)
            return "rehashed"

        monkeypatch.setattr(queries, "fingerprint", counting)
        monkeypatch.setattr(incremental, "fingerprint", counting)
        previous = queries.get_query_registry()
        registry = queries.set_query_registry(queries.QueryStatsRegistry())
        try:
            site.get_page(Oid.skolem("RootPage", ()))
            site.get_page(Oid.skolem("RootPage", ()))
        finally:
            queries.set_query_registry(previous)
        assert calls == []
        assert registry.get(site.fingerprint).count == 2

    def test_stats_reconcile(self, fig2_graph):
        """Every ``get_page`` computes."""
        site = DynamicSite(FIG3_QUERY, fig2_graph)
        root = Oid.skolem("RootPage", ())
        calls = 0
        for _ in range(3):
            view = site.get_page(root)
            calls += 1
            for _label, target in view.edges:
                if isinstance(target, Oid) and target.skolem_fn:
                    site.get_page(target)
                    calls += 1
        stats = site.stats_snapshot()
        assert stats["pages_computed"] == calls

    def test_invalidate_sees_new_data(self, fig2_graph, dynamic):
        """No rows outlive the data: a compute after an edit reflects
        it, with or without ``invalidate()``."""
        root = Oid.skolem("RootPage", ())

        def years() -> int:
            return sum(1 for label, _ in dynamic.get_page(root).edges
                       if label == "YearPage")

        years_before = years()
        pub3 = Oid("pub3")
        fig2_graph.add_to_collection("Publications", pub3)
        fig2_graph.add_edge(pub3, "year", Atom.int(1999))
        fig2_graph.add_edge(pub3, "title", Atom.string("New"))
        assert years() == years_before + 1
        dynamic.invalidate()
        assert years() == years_before + 1

    def test_each_unit_planned_once_per_data_version(self, fig2_graph,
                                                     monkeypatch):
        """Sibling pages share their units' plans; an invalidation or
        an edit the index has not seen plans them again."""
        engine = QueryEngine()
        ordered = []
        order = engine.optimizer.order

        def counting(conditions, bound, *args, **kwargs):
            ordered.append((tuple(conditions), frozenset(bound)))
            return order(conditions, bound, *args, **kwargs)

        monkeypatch.setattr(engine.optimizer, "order", counting)
        site = DynamicSite(FIG3_QUERY, fig2_graph, engine=engine)
        y1997 = Oid.skolem("YearPage", (Atom.int(1997),))
        y1998 = Oid.skolem("YearPage", (Atom.int(1998),))
        site.get_page(y1997)
        planned = list(ordered)
        assert planned
        assert len(set(planned)) == len(planned)
        site.get_page(y1998)
        assert ordered == planned
        site.invalidate()
        site.get_page(y1998)
        assert ordered == planned * 2
        fig2_graph.add_edge(Oid("pub1"), "note", Atom.string("edited"))
        site.get_page(y1997)
        assert ordered == planned * 3

    def test_unknown_page(self, dynamic):
        with pytest.raises(PageNotFoundError):
            dynamic.get_page(Oid("not-a-skolem-page"))

    def test_collections_computed(self, fig2_graph):
        site = DynamicSite("""
            input BIBTEX
            where Publications(x)
            create P(x)
            link P(x) -> "of" -> x
            collect Pages(P(x))
            output O
        """, fig2_graph)
        view = site.get_page(Oid.skolem("P", (Oid("pub1"),)))
        assert view.collections == ["Pages"]


class TestLazySiteGraph:
    def test_pages_materialize_on_demand(self, fig2_graph):
        lazy = LazySiteGraph(DynamicSite(FIG3_QUERY, fig2_graph))
        assert lazy.materialized_count == 0
        root = Oid.skolem("RootPage", ())
        years = [t for t in lazy.get(root, "YearPage")]
        assert len(years) == 2
        assert lazy.materialized_count == 1  # only the root so far

    def test_matches_materialized_site(self, fig2_graph, fig4_site):
        lazy = LazySiteGraph(DynamicSite(FIG3_QUERY, fig2_graph))
        for node in fig4_site.nodes():
            if node.skolem_fn is None:
                continue
            expected = {(e.label, e.target)
                        for e in fig4_site.out_edges(node)}
            actual = {(e.label, e.target) for e in lazy.out_edges(node)}
            assert actual == expected

    def test_non_skolem_nodes_pass_through(self, fig2_graph):
        lazy = LazySiteGraph(DynamicSite(FIG3_QUERY, fig2_graph))
        assert lazy.out_edges(Oid("pub1")) == []


class TestDynamicAggregates:
    def test_click_time_aggregation(self, fig2_graph):
        """Aggregates work in per-page click-time queries too."""
        site = DynamicSite("""
            input BIBTEX
            create Stats()
            { where Publications(x), x -> "author" -> a,
                    count(a) per x as n
              create Card(x)
              link Card(x) -> "authors" -> n,
                   Stats() -> "Card" -> Card(x) }
            output O
        """, fig2_graph)
        card = Oid.skolem("Card", (Oid("pub1"),))
        view = site.get_page(card)
        assert ("authors", Atom.int(2)) in view.edges

    def test_global_aggregate_agrees_with_materialized(self, fig2_graph):
        """A page using a *global* aggregate must see the full-relation
        value, not one restricted to its own Skolem arguments."""
        query = """
            input BIBTEX
            { where Publications(x), count(x) as total
              create Card(x)
              link Card(x) -> "of" -> total }
            output O
        """
        materialized = QueryEngine().evaluate(query, fig2_graph).output
        dynamic = DynamicSite(query, fig2_graph)
        card = Oid.skolem("Card", (Oid("pub1"),))
        expected = {(e.label, e.target)
                    for e in materialized.out_edges(card)}
        assert set(dynamic.get_page(card).edges) == expected
        assert ("of", Atom.int(2)) in expected  # 2 pubs in Fig 2


class TestThreadSafety:
    """PR 7 bugfix: ``DynamicSite`` is shared by server threads but its
    caches and stats were unguarded — concurrent ``get_page`` calls and
    ``invalidate()`` raced on plain dicts."""

    def test_concurrent_get_page_with_invalidation(self, fig2_graph):
        import threading

        site = DynamicSite(FIG3_QUERY, fig2_graph)
        pages = [Oid.skolem("RootPage", ()),
                 Oid.skolem("AbstractsPage", ()),
                 Oid.skolem("YearPage", (Atom.int(1997),)),
                 Oid.skolem("YearPage", (Atom.int(1998),))]
        expected = {page: set(site.get_page(page).edges)
                    for page in pages}
        site.invalidate()

        errors: list[BaseException] = []
        stop = threading.Event()

        def hammer(page):
            try:
                while not stop.is_set():
                    view = site.get_page(page)
                    assert set(view.edges) == expected[page]
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def churn():
            try:
                while not stop.is_set():
                    site.invalidate()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(page,))
                   for page in pages for _ in range(2)]
        threads.append(threading.Thread(target=churn))
        for thread in threads:
            thread.start()
        timer = threading.Timer(1.0, stop.set)
        timer.start()
        for thread in threads:
            thread.join(timeout=30)
        timer.cancel()
        stop.set()
        assert not errors, errors[0]
        snapshot = site.stats_snapshot()
        assert snapshot["pages_computed"] > 0


class TestOneInvalidationPath:
    @staticmethod
    def _server(data):
        from repro.site import DynamicSiteServer
        from repro.sites.homepage import fig7_templates
        return DynamicSiteServer(FIG3_QUERY, data, fig7_templates())

    def test_full_change_keeps_graph_and_serves_fresh(self, fig2_graph):
        server = self._server(fig2_graph)
        server.crawl()
        graph, generator = server.graph, server.generator

        def add_pub(data):
            pub = Oid("pub3")
            data.add_to_collection("Publications", pub)
            data.add_edge(pub, "year", Atom.int(2001))
            data.add_edge(pub, "title", Atom.string("Late Addition"))
            data.add_edge(pub, "category", Atom.string("Compilers"))

        server.update(add_pub)
        server.invalidate()
        assert server.graph is graph
        assert server.generator is generator
        assert server.graph.materialized_count == 0
        oracle = self._server(fig2_graph)
        expected = {r.oid: r.body for r in oracle.crawl()}
        served = {r.oid: r.body for r in server.crawl()}
        assert served == expected
        assert any("2001" in body for body in served.values())

    def test_statistics_gathered_once_per_data_version(self, fig2_graph,
                                                       monkeypatch):
        from repro.repository.stats import GraphStatistics
        gather = GraphStatistics.gather
        versions = []

        def counting(graph, index=None):
            versions.append(graph.edge_count)
            return gather(graph, index)

        monkeypatch.setattr(GraphStatistics, "gather",
                            staticmethod(counting))
        server = self._server(fig2_graph)
        assert len(server.crawl()) > 3
        assert len(versions) == 1
        server.update(lambda data: data.add_edge(
            Oid("pub1"), "year", Atom.int(2002)))
        assert len(server.crawl()) > 3
        assert len(versions) == 2
        assert versions[1] == versions[0] + 1


class TestReadKeyInvalidation:
    def test_note_edit_drops_only_what_read_the_entry(self):
        """On the crawled 120-entry bib site, one ``note`` edge drops
        the page snapshots whose recorded reads it meets and the bodies
        that read one of those pages, and nothing else."""
        from repro.datagen import generate_bibtex
        from repro.graph import Edge
        from repro.graph.model import edge_keys
        from repro.site import DynamicSiteServer
        from repro.sites.homepage import fig7_templates
        from repro.wrappers import BibTexWrapper

        data = BibTexWrapper().wrap(generate_bibtex(120, seed=1), "BIBTEX")
        server = DynamicSiteServer(FIG3_QUERY, data, fig7_templates())
        assert len(server.crawl()) == 140
        entry = sorted(data.collection("Publications"), key=str)[0]
        note = Edge(entry, "note", Atom.string("edited"))
        met = set(edge_keys(note))
        snapshots = dict(server.graph._pages)
        bodies = {key: view.reads
                  for key, view in server.matviews._views.items()}
        assert len(bodies) == 140
        pages = {oid for oid, page in snapshots.items()
                 if page.reads & met}
        readers = {key for key, reads in bodies.items() if reads & pages}

        server.update(lambda graph: graph.add_edge(*note))
        assert set(snapshots) - set(server.graph._pages) == pages
        assert set(bodies) - set(server.matviews._views) == readers
        abstract = Oid.skolem("AbstractPage", (entry,))
        assert abstract in pages
        assert 0 < len(readers) <= 10
        assert server.graph.get(abstract, "note") == [note.target]


class _CountingLock:
    """Wraps a reentrant lock and counts every acquisition."""

    def __init__(self, lock) -> None:
        self.lock = lock
        self.acquires = 0

    def __enter__(self):
        self.lock.acquire()
        self.acquires += 1
        return self

    def __exit__(self, *exc) -> bool:
        self.lock.release()
        return False


class TestLockFreeReads:
    def test_computed_pages_read_without_the_site_lock(self, fig2_graph):
        from repro.site import DynamicSiteServer
        from repro.sites.homepage import fig7_templates
        server = DynamicSiteServer(FIG3_QUERY, fig2_graph, fig7_templates())
        counting = _CountingLock(server.site.lock)
        server.site.lock = counting
        root = Oid.skolem("RootPage", ())
        url = server.generator.url_for(root)
        first = server.request(url)  # computes the page, caches its body
        assert first.status == 200
        assert counting.acquires > 0
        server.request(url)  # the router scans the pages it discovered

        def acquires(read) -> int:
            before = counting.acquires
            read()
            return counting.acquires - before

        assert acquires(lambda: server.request(url)) == 0
        assert acquires(lambda: server.generator.render(root)) == 0
        assert acquires(lambda: server.graph.get(root, "YearPage")) == 0
        assert acquires(lambda: server.graph.collections_of(root)) == 0
        assert server.request(url).body == first.body

    def test_each_page_computed_once_under_threads(self, fig2_graph,
                                                   fig4_site):
        """8 threads read every page at once, with a short switch
        interval: each page is computed exactly once, and every read
        sees the whole page."""
        import sys
        import threading
        site = DynamicSite(FIG3_QUERY, fig2_graph)
        lazy = LazySiteGraph(site)
        pages = [node for node in fig4_site.nodes()
                 if node.skolem_fn is not None]
        expected = {page: sorted((e.label, str(e.target))
                                 for e in fig4_site.out_edges(page))
                    for page in pages}
        failures: list[BaseException] = []
        start = threading.Barrier(8)

        def reader() -> None:
            try:
                start.wait(10)
                for page in pages:
                    got = sorted((e.label, str(e.target))
                                 for e in lazy.out_edges(page))
                    assert got == expected[page], page
            except BaseException as exc:  # noqa: BLE001 — collected
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[0]
        assert lazy.materialized_count == len(pages)
        assert site.stats["pages_computed"] == len(pages)

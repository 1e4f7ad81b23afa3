"""Experiment A3: complete materialization vs click-time evaluation.

The paper (section 1): materializing the whole site has warehouse-style
costs and staleness; the alternative "precomputes the root(s)" and
computes each page's query at click time, with result caching (the
rendered bodies, and the page snapshots under them).  We measure build
cost, first-click and cached-click latency, and the fraction of the
site a short browsing session actually computes.
"""

import time

import pytest

from repro.datagen import generate_bibtex
from repro.site import DynamicSiteServer
from repro.sites.homepage import FIG3_QUERY, fig7_templates
from repro.struql import QueryEngine
from repro.templates import HtmlGenerator
from repro.wrappers import BibTexWrapper

EXPERIMENT = "A3: materialized vs click-time"

ENTRIES = 120


def _data():
    return BibTexWrapper().wrap(generate_bibtex(ENTRIES, seed=5),
                                "BIBTEX")


def test_full_materialization(benchmark, experiment, tmp_path):
    data = _data()

    def build_everything():
        site = QueryEngine().evaluate(FIG3_QUERY, data).output
        generator = HtmlGenerator(site, fig7_templates())
        return generator.generate_site(str(tmp_path))

    written = benchmark(build_everything)
    experiment.row(mode="materialize everything",
                   pages=len(written), note="paid before first visit")


def test_click_time_first_and_cached(benchmark, experiment):
    data = _data()
    server = DynamicSiteServer(FIG3_QUERY, data, fig7_templates())
    root = server.roots()[0]
    first = server.request(root)

    cached = benchmark(lambda: server.request(root))
    assert cached.status == 200
    experiment.row(mode="first click (root)", pages=1,
                   note=f"{first.seconds * 1000:.2f} ms, computes on demand")
    experiment.row(mode="cached revisit", pages=1,
                   note=f"{cached.seconds * 1000:.3f} ms")


@pytest.mark.parametrize("cache", [True, False])
def test_browsing_session(benchmark, experiment, cache):
    """A 12-click session touches a small fraction of the site.  A
    crawl visits each page once, so the body cache does not change
    what it computes: the pages' snapshots are computed once either
    way."""
    data = _data()

    def session():
        server = DynamicSiteServer(FIG3_QUERY, data, fig7_templates(),
                                   cache=cache)
        server.crawl(limit=12)
        return server

    server = benchmark(session)
    total = sum(1 for n in QueryEngine().evaluate(FIG3_QUERY, data)
                .output.nodes() if n.skolem_fn is not None)
    experiment.row(mode=f"12-click session (cache={'on' if cache else 'off'})",
                   pages=f"{server.graph.materialized_count}/{total} computed",
                   note=f"{server.site.stats['unit_evaluations']} unit "
                        f"evaluations, "
                        f"{server.site.stats['pages_computed']} "
                        f"pages computed")


def test_staleness_tradeoff(experiment, benchmark):
    """Materialization serves stale pages after a data update; the
    dynamic site pays an invalidation instead."""
    data = _data()
    materialized = QueryEngine().evaluate(FIG3_QUERY, data).output
    server = DynamicSiteServer(FIG3_QUERY, data, fig7_templates())
    root = server.roots()[0]
    benchmark(lambda: server.request(root))

    # Update the data: one new publication in a new year.
    from repro.graph import Atom, Oid
    pub = Oid("pub_new")
    data.add_to_collection("Publications", pub)
    data.add_edge(pub, "year", Atom.int(2050))
    data.add_edge(pub, "title", Atom.string("Fresh"))

    stale_dynamic = "2050" in server.request(root).body
    server.invalidate()
    started = time.perf_counter()
    fresh_dynamic = "2050" in server.request(root).body
    invalidation_cost = time.perf_counter() - started
    stale_static = not any(
        n.skolem_fn == "YearPage" and "2050" in n.name
        for n in materialized.nodes())

    experiment.row(mode="materialized after update",
                   pages="site graph unchanged",
                   note="stale until full rebuild")
    experiment.row(mode="dynamic after invalidate",
                   pages="fresh",
                   note=f"recompute on click: "
                        f"{invalidation_cost * 1000:.2f} ms")
    assert stale_static and not stale_dynamic and fresh_dynamic

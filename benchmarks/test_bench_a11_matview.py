"""Experiment A11: materialized-view hot serving vs uncached evaluation.

The serving-path half of the paper's caching story: once a page body
is a materialized view, a warm request is a dictionary lookup instead
of a click-time query evaluation plus render.  Each request is timed
by its own span (``site.serve_cold`` / ``site.serve_hot``); the
acceptance bar is hot serving at least 5x faster than cold.
"""

import random

from repro import obs
from repro.datagen import generate_bibtex
from repro.site import DynamicSiteServer
from repro.sites.homepage import FIG3_QUERY, fig7_templates
from repro.struql.matview import ChangeSummary
from repro.wrappers import BibTexWrapper

EXPERIMENT = "A11: matview hot vs cold serving"

ENTRIES = 120
SAMPLES = 60


def _data():
    return BibTexWrapper().wrap(generate_bibtex(ENTRIES, seed=5),
                                "BIBTEX")


def _sample_pages(server, count):
    rng = random.Random(11)
    responses = server.crawl(limit=count * 2)
    return [rng.choice(responses).oid for _ in range(count)]


def test_hot_vs_cold_serve(experiment):
    data = _data()
    server = DynamicSiteServer(FIG3_QUERY, data, fig7_templates())
    pages = _sample_pages(server, SAMPLES)

    # Cold: every request pays the click-time evaluation — the body
    # views (and the page snapshots under them) are dropped first.
    cold_total = 0.0
    for page in pages:
        server.invalidate()
        with obs.timed("site.serve_cold") as span:
            response = server.request(page)
        assert response.status == 200
        cold_total += span.seconds

    # Hot: the same pages, served from the materialized body views.
    for page in pages:
        server.request(page)  # ensure every view is materialized
    hot_total = 0.0
    for page in pages:
        with obs.timed("site.serve_hot") as span:
            response = server.request(page)
        assert response.status == 200
        hot_total += span.seconds

    speedup = cold_total / hot_total if hot_total else float("inf")
    experiment.row(mode="cold (invalidate before each)",
                   pages=len(pages),
                   note=f"{cold_total / len(pages) * 1000:.3f} ms/page")
    experiment.row(mode="hot (materialized views)", pages=len(pages),
                   note=f"{hot_total / len(pages) * 1000:.4f} ms/page, "
                        f"{speedup:.0f}x faster")
    # The acceptance bar: hot serves at least 5x faster than cold.
    assert speedup >= 5, f"hot/cold speedup only {speedup:.1f}x"


def test_selective_invalidation_preserves_hot_path(experiment):
    """After a narrow change, unaffected views keep serving hot: the
    differential advantage of footprint-driven invalidation over the
    old whole-cache drop."""
    data = _data()
    server = DynamicSiteServer(FIG3_QUERY, data, fig7_templates())
    pages = _sample_pages(server, SAMPLES)
    for page in pages:
        server.request(page)

    hits_before = server.matviews.stats["hits"]
    # A change confined to a collection nothing reads: every body view
    # survives, so every request below is a view hit.
    server.invalidate(ChangeSummary.for_collections("Unrelated"))
    for page in pages:
        assert server.request(page).status == 200
    hits = server.matviews.stats["hits"] - hits_before
    experiment.row(mode="after narrow change", pages=len(pages),
                   note=f"{hits}/{len(pages)} served from views")
    assert hits == len(pages)

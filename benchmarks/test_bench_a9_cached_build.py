"""Experiment A9 (extension): content-hash-cached builds.

The build pipeline renders serially and skips pages the persistent
build cache proves unchanged (``--cache-dir``/``--incremental``).  This
benchmark measures cold and cached builds on the CNN example site; the
warm no-op rebuild must render zero pages.
"""

import shutil

from repro.sites.cnn import build_cnn_site

EXPERIMENT = "A9 (extension): cached builds"

ARTICLES = 120


def _website():
    site = build_cnn_site(articles=ARTICLES)
    site.build()  # force query evaluation outside the timed region
    return site


def test_cold_vs_warm_rebuild(benchmark, experiment, tmp_path):
    """A warm rebuild of an unchanged site renders nothing — the cache
    turns a full render into a fingerprint check."""
    out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
    website = _website()

    cold = website.build_site(out, cache_dir=cache)
    assert cold.pages_rendered > 0

    def warm_rebuild():
        rebuilt = _website()  # query evaluation is not build time
        return rebuilt.build_site(out, cache_dir=cache)

    warm = benchmark(warm_rebuild)
    assert warm.pages_rendered == 0, warm.summary()
    assert warm.cache_hit_ratio == 1.0
    speedup = cold.seconds / warm.seconds if warm.seconds else float("inf")
    experiment.row(mode="cold build", pages=cold.pages_rendered,
                   seconds=f"{cold.seconds:.3f}")
    experiment.row(mode="warm rebuild (unchanged)",
                   pages=warm.pages_rendered,
                   seconds=f"{warm.seconds:.3f}",
                   note=f"{speedup:.1f}x faster than cold")


def test_incremental_after_data_change(experiment, tmp_path):
    """After editing one publication, the planner re-renders a small
    fraction of the site.  (The bibliography site, not CNN: CNN's
    ``Related`` links connect most pages, so a single article edit
    legitimately dirties the whole site.)"""
    from repro.datagen import generate_bibtex
    from repro.graph import Atom, Oid
    from repro.site.builder import Website
    from repro.sites.homepage import FIG3_QUERY, fig7_templates
    from repro.wrappers import BibTexWrapper

    out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
    data = BibTexWrapper().wrap(generate_bibtex(240, seed=6), "BIBTEX")
    cold = Website(data, FIG3_QUERY, fig7_templates()).build_site(
        out, cache_dir=cache)

    pub = next(o for o in data.collection("Publications")
               if isinstance(o, Oid))
    data.add_edge(pub, "note", Atom.string("errata"))
    report = Website(data, FIG3_QUERY, fig7_templates()).build_site(
        out, cache_dir=cache)
    assert 0 < report.pages_rendered < cold.pages_rendered
    experiment.row(mode="1 publication edited",
                   pages=f"{report.pages_rendered}/{cold.pages_rendered}",
                   note=f"{report.cache_hit_ratio:.0%} served from cache")


def test_serial_cold_build(benchmark, experiment, tmp_path):
    """A full build with no cache: every page renders, one at a time
    (EXPERIMENTS.md A9 gives the measurement behind serial rendering)."""
    out = str(tmp_path / "cold")

    def cold_build():
        shutil.rmtree(out, ignore_errors=True)
        website = _website()  # query evaluation is not build time
        return website.build_site(out)

    cold = benchmark(cold_build)
    assert cold.pages_rendered == len(_website().generator().pages())
    experiment.row(mode="serial cold build (no cache)",
                   pages=cold.pages_rendered,
                   seconds=f"{cold.seconds:.3f}")

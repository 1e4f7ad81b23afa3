"""Experiment A7 (extension): incremental site-graph updates.

The paper lists "computing incremental updates of site graphs" as an
open problem (section 6, [FER 98c]).  The build cache
(``Website.build_site(out, cache_dir=...)``) implements the
materialized-site half; this benchmark shows the property that makes it
worthwhile: after a small data change, the number of rewritten HTML
files is proportional to the change, not the site size, and the
result equals a cold build.
"""

import os
import shutil

import pytest

from repro.datagen import generate_bibtex
from repro.graph import Atom, Oid
from repro.site import Website
from repro.sites.homepage import FIG3_QUERY, fig7_templates
from repro.wrappers import BibTexWrapper

EXPERIMENT = "A7 (extension): incremental site updates"


def _data(entries: int):
    return BibTexWrapper().wrap(generate_bibtex(entries, seed=6), "BIBTEX")


def _build(data, out_dir: str, cache_dir: str | None = None):
    return Website(data, FIG3_QUERY, fig7_templates()).build_site(
        out_dir, cache_dir=cache_dir)


def _read_tree(root: str) -> dict[str, str]:
    tree = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), encoding="utf-8") as handle:
            tree[name] = handle.read()
    return tree


@pytest.mark.parametrize("entries", [60, 240])
def test_refresh_proportional_to_change(benchmark, experiment, entries,
                                        tmp_path):
    data = _data(entries)
    base, cache = str(tmp_path / "base"), str(tmp_path / "base-cache")
    _build(data, base, cache)
    total_pages = len(os.listdir(base))

    # One new publication in one existing year / one existing category.
    pub = Oid("pub_new")
    data.add_to_collection("Publications", pub)
    data.add_edge(pub, "title", Atom.string("Incremental"))
    data.add_edge(pub, "year", data.get_one(Oid("pub1"), "year"))
    data.add_edge(pub, "category",
                  data.get_one(Oid("pub1"), "category"))
    data.add_edge(pub, "abstract", Atom.file("a/new.txt"))

    out, out_cache = str(tmp_path / "out"), str(tmp_path / "cache")

    def setup():
        # Every round updates a copy of the pre-change build.
        for src, dst in ((base, out), (cache, out_cache)):
            shutil.rmtree(dst, ignore_errors=True)
            shutil.copytree(src, dst)
        return (), {}

    report = benchmark.pedantic(lambda: _build(data, out, out_cache),
                                setup=setup, rounds=5)

    rewritten = report.pages_rendered
    experiment.row(site_pages=total_pages,
                   change="1 new publication",
                   pages_rewritten=rewritten,
                   fraction=f"{rewritten / total_pages:.0%}")
    # Proportionality: the rewrite set stays small and does not grow
    # with site size (root + abstracts + 1 year + 1 category + new
    # abstract page).
    assert rewritten <= 8
    assert rewritten < total_pages
    cold = str(tmp_path / "cold")
    _build(data, cold)
    assert _read_tree(out) == _read_tree(cold)


def test_full_rebuild_comparison(benchmark, experiment, tmp_path):
    data = _data(240)

    def full_rebuild():
        return _build(data, str(tmp_path))

    report = benchmark(full_rebuild)
    experiment.row(site_pages=report.pages_rendered,
                   change="none (baseline rebuild)",
                   pages_rewritten=report.pages_rendered,
                   fraction="100%")

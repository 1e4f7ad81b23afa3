#!/usr/bin/env python3
"""Click-time evaluation: serving a site without materializing it.

Demonstrates the paper's dynamic-evaluation direction (sections 1 and
6): the site-definition query is decomposed into per-page queries; the
server precomputes only the roots and answers each request by running
the page's query at click time, with result caching.  Compares the cost
profile against full materialization.

Run:  python examples/dynamic_site.py [entries]
"""

import sys
import time

from repro.datagen import generate_bibtex
from repro.site import DynamicSiteServer
from repro.sites.homepage import FIG3_QUERY, fig7_templates
from repro.struql import QueryEngine
from repro.templates import HtmlGenerator
from repro.wrappers import BibTexWrapper


def main() -> None:
    entries = int(sys.argv[1]) if len(sys.argv) > 1 else 150
    data = BibTexWrapper().wrap(generate_bibtex(entries), "BIBTEX")
    print(f"data graph: {entries} publications, "
          f"{data.edge_count} edges")

    # Full materialization: pay everything up front.
    started = time.perf_counter()
    site = QueryEngine().evaluate(FIG3_QUERY, data).output
    generator = HtmlGenerator(site, fig7_templates())
    pages = generator.pages()
    for page in pages:
        generator.render(page)
    build_all = time.perf_counter() - started
    print(f"\nmaterialized build: {len(pages)} pages rendered "
          f"in {build_all * 1000:.1f} ms")

    # Click-time: pay per request; first visit computes, revisits hit
    # the rendered-body cache.
    server = DynamicSiteServer(FIG3_QUERY, data, fig7_templates())
    root = server.roots()[0]
    first = server.request(root)
    revisit = server.request(root)
    print(f"\nclick-time serving:")
    print(f"  first click on {root}: {first.seconds * 1000:.2f} ms")
    print(f"  revisit (cached):      {revisit.seconds * 1000:.2f} ms")

    # A short browsing session touches a fraction of the site.
    session = server.crawl(limit=10)
    computed = server.graph.materialized_count
    total_objects = sum(1 for n in site.nodes()
                        if n.skolem_fn is not None)
    mean_click = sum(r.seconds for r in session) / len(session)
    print(f"  10-click session: computed {computed} of "
          f"{total_objects} site objects "
          f"({mean_click * 1000:.2f} ms/click mean)")
    print(f"  computed: {server.site.stats['pages_computed']} pages, "
          f"{server.site.stats['unit_evaluations']} unit evaluations")


if __name__ == "__main__":
    main()

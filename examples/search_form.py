#!/usr/bin/env python3
"""Form-driven dynamic pages: a bibliography search.

The paper (section 1): "Web pages that depend on user input, e.g., from
forms, cannot be materialized statically, but must be created
dynamically."  This example declares a parameterized StruQL query whose
``kw`` variable is bound per request; each submission is a click-time
request for the result page ``Results(kw)``, and a data change made
through the handler's server shows in the next submission.

Run:  python examples/search_form.py [entries] [terms...]
"""

import sys

from repro.datagen import generate_bibtex
from repro.graph import Atom, Oid
from repro.site import FormHandler
from repro.templates import TemplateSet
from repro.wrappers import BibTexWrapper

SEARCH_QUERY = """
input BIBTEX
{ where Publications(x), x -> "title" -> t, contains(t, kw)
  create Results(kw), Hit(kw, x)
  link Hit(kw, x) -> "title" -> t,
       Results(kw) -> "Hit" -> Hit(kw, x),
       Results(kw) -> "term" -> kw }
{ where Publications(x), x -> "title" -> t, contains(t, kw),
        x -> "year" -> y
  link Hit(kw, x) -> "year" -> y }
output SearchSite
"""


def templates() -> TemplateSet:
    ts = TemplateSet()
    ts.add("Results", """<HTML><BODY>
<H1>Search results for "<SFMT @term>"</H1>
<SFMTLIST @Hit FORMAT=EMBED DELIM="<BR>">
</BODY></HTML>""")
    ts.add("Hit", '<SFMT @title> (<SFMT @year>)', as_page=False)
    return ts


def main() -> None:
    entries = int(sys.argv[1]) if len(sys.argv) > 1 else 60
    terms = sys.argv[2:] or ["Optimizing", "Web", "optimizing"]
    data = BibTexWrapper().wrap(generate_bibtex(entries), "BIBTEX")
    handler = FormHandler(SEARCH_QUERY, data, templates(),
                          result_fn="Results", params=("kw",))

    def show(term: str) -> None:
        response = handler.submit(kw=term)
        hits = sum(1 for oid in response.reads if oid.skolem_fn == "Hit")
        print(f"--- ?kw={term}  [{response.status}, {hits} hits, "
              f"{response.seconds * 1000:.2f} ms] ---")
        print(response.body)
        print()

    for term in terms:
        show(term)

    def add_publication(graph) -> None:
        pub = Oid("pub-added")
        graph.add_to_collection("Publications", pub)
        graph.add_edge(pub, "title",
                       Atom.string(f"{terms[0]} Web Sites, Revisited"))
        graph.add_edge(pub, "year", Atom.int(1998))

    print(f"=== adding a publication matching {terms[0]!r} ===")
    handler.server.update(add_publication)
    show(terms[0])
    print(f"body views: {handler.server.matviews.stats}")


if __name__ == "__main__":
    main()

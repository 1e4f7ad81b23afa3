"""Seeded synthetic workload generators (the paper's data substitutes)."""

from repro.facade import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".bibtex": ("generate_bibtex",),
    ".news": ("SECTIONS", "generate_news_graph", "generate_news_pages"),
    ".org": ("build_org_mediator", "generate_org_sources"),
})

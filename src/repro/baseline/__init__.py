"""Hand-written (CGI-style) baseline site generators for benchmarks."""

from repro.facade import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".procedural": (
        "HOMEPAGE_HELPERS",
        "NEWS_HELPERS",
        "generate_homepage_site",
        "generate_homepage_site_external",
        "generate_news_site",
        "generate_news_site_sports",
        "source_lines",
    ),
})

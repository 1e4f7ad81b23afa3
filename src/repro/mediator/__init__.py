"""GAV mediator for data integration (paper section 2.3)."""

from repro.facade import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".mediator": ("Mediator",),
    ".sources": ("DataSource", "LimitedAccessSource", "Loader"),
})

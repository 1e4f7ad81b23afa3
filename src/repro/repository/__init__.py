"""Indexed data repository for semistructured data (paper section 2.2)."""

from repro.facade import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".indexes": ("GraphIndex",),
    ".repository": ("Repository",),
    ".stats": ("GraphStatistics", "LabelStats"),
    ".storage": ("load_repository", "save_repository"),
})

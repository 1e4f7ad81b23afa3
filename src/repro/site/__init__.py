"""Site layer: builder pipeline, site schemas, verification, dynamics."""

from repro.facade import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".builder": ("SiteMetrics", "Website"),
    ".buildcache": ("BuildCache", "BuildPlan", "BuildReport",
                    "cached_generate", "hash_templates"),
    ".diff": ("SiteDiff", "diff_graphs"),
    ".forms": ("FormHandler", "register_string_predicates"),
    ".incremental": ("DynamicSite", "LazySiteGraph", "PageView"),
    ".schema": ("NS", "SchemaEdge", "SiteSchema", "build_site_schema"),
    ".server": ("DynamicSiteServer", "Response"),
    ".verify": (
        "Connected",
        "Constraint",
        "Finding",
        "ForbiddenContent",
        "ForbiddenLink",
        "PathReachability",
        "ReachableFromRoot",
        "RequiredLink",
        "VerificationReport",
        "Verifier",
    ),
})

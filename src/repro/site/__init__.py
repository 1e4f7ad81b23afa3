"""Site layer: builder pipeline, site schemas, verification, dynamics."""

from repro.site.builder import SiteMetrics, Website
from repro.site.buildcache import (
    BuildCache,
    BuildPlan,
    BuildReport,
    cached_generate,
    hash_templates,
)
from repro.site.diff import SiteDiff, diff_graphs
from repro.site.forms import FormHandler, FormResponse, register_string_predicates
from repro.site.incremental import DynamicSite, LazySiteGraph, PageView
from repro.site.schema import NS, SchemaEdge, SiteSchema, build_site_schema
from repro.site.server import DynamicSiteServer, Response
from repro.site.verify import (
    Connected,
    PathReachability,
    Constraint,
    Finding,
    ForbiddenContent,
    ForbiddenLink,
    ReachableFromRoot,
    RequiredLink,
    VerificationReport,
    Verifier,
)

__all__ = [
    "BuildCache",
    "BuildPlan",
    "BuildReport",
    "Connected",
    "Constraint",
    "DynamicSite",
    "DynamicSiteServer",
    "Finding",
    "ForbiddenContent",
    "FormHandler",
    "FormResponse",
    "ForbiddenLink",
    "LazySiteGraph",
    "NS",
    "PageView",
    "PathReachability",
    "ReachableFromRoot",
    "RequiredLink",
    "Response",
    "SchemaEdge",
    "SiteDiff",
    "SiteMetrics",
    "SiteSchema",
    "VerificationReport",
    "Verifier",
    "Website",
    "build_site_schema",
    "cached_generate",
    "diff_graphs",
    "hash_templates",
    "register_string_predicates",
]

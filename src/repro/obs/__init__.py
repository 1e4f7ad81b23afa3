"""Observability: spans and their notes, metrics, exporters.

The shared instrumentation layer every pipeline stage reports through —
see :mod:`repro.obs.trace` for the span/recorder model and the notes
that record what happened inside a span,
:mod:`repro.obs.metrics` for counters/gauges/histograms,
:mod:`repro.obs.export` for the JSON and text exporters,
:mod:`repro.obs.promexport` for Prometheus text exposition,
:mod:`repro.obs.http` for the live telemetry HTTP plane behind
``repro serve``, :mod:`repro.obs.queries` for per-query observability
(fingerprints, the bounded plan registry, slow-query log, EXPLAIN
rendering behind ``repro explain``),
:mod:`repro.obs.lineage` for the provenance/freshness plane behind
``repro why`` and ``/debug/lineage``, and :mod:`repro.obs.slo` for
service-level objectives, multi-window burn-rate alerting, and the
self-probing canary behind ``/debug/slo``, ``/debug/alerts`` and
``repro slo check``.  The global recorder
defaults to a no-op; ``repro trace <command>``, ``repro serve`` or
:func:`repro.obs.recording` turn collection on.
"""

from repro.facade import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".export": (
        "export_state",
        "from_json",
        "render_metrics",
        "render_profile",
        "render_tree",
        "span_from_dict",
        "span_to_dict",
        "to_json",
        "write_json",
    ),
    ".lineage": (
        "LineageIndex",
        "NULL_LINEAGE",
        "NullLineage",
        "PageRecord",
        "SourceRecord",
        "disable_lineage",
        "enable_lineage",
        "freshness_report",
        "get_lineage",
        "graph_content_hash",
        "lineage_recording",
        "render_why",
        "update_freshness_gauges",
    ),
    ".metrics": (
        "DEFAULT_BUCKETS",
        "DEFAULT_WINDOW_RETENTION",
        "DEFAULT_WINDOW_STEP",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "NULL_METRICS",
        "NullMetricsRegistry",
        "WindowedSeries",
        "escape_label_value",
        "format_labels",
    ),
    ".promexport": ("parse_prometheus", "to_prometheus", "write_prometheus"),
    ".queries": (
        "DEFAULT_MAX_FINGERPRINTS",
        "DEFAULT_SLOW_QUERY_SECONDS",
        "MISESTIMATE_RATIO",
        "QueryStats",
        "QueryStatsRegistry",
        "explain_document",
        "fingerprint",
        "get_query_registry",
        "misestimate_ratio",
        "misestimates_of",
        "normalize_query",
        "render_explain",
        "set_query_registry",
    ),
    ".slo": (
        "AlertRule",
        "BurnRatePair",
        "CanaryProber",
        "DEFAULT_PAIRS",
        "SLO",
        "SLOConfig",
        "SLOEvaluator",
        "check_document",
        "default_slos",
        "get_slo_evaluator",
        "load_slo_config",
        "set_slo_evaluator",
    ),
    ".trace": (
        "LEVELS",
        "NULL_RECORDER",
        "NullRecorder",
        "ProfileEntry",
        "Span",
        "TailSampler",
        "TimedResult",
        "TraceRecorder",
        "aggregate_profile",
        "counter",
        "disable",
        "enable",
        "flat_notes",
        "gauge",
        "get_recorder",
        "histogram",
        "note",
        "recording",
        "set_recorder",
        "span",
        "timed",
        "traced",
    ),
})

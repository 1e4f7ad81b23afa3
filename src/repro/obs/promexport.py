"""Prometheus text-format exposition of the metrics registry.

Renders every instrument of a :class:`~repro.obs.metrics.MetricsRegistry`
(or of its :meth:`~repro.obs.metrics.MetricsRegistry.as_dict` document,
so exported JSON re-renders identically) in the Prometheus *text
exposition format*, version 0.0.4, one ``# HELP``/``# TYPE`` pair per
family and then one sample per labeled series:

* counters gain the conventional ``_total`` suffix;
* gauges expose their last-written value;
* histograms emit cumulative ``<name>_bucket{le="..."}`` series ending
  with ``le="+Inf"``, then ``<name>_sum`` and ``<name>_count``.

Instrument names such as ``struql.rows_created`` are sanitized into the
metric-name grammar (``[a-zA-Z_:][a-zA-Z0-9_:]*``) by replacing illegal
characters with ``_``; the original name is preserved in the ``# HELP``
line.  :func:`parse_prometheus` reads the exposition back into plain
data — enough for round-trip tests and for the dashboard, not a full
client library.
"""

from __future__ import annotations

import math
import re

from repro.obs.metrics import (MetricsRegistry, NullMetricsRegistry,
                               families, format_labels, split_series_key)

#: Default prefix stamped onto every exported metric name.
DEFAULT_PREFIX = "strudel"

#: Hand-written HELP text for well-known instruments; everything else
#: falls back to a generic "Counter/Gauge {name}." line.
HELP_TEXT: dict[str, str] = {
    "struql.queries_observed":
        "StruQL query evaluations recorded by the plan registry.",
    "struql.query_fingerprints":
        "Distinct query fingerprints currently held by the bounded "
        "plan registry.",
    "struql.slow_queries":
        "Evaluations at or above the slow-query threshold "
        "(struql.slow_query events).",
    "struql.misestimates":
        "Blocks whose estimated/actual cardinality ratio exceeded the "
        "misestimate threshold.",
    "struql.rows_scanned":
        "Rows consumed by StruQL physical operators.",
    "struql.rows_produced":
        "Rows emitted by StruQL physical operators.",
    "repository.index.hits": "Labeled edge lookups served by an index.",
    "repository.index.misses":
        "Labeled edge lookups that fell back to a linear edge scan.",
    "lineage.sources":
        "Source records currently held by the lineage index.",
    "lineage.pages_stale_total":
        "Pages whose newest contributing source is older than "
        "--max-age at the last freshness evaluation.",
    "alerts_firing":
        "Burn-rate alert rules currently in the firing state.",
    "canary.probes": "End-to-end canary probes attempted.",
    "canary.failures": "Canary probes that failed.",
    "lineage.source_age_seconds": "Seconds since the source's last fetch.",
    "slo.compliance":
        "Good fraction of this objective over its rolling window.",
    "slo.burn_rate":
        "How fast this objective consumes error budget (1.0 = on target).",
    "slo.budget_remaining":
        "Error budget left over the objective's window (negative = missed).",
}

_NAME_ILLEGAL = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_name(name: str, prefix: str = DEFAULT_PREFIX) -> str:
    """``prefix`` + ``name`` mapped into the Prometheus name grammar."""
    full = f"{prefix}_{name}" if prefix else name
    full = _NAME_ILLEGAL.sub("_", full)
    if full and full[0].isdigit():
        full = "_" + full
    return full


def escape_help(text: str) -> str:
    """HELP-line text escaped per the spec (backslash and newline)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    return repr(value) if isinstance(value, float) else str(value)


def _histogram_samples(base: str, summary: dict, labels: dict,
                       lines: list[str]) -> None:
    buckets = summary.get("buckets")
    if buckets is None:
        # Degraded document (older export without bucket detail):
        # expose the +Inf bucket only, which still satisfies the
        # format's "must end with +Inf == count" rule.
        buckets = [["+Inf", summary.get("count", 0)]]
    for bound, cumulative in buckets:
        le = "+Inf" if bound == "+Inf" or (
            isinstance(bound, float) and math.isinf(bound)
        ) else _format_value(float(bound))
        bucket_labels = format_labels({**labels, "le": le})
        lines.append(f"{base}_bucket{bucket_labels} {cumulative}")
    label_str = format_labels(labels)
    lines.append(f"{base}_sum{label_str} "
                 f"{_format_value(summary.get('sum', 0.0))}")
    lines.append(f"{base}_count{label_str} {summary.get('count', 0)}")


#: (document section, exposition type, name suffix, fallback HELP).
_SECTIONS = (("counters", "counter", "_total", "Counter {}."),
             ("gauges", "gauge", "", "Gauge {}."),
             ("histograms", "histogram", "", "Histogram of {} (seconds)."))


def to_prometheus(metrics, prefix: str = DEFAULT_PREFIX,
                  labels: dict | None = None) -> str:
    """The registry (or its ``as_dict`` document) as exposition text.

    Every family gets one ``# HELP``/``# TYPE`` pair followed by one
    sample per series; output ends with a newline as the format
    requires.  ``labels`` is an optional dict of constant labels
    merged into every sample's own (the way a scrape target identifies
    an instance or site); values are escaped per the spec, so quotes,
    backslashes and newlines survive the round trip.
    """
    data = metrics.as_dict() if isinstance(
        metrics, (MetricsRegistry, NullMetricsRegistry)) else metrics
    lines: list[str] = []
    for section, kind, suffix, fallback in _SECTIONS:
        for name, series in families(data.get(section, {})).items():
            base = sanitize_name(name, prefix) + suffix
            help_text = HELP_TEXT.get(name, fallback.format(name))
            lines.append(f"# HELP {base} {escape_help(help_text)}")
            lines.append(f"# TYPE {base} {kind}")
            for series_labels, value in series:
                merged = {**series_labels, **(labels or {})}
                if kind == "histogram":
                    _histogram_samples(base, value, merged, lines)
                else:
                    lines.append(f"{base}{format_labels(merged)} "
                                 f"{_format_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(metrics, path: str,
                     prefix: str = DEFAULT_PREFIX,
                     labels: dict | None = None) -> None:
    """Write :func:`to_prometheus` output to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_prometheus(metrics, prefix, labels))


_SAMPLE = re.compile(
    r"^(?P<series>[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{.*\})?)"
    r"\s+(?P<value>\S+)\s*$")


def parse_prometheus(text: str) -> dict:
    """Exposition text back into plain data, for tests and tooling.

    Returns ``{"types": {name: type}, "samples": [(name, labels,
    value), ...]}`` where ``labels`` is a dict with unescaped values
    and ``value`` a float (``+Inf`` parses to ``math.inf``).
    """
    types: dict[str, str] = {}
    samples: list[tuple[str, dict, float]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            types[name] = kind.strip()
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if not match:
            raise ValueError(f"unparseable exposition line: {line!r}")
        # A sample's name and label set are spelled like a series key.
        name, labels = split_series_key(match.group("series"))
        raw = match.group("value")
        value = math.inf if raw == "+Inf" else (
            -math.inf if raw == "-Inf" else float(raw))
        samples.append((name, labels, value))
    return {"types": types, "samples": samples}

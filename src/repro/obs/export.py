"""Exporters for recorded traces and metrics.

Two output shapes:

* :func:`export_state` / :func:`to_json` — a plain-data document
  (``{"spans": [...], "metrics": {...}}``, each span with its notes)
  that benchmark harnesses can write next to their timing tables and
  diff across runs;
* :func:`render_tree` / :func:`render_metrics` / :func:`render_profile`
  — human-readable forms: the span tree with millisecond durations, the
  metrics digest, and the "top hotspots" flat/cumulative profile table,
  the console forms shown by ``repro trace <command>``.

:func:`from_json` reconstructs :class:`~repro.obs.trace.Span` trees,
notes included, from the JSON document, so exported traces round-trip
for offline analysis.
"""

from __future__ import annotations

import json

from repro.obs.metrics import MetricsRegistry, NullMetricsRegistry
from repro.obs.trace import (
    NullRecorder,
    Span,
    TraceRecorder,
    aggregate_profile,
    json_safe,
)

Recorder = TraceRecorder | NullRecorder


def span_to_dict(span: Span, max_depth: int | None = None) -> dict:
    """Plain-data form of one span subtree.

    ``max_depth`` prunes the tree: ``1`` keeps only the span itself,
    ``2`` its direct children, and so on.  Pruned subtrees are replaced
    by a ``"pruned"`` descendant count so readers can tell truncation
    from a genuine leaf.  Pruning never drops a note: the notes of
    pruned descendants move onto the deepest span kept, each naming its
    own span under ``"span"``.
    """
    data = {
        "name": span.name,
        "seconds": span.seconds,
        "attributes": {k: json_safe(v)
                       for k, v in span.attributes.items()},
        "children": [],
    }
    if span.span_id:
        data["span_id"] = span.span_id
    if span.trace_id:
        data["trace_id"] = span.trace_id
    notes = list(span.notes)
    if max_depth is not None and max_depth <= 1:
        pruned = 0
        for child in span.children:
            for descendant in child.walk():
                pruned += 1
                notes.extend(dict(record, span=descendant.name)
                             for record in descendant.notes)
        if pruned:
            data["pruned"] = pruned
        notes.sort(key=lambda record: record["ts"])
    else:
        deeper = None if max_depth is None else max_depth - 1
        data["children"] = [span_to_dict(c, deeper)
                            for c in span.children]
    if notes:
        data["notes"] = notes
    return data


def span_from_dict(data: dict) -> Span:
    """Rebuild a span subtree from :func:`span_to_dict` output.

    Start/end are re-anchored at zero: only durations, names,
    attributes, notes and structure survive the round trip.
    """
    span = Span(data["name"], dict(data.get("attributes", ())),
                start=0.0, end=float(data.get("seconds", 0.0)),
                span_id=int(data.get("span_id", 0)),
                trace_id=str(data.get("trace_id", "")),
                notes=[dict(record) for record in data.get("notes", ())])
    span.children = [span_from_dict(c) for c in data.get("children", ())]
    return span


def export_state(recorder: Recorder,
                 max_depth: int | None = None) -> dict:
    """The full observability document for one recorder.

    ``max_depth`` limits how deep span trees are serialized — long
    benchmark sessions record millions of nested spans, and a pruned
    document keeps the per-phase timings and all metrics while staying
    diffable.
    """
    return {
        "spans": [span_to_dict(root, max_depth)
                  for root in recorder.roots],
        "metrics": recorder.metrics.as_dict(),
    }


def to_json(recorder: Recorder, indent: int | None = 2) -> str:
    """JSON text of :func:`export_state`."""
    return json.dumps(export_state(recorder), indent=indent)


def from_json(text: str) -> tuple[list[Span], dict]:
    """Parse :func:`to_json` output back into spans and the metrics
    dict."""
    data = json.loads(text)
    spans = [span_from_dict(d) for d in data.get("spans", ())]
    return spans, data.get("metrics", {})


def write_json(recorder: Recorder, path: str) -> None:
    """Write the observability document to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_json(recorder))


# -- human-readable rendering --------------------------------------------------


def _format_attrs(attributes: dict) -> str:
    if not attributes:
        return ""
    inner = ", ".join(f"{k}={json_safe(v)}"
                      for k, v in attributes.items())
    return f"  {{{inner}}}"


def _render_span(span: Span, depth: int, lines: list[str]) -> None:
    indent = "  " * depth
    lines.append(f"{indent}{span.name}  {span.seconds * 1000:.2f} ms"
                 f"{_format_attrs(span.attributes)}")
    for child in span.children:
        _render_span(child, depth + 1, lines)


def render_tree(source: Recorder | list[Span]) -> str:
    """The span forest as an indented text tree."""
    roots = source if isinstance(source, list) else source.roots
    lines: list[str] = []
    for root in roots:
        _render_span(root, 0, lines)
    return "\n".join(lines) if lines else "(no spans recorded)"


def render_metrics(metrics: MetricsRegistry | NullMetricsRegistry) -> str:
    """Counters, gauges and histogram summaries as aligned text."""
    data = metrics.as_dict()
    lines: list[str] = []
    if data["counters"]:
        lines.append("counters:")
        width = max(len(n) for n in data["counters"])
        for name, value in data["counters"].items():
            lines.append(f"  {name.ljust(width)}  {value}")
    if data["gauges"]:
        lines.append("gauges:")
        width = max(len(n) for n in data["gauges"])
        for name, value in data["gauges"].items():
            lines.append(f"  {name.ljust(width)}  {value}")
    if data["histograms"]:
        lines.append("histograms:")
        for name, summary in data["histograms"].items():
            lines.append(
                f"  {name}  count={summary['count']} "
                f"mean={summary['mean'] * 1000:.2f}ms "
                f"p50={summary['p50'] * 1000:.2f}ms "
                f"p90={summary['p90'] * 1000:.2f}ms "
                f"p99={summary['p99'] * 1000:.2f}ms")
    return "\n".join(lines) if lines else "(no metrics recorded)"


def render_profile(source: Recorder | list[Span],
                   limit: int = 15) -> str:
    """The "top hotspots" table: per-stage self/cumulative times.

    One row per distinct span name, sorted by self time (see
    :func:`~repro.obs.trace.aggregate_profile`), truncated to the
    ``limit`` hottest stages.
    """
    entries = aggregate_profile(source)
    if not entries:
        return "(no spans recorded)"
    total_self = sum(e.self_seconds for e in entries) or 1.0
    shown = entries[:limit]
    width = max(len("stage"), max(len(e.name) for e in shown))
    lines = [f"{'stage'.ljust(width)}  {'calls':>6}  {'self ms':>10}  "
             f"{'cum ms':>10}  {'self %':>6}"]
    for entry in shown:
        lines.append(
            f"{entry.name.ljust(width)}  {entry.calls:>6}  "
            f"{entry.self_seconds * 1000:>10.2f}  "
            f"{entry.cum_seconds * 1000:>10.2f}  "
            f"{entry.self_seconds / total_self * 100:>6.1f}")
    if len(entries) > limit:
        lines.append(f"... and {len(entries) - limit} more stages")
    return "\n".join(lines)

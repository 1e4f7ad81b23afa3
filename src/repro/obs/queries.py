"""Query observability: fingerprints, the plan registry, slow-query log.

This is the per-query introspection layer over the StruQL engine — the
moral equivalent of ``EXPLAIN ANALYZE`` plus ``pg_stat_statements`` for
the paper's section 2.4 query processor:

* :func:`fingerprint` normalizes a query (literals masked, whitespace
  collapsed) and hashes it, so executions of the same query *shape*
  aggregate together regardless of constants;
* :class:`QueryStatsRegistry` keeps bounded per-fingerprint statistics
  (count, latency histogram for p50/p95, rows, last plan) with LRU
  eviction — the same bounded-memory discipline as
  :class:`~repro.obs.trace.TailSampler`, so a high-cardinality query
  workload cannot grow memory without limit;
* :func:`render_explain` / :func:`explain_document` turn a
  :class:`~repro.struql.evaluator.QueryResult` into the human-readable
  and machine-readable (``--json``) EXPLAIN [ANALYZE] forms consumed by
  ``repro explain`` and the ``/debug/queries`` endpoint.

Evaluations slower than the registry's threshold get a
``struql.slow_query`` warning note on the span that timed them;
mis-estimated blocks (est/actual cardinality ratio beyond
:data:`MISESTIMATE_RATIO`) get a ``struql.misestimate`` note on their
``struql.block`` span from the evaluator and are tallied here.  Registry
activity is mirrored into ``struql.*`` metrics, which reach the
Prometheus export as ``strudel_struql_*`` series.

The module deliberately imports nothing from :mod:`repro.struql`: the
renderers duck-type over ``QueryResult``/``BlockTrace`` so the
dependency arrow keeps pointing from the engine into observability.
"""

from __future__ import annotations

import hashlib
import re
import threading
from collections import OrderedDict

from repro.obs.metrics import Histogram
from repro.obs.trace import Span, get_recorder

#: Default eviction bound: at most this many distinct fingerprints.
DEFAULT_MAX_FINGERPRINTS = 256

#: Evaluations at or above this wall time get a ``struql.slow_query``
#: note.
DEFAULT_SLOW_QUERY_SECONDS = 0.5

#: Normalized query text kept per fingerprint is truncated to this.
MAX_TEXT_KEPT = 400

#: Estimated/actual cardinality ratio beyond which an operator or block
#: is flagged as mis-estimated (``struql.misestimate`` notes).
MISESTIMATE_RATIO = 10.0

_STRING_LITERAL = re.compile(r'"(?:[^"\\]|\\.)*"')
_NUMBER_LITERAL = re.compile(r"\b\d+(?:\.\d+)?\b")
_WHITESPACE = re.compile(r"\s+")


def misestimate_ratio(estimated: float | None, actual: int | float) -> float:
    """Symmetric est/actual error ratio, >= 1.0; 1.0 when unknown.

    Both sides are clamped to at least one row so empty results do not
    divide by zero — a 0-row actual against a 50-row estimate reads as
    a 50x error, which is the honest interpretation.
    """
    if estimated is None:
        return 1.0
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return max(est / act, act / est)


def normalize_query(text: str) -> str:
    """Canonical form of a query's text for fingerprinting.

    Literals are masked — strings to ``"?"`` (quotes kept), numbers to
    ``?`` — and whitespace is collapsed, so ``x = "a"`` and ``x = "b"``
    share a fingerprint while structurally different queries do not.
    Keeping the quotes preserves the literal's *type*: ``x = "1"`` and
    ``x = 1`` compare differently at evaluation time and must not
    collide into one fingerprint.
    """
    masked = _STRING_LITERAL.sub('"?"', text)
    masked = _NUMBER_LITERAL.sub("?", masked)
    return _WHITESPACE.sub(" ", masked).strip()


def fingerprint(query) -> str:
    """A short stable hash of the normalized query text.

    Accepts a parsed ``Query`` (uses its source ``text``) or a plain
    string.
    """
    text = getattr(query, "text", None) or str(query)
    normalized = normalize_query(text)
    return hashlib.sha1(normalized.encode("utf-8")).hexdigest()[:12]


class QueryStats:
    """Aggregated statistics for one query fingerprint."""

    def __init__(self, fp: str, text: str) -> None:
        self.fingerprint = fp
        self.text = text[:MAX_TEXT_KEPT]
        self.count = 0
        self.slow = 0
        self.misestimates = 0
        self.rows_total = 0
        self.last_seconds = 0.0
        self.last_rows = 0
        self.last_plan = ""
        self.last_optimizer = ""
        # Fixed-bucket histogram: O(buckets) memory per fingerprint,
        # interpolated p50/p95 — same machinery as the span histograms.
        self._latency = Histogram("struql.query.seconds")

    def record(self, seconds: float, rows: int, plan: str,
               optimizer: str, misestimates: int) -> None:
        self.count += 1
        self.rows_total += rows
        self.misestimates += misestimates
        self.last_seconds = seconds
        self.last_rows = rows
        if plan:
            self.last_plan = plan
        self.last_optimizer = optimizer
        self._latency.observe(seconds)

    @property
    def p50_seconds(self) -> float:
        return self._latency.p50

    @property
    def p95_seconds(self) -> float:
        return self._latency.p95

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "text": self.text,
            "count": self.count,
            "slow": self.slow,
            "misestimates": self.misestimates,
            "rows_total": self.rows_total,
            "p50_s": self.p50_seconds,
            "p95_s": self.p95_seconds,
            "mean_s": self._latency.mean,
            "last_s": self.last_seconds,
            "last_rows": self.last_rows,
            "last_optimizer": self.last_optimizer,
            "last_plan": self.last_plan,
        }


class QueryStatsRegistry:
    """Bounded per-fingerprint query statistics with LRU eviction.

    Thread-safe; always on (recording a query is a dict update and one
    histogram observation).  When the fingerprint population exceeds
    ``max_fingerprints`` the least-recently-observed entries are
    evicted, so memory stays bounded regardless of workload cardinality
    — the ``/debug/queries`` analogue of :class:`TailSampler`'s rings.
    """

    def __init__(self, max_fingerprints: int = DEFAULT_MAX_FINGERPRINTS,
                 slow_seconds: float = DEFAULT_SLOW_QUERY_SECONDS) -> None:
        self.max_fingerprints = max(int(max_fingerprints), 1)
        self.slow_seconds = slow_seconds
        self.evicted = 0
        self.observed = 0
        self._entries: "OrderedDict[str, QueryStats]" = OrderedDict()
        self._lock = threading.Lock()

    def observe(self, query, span: Span, rows: int = 0,
                plan: str = "", optimizer: str = "",
                misestimates: int = 0, fp: str | None = None) -> QueryStats:
        """Record one evaluation, timed by ``span``; returns the
        (updated) entry.

        ``fp`` is the query's fingerprint when the caller already has
        it; otherwise it is computed from the query text.  A slow
        evaluation gets a ``struql.slow_query`` warning note on
        ``span``; ``struql.*`` metrics go to the active recorder.  Both
        are no-ops while recording is disabled.
        """
        seconds = span.seconds
        fp = fp or fingerprint(query)
        text = getattr(query, "text", None) or str(query)
        with self._lock:
            entry = self._entries.get(fp)
            if entry is None:
                entry = QueryStats(fp, normalize_query(text))
                self._entries[fp] = entry
            else:
                self._entries.move_to_end(fp)
            entry.record(seconds, rows, plan, optimizer, misestimates)
            self.observed += 1
            slow = seconds >= self.slow_seconds
            if slow:
                entry.slow += 1
            while len(self._entries) > self.max_fingerprints:
                self._entries.popitem(last=False)
                self.evicted += 1
            population = len(self._entries)
        recorder = get_recorder()
        metrics = recorder.metrics
        metrics.counter("struql.queries_observed").inc()
        metrics.gauge("struql.query_fingerprints").set(population)
        if misestimates:
            metrics.counter("struql.misestimates").inc(misestimates)
        if slow:
            metrics.counter("struql.slow_queries").inc()
            if recorder.enabled:
                span.note("warning", "struql.slow_query", rows=rows,
                          threshold_s=self.slow_seconds)
        return entry

    def get(self, fp: str) -> QueryStats | None:
        with self._lock:
            return self._entries.get(fp)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.evicted = 0
            self.observed = 0

    def snapshot(self, limit: int | None = None) -> dict:
        """A JSON-ready snapshot, slowest (by p95) first."""
        with self._lock:
            entries = [e.to_dict() for e in self._entries.values()]
        entries.sort(key=lambda e: e["p95_s"], reverse=True)
        if limit is not None:
            entries = entries[:max(limit, 0)]
        return {
            "fingerprints": len(self),
            "observed": self.observed,
            "evicted": self.evicted,
            "max_fingerprints": self.max_fingerprints,
            "slow_seconds": self.slow_seconds,
            "queries": entries,
        }


_registry = QueryStatsRegistry()


def get_query_registry() -> QueryStatsRegistry:
    """The process-wide query statistics registry."""
    return _registry


def set_query_registry(registry: QueryStatsRegistry) -> QueryStatsRegistry:
    """Install ``registry`` as the process-wide one; returns it."""
    global _registry
    _registry = registry
    return registry


# -- EXPLAIN [ANALYZE] rendering ----------------------------------------------
#
# The functions below consume QueryResult/BlockTrace duck-typed: they
# touch only `.traces`, `.fingerprint`, `.optimizer_name` on the result
# and `.label`, `.plan_explain`, `.binding_rows`, `.seconds`,
# `.estimated_rows`, `.op_profiles`, `.decisions` on each trace.


def _flag(profile) -> str:
    return "!" if getattr(profile, "misestimated", False) else " "


def _render_op_line(index: int, profile) -> str:
    parts = [f"{_flag(profile)} {index}. {profile.op}"]
    if profile.access_path:
        parts.append(f"via {profile.access_path}")
    est = profile.est_rows
    parts.append(f"est~{est:g}" if est is not None else "est~?")
    parts.append(f"actual={profile.rows_out} rows")
    parts.append(f"{profile.seconds * 1000:.3f} ms")
    if profile.index_hits or profile.index_misses:
        parts.append(f"idx={profile.index_hits}/{profile.index_misses}")
    if getattr(profile, "misestimated", False):
        parts.append(f"(misestimate {profile.est_actual_ratio:.1f}x)")
    return "  ".join(parts)


def _render_decisions(decisions) -> list[str]:
    lines = ["  decisions:"]
    for decision in decisions:
        lines.append(f"    step {decision.step} -> {decision.chosen} "
                     f"(est~{decision.est_rows:g} rows)")
        for candidate in decision.candidates:
            if candidate.get("chosen"):
                continue
            if not candidate.get("executable", True):
                lines.append(f"      - {candidate['condition']}: "
                             "not executable yet")
                continue
            lines.append(
                f"      - {candidate['condition']}: "
                f"cost={candidate['est_cost']:g}, "
                f"{candidate['access_path']}")
    return lines


def render_explain(result, analyze: bool = False,
                   decisions: bool = True) -> str:
    """Human-readable EXPLAIN (plan + decisions) or EXPLAIN ANALYZE.

    With ``analyze`` each executed operator shows estimated vs actual
    rows, wall milliseconds, and index hits; mis-estimated operators are
    flagged with ``!``.
    """
    lines = []
    fp = getattr(result, "fingerprint", "")
    optimizer = getattr(result, "optimizer_name", "")
    header = ["query"]
    if fp:
        header.append(f"fingerprint={fp}")
    if optimizer:
        header.append(f"optimizer={optimizer}")
    lines.append(" ".join(header))
    for trace in result.traces:
        label = trace.label or "(top)"
        est = getattr(trace, "estimated_rows", None)
        est_text = f", est~{est:g} rows" if est is not None else ""
        if analyze:
            lines.append(f"block {label} [{trace.binding_rows} rows, "
                         f"{trace.seconds * 1000:.2f} ms{est_text}]")
            profiles = getattr(trace, "op_profiles", [])
            if profiles:
                for i, profile in enumerate(profiles, start=1):
                    lines.append("  " + _render_op_line(i, profile))
            else:
                for line in trace.plan_explain.splitlines():
                    lines.append("  " + line)
        else:
            lines.append(f"block {label} [{est_text.strip(', ') or 'plan'}]")
            for line in trace.plan_explain.splitlines():
                lines.append("  " + line)
        block_decisions = getattr(trace, "decisions", [])
        if decisions and block_decisions:
            lines.extend(_render_decisions(block_decisions))
    flagged = misestimates_of(result)
    if flagged:
        lines.append("misestimates:")
        for item in flagged:
            lines.append(f"  ! {item['scope']} {item['what']}: "
                         f"est {item['estimated']:g} vs actual "
                         f"{item['actual']} ({item['ratio']:.1f}x)")
    return "\n".join(lines)


def misestimates_of(result) -> list[dict]:
    """Every flagged est/actual divergence in a result, blocks and ops."""
    out: list[dict] = []
    for trace in result.traces:
        label = trace.label or "(top)"
        est = getattr(trace, "estimated_rows", None)
        if est is not None and getattr(trace, "executed", True):
            ratio = misestimate_ratio(est, trace.binding_rows)
            if ratio > MISESTIMATE_RATIO:
                out.append({"scope": f"block {label}", "what": "cardinality",
                            "estimated": float(est),
                            "actual": trace.binding_rows,
                            "ratio": ratio})
        for i, profile in enumerate(getattr(trace, "op_profiles", []),
                                    start=1):
            if profile.misestimated:
                out.append({"scope": f"block {label}",
                            "what": f"op {i} {profile.condition}",
                            "estimated": float(profile.est_rows),
                            "actual": profile.rows_out,
                            "ratio": profile.est_actual_ratio})
    return out


def explain_document(result, analyze: bool = False) -> dict:
    """The machine-readable (``--json``) EXPLAIN [ANALYZE] document."""
    blocks = []
    for trace in result.traces:
        block = {
            "label": trace.label or "(top)",
            "plan": trace.plan_explain.splitlines(),
            "estimated_rows": getattr(trace, "estimated_rows", None),
            "decisions": [d.to_dict()
                          for d in getattr(trace, "decisions", [])],
        }
        if analyze:
            block["actual_rows"] = trace.binding_rows
            block["seconds"] = trace.seconds
            block["ops"] = [p.to_dict()
                            for p in getattr(trace, "op_profiles", [])]
        blocks.append(block)
    doc = {
        "fingerprint": getattr(result, "fingerprint", ""),
        "optimizer": getattr(result, "optimizer_name", ""),
        "analyze": analyze,
        "blocks": blocks,
        "misestimates": misestimates_of(result),
    }
    if analyze:
        doc["summary"] = {
            "total_rows": sum(t.binding_rows for t in result.traces),
            "seconds": sum(t.seconds for t in result.traces),
        }
    return doc

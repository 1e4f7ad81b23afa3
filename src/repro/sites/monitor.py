"""The monitoring dashboard: STRUDEL dogfooding its own telemetry.

The paper's thesis is that *any* data graph can be published as a
browsable site through a StruQL site-definition query plus HTML
templates.  This module applies that thesis to STRUDEL's own
observability data: :func:`telemetry_graph` converts a trace recorder
(spans and their notes, metrics, tail-sampled slowest requests) into an
ordinary STRUDEL data graph, :data:`MONITOR_QUERY` restructures it into
a site graph, and :func:`monitor_templates` renders the result — an
overview page linking to per-stage hotspot pages, span-tree trace
drilldowns, metrics tables, a slowest-requests page and the notes the
spans carry.
No HTML is hand-written per run: the dashboard is a generated STRUDEL
site like any other, exposed as ``repro monitor <command> --out DIR``.
"""

from __future__ import annotations

import time

from repro.graph.model import Graph, Oid
from repro.graph.values import Atom
from repro.obs.lineage import freshness_report, get_lineage, \
    recent_fetches
from repro.obs.queries import get_query_registry
from repro.obs.trace import (
    NullRecorder,
    Span,
    TraceRecorder,
    aggregate_profile,
    flat_notes,
)
from repro.site.builder import Website
from repro.templates.generator import TemplateSet

#: Cap on span nodes converted into the telemetry graph — a long crawl
#: records far more spans than a dashboard can usefully show.
MAX_SPAN_NODES = 4000

#: Cap on query-registry fingerprints shown on the Queries page.
MAX_QUERY_NODES = 50

#: Collections the telemetry graph always declares (so the query's
#: where clauses are well-formed even over an idle recorder).
TELEMETRY_COLLECTIONS = (
    "Spans", "Traces", "Stages", "Counters", "Gauges", "Histograms",
    "Events", "Requests", "Queries", "Sources", "Slos", "Alerts",
    "Summary",
)


def _ms(seconds: float) -> Atom:
    return Atom.float(round(seconds * 1000, 3))


def _span_nodes(graph: Graph, roots: list[Span], budget: int) -> int:
    """Convert span trees into graph nodes; returns how many made it."""
    made = 0
    fallback_ids = iter(range(-1, -(budget + 2), -1))

    def convert(span: Span) -> Oid | None:
        nonlocal made
        if made >= budget:
            return None
        made += 1
        ident = span.span_id or next(fallback_ids)
        oid = graph.add_node(Oid(f"span-{ident}"))
        graph.add_to_collection("Spans", oid)
        graph.add_edge(oid, "name", Atom.string(span.name))
        graph.add_edge(oid, "ms", _ms(span.seconds))
        child_seconds = sum(c.seconds for c in span.children)
        graph.add_edge(oid, "self_ms",
                       _ms(max(span.seconds - child_seconds, 0.0)))
        if span.trace_id:
            graph.add_edge(oid, "trace", Atom.string(span.trace_id))
        if span.attributes:
            detail = ", ".join(f"{k}={v}"
                               for k, v in span.attributes.items())
            graph.add_edge(oid, "attrs", Atom.string(detail))
        for child in span.children:
            child_oid = convert(child)
            if child_oid is not None:
                graph.add_edge(oid, "child", child_oid)
        return oid

    for root in roots:
        root_oid = convert(root)
        if root_oid is not None:
            graph.add_to_collection("Traces", root_oid)
    return made


def _metric_nodes(graph: Graph, metrics: dict) -> None:
    for name, value in metrics.get("counters", {}).items():
        oid = graph.add_node(Oid(f"counter-{name}"))
        graph.add_to_collection("Counters", oid)
        graph.add_edge(oid, "name", Atom.string(name))
        graph.add_edge(oid, "value", Atom.of(value))
    for name, value in metrics.get("gauges", {}).items():
        oid = graph.add_node(Oid(f"gauge-{name}"))
        graph.add_to_collection("Gauges", oid)
        graph.add_edge(oid, "name", Atom.string(name))
        graph.add_edge(oid, "value", Atom.of(value))
    for name, summary in metrics.get("histograms", {}).items():
        oid = graph.add_node(Oid(f"hist-{name}"))
        graph.add_to_collection("Histograms", oid)
        graph.add_edge(oid, "name", Atom.string(name))
        graph.add_edge(oid, "count", Atom.int(summary.get("count", 0)))
        graph.add_edge(oid, "mean_ms", _ms(summary.get("mean", 0.0)))
        for quantile in ("p50", "p90", "p95", "p99"):
            graph.add_edge(oid, f"{quantile}_ms",
                           _ms(summary.get(quantile, 0.0)))
        graph.add_edge(oid, "max_ms", _ms(summary.get("max", 0.0)))


#: The telemetry-plane paths a live ``repro serve`` process exposes
#: (mirrored on the dashboard when a ``live_url`` is given).
LIVE_ENDPOINTS = ("/metrics", "/healthz", "/readyz", "/debug/traces",
                  "/debug/profile", "/debug/queries",
                  "/debug/lineage", "/debug/slo", "/debug/alerts")


def telemetry_graph(recorder: TraceRecorder | NullRecorder,
                    max_spans: int = MAX_SPAN_NODES,
                    live_url: str | None = None,
                    queries=None,
                    max_age: float | None = None,
                    slo=None) -> Graph:
    """A recorder's telemetry as an ordinary STRUDEL data graph.

    The recorder's tail sampler feeds the ``Requests`` collection: each
    of its slowest traces that contains a ``server.request`` span
    becomes one row (request id, page, status, seconds), slowest first;
    without a tail the collection stays empty.
    ``live_url`` is the base URL of a running ``repro serve`` process;
    when given, the summary node carries it plus the endpoint list, so
    the generated dashboard links to the live telemetry plane instead
    of being a purely post-hoc view.  ``queries`` is an optional
    :class:`~repro.obs.queries.QueryStatsRegistry` (or its
    ``snapshot()`` dict); by default the process-global query registry
    feeds the ``Queries`` collection.  The always-on fetch log
    (:func:`repro.obs.lineage.recent_fetches`) becomes the ``Sources``
    collection; ``max_age``
    is the staleness threshold in seconds for the summary's
    ``stale_pages`` count.  ``slo`` is an optional
    :class:`~repro.obs.slo.SLOEvaluator` (or its ``snapshot()`` dict);
    by default the process-global evaluator feeds the ``Slos`` and
    ``Alerts`` collections behind the dashboard's Alerts page.
    """
    graph = Graph("TELEMETRY")
    for name in TELEMETRY_COLLECTIONS:
        graph.declare_collection(name)

    span_count = _span_nodes(graph, list(recorder.roots), max_spans)

    for entry in aggregate_profile(recorder):
        oid = graph.add_node(Oid(f"stage-{entry.name}"))
        graph.add_to_collection("Stages", oid)
        graph.add_edge(oid, "name", Atom.string(entry.name))
        graph.add_edge(oid, "calls", Atom.int(entry.calls))
        graph.add_edge(oid, "self_ms", _ms(entry.self_seconds))
        graph.add_edge(oid, "cum_ms", _ms(entry.cum_seconds))
        graph.add_edge(oid, "avg_ms", _ms(entry.mean_seconds))

    metrics = recorder.metrics.as_dict()
    _metric_nodes(graph, metrics)

    notes = flat_notes(recorder.roots)
    for seq, record in enumerate(notes, 1):
        oid = graph.add_node(Oid(f"note-{seq}"))
        graph.add_to_collection("Events", oid)
        graph.add_edge(oid, "seq", Atom.int(seq))
        graph.add_edge(oid, "level", Atom.string(record["level"]))
        graph.add_edge(oid, "name", Atom.string(record["name"]))
        if record.get("message"):
            graph.add_edge(oid, "message", Atom.string(record["message"]))
        graph.add_edge(oid, "span", Atom.string(record["span"]))
        graph.add_edge(oid, "trace", Atom.string(record["trace_id"]))
        if record.get("attributes"):
            detail = ", ".join(f"{k}={v}"
                               for k, v in record["attributes"].items())
            graph.add_edge(oid, "detail", Atom.string(detail))

    tail = recorder.tail
    served = [span for span in (root.find("server.request")
                                for root in (tail.slowest if tail else ()))
              if span is not None]
    served.sort(key=lambda span: span.seconds, reverse=True)
    for rank, span in enumerate(served, 1):
        attrs = span.attributes
        oid = graph.add_node(Oid(f"request-{rank}"))
        graph.add_to_collection("Requests", oid)
        graph.add_edge(oid, "rank", Atom.int(rank))
        graph.add_edge(oid, "id", Atom.string(attrs.get("request") or "-"))
        graph.add_edge(oid, "page", Atom.string(attrs.get("page") or "-"))
        graph.add_edge(oid, "status", Atom.int(attrs.get("status") or 0))
        graph.add_edge(oid, "ms", _ms(span.seconds))

    if queries is None:
        queries = get_query_registry()
    query_snapshot = queries if isinstance(queries, dict) \
        else queries.snapshot(limit=MAX_QUERY_NODES)
    query_entries = query_snapshot.get("queries", ())[:MAX_QUERY_NODES]
    for rank, entry in enumerate(query_entries, 1):
        oid = graph.add_node(Oid(f"query-{entry.get('fingerprint')}"))
        graph.add_to_collection("Queries", oid)
        graph.add_edge(oid, "rank", Atom.int(rank))
        graph.add_edge(oid, "fingerprint",
                       Atom.string(entry.get("fingerprint") or "-"))
        graph.add_edge(oid, "text", Atom.string(entry.get("text") or "-"))
        graph.add_edge(oid, "count", Atom.int(entry.get("count", 0)))
        graph.add_edge(oid, "slow", Atom.int(entry.get("slow", 0)))
        graph.add_edge(oid, "misestimates",
                       Atom.int(entry.get("misestimates", 0)))
        graph.add_edge(oid, "rows", Atom.int(entry.get("rows_total", 0)))
        graph.add_edge(oid, "p50_ms", _ms(entry.get("p50_s", 0.0)))
        graph.add_edge(oid, "p95_ms", _ms(entry.get("p95_s", 0.0)))
        graph.add_edge(oid, "optimizer",
                       Atom.string(entry.get("last_optimizer") or "-"))

    sources = sorted(recent_fetches(), key=lambda r: r.source)
    now = time.time()
    for record in sources:
        oid = graph.add_node(Oid(f"source-{record.source}"))
        graph.add_to_collection("Sources", oid)
        graph.add_edge(oid, "name", Atom.string(record.source))
        graph.add_edge(oid, "kind", Atom.string(record.kind or "loader"))
        graph.add_edge(oid, "age_s", Atom.float(
            round(max(now - record.fetched_at, 0.0), 1)))
        graph.add_edge(oid, "hash",
                       Atom.string(record.content_hash or "-"))
        graph.add_edge(oid, "nodes", Atom.int(record.nodes))
        graph.add_edge(oid, "edges", Atom.int(record.edges))

    from repro.obs.slo import get_slo_evaluator
    if slo is None:
        slo = get_slo_evaluator()
    slo_snapshot = (slo if isinstance(slo, dict) or slo is None
                    else slo.snapshot())
    alerts_firing = 0
    if slo_snapshot:
        for entry in slo_snapshot.get("slos", ()):
            oid = graph.add_node(Oid(f"slo-{entry['name']}"))
            graph.add_to_collection("Slos", oid)
            graph.add_edge(oid, "name", Atom.string(entry["name"]))
            graph.add_edge(oid, "objective",
                           Atom.string(entry.get("objective") or "-"))
            burn = entry.get("burn_rate")
            graph.add_edge(oid, "burn", Atom.string(
                "no data" if burn is None else f"{burn:.2f}x"))
            compliance = entry.get("compliance")
            graph.add_edge(oid, "compliance", Atom.string(
                "-" if compliance is None
                else f"{compliance * 100:.3f}%"))
            budget = entry.get("budget_remaining")
            graph.add_edge(oid, "budget", Atom.string(
                "-" if budget is None else f"{budget * 100:.1f}%"))
            graph.add_edge(oid, "status", Atom.string(
                "VIOLATED" if entry.get("violated") else "ok"))
        for rank, alert in enumerate(slo_snapshot.get("alerts", ()), 1):
            oid = graph.add_node(Oid(f"alert-{alert['name']}"))
            graph.add_to_collection("Alerts", oid)
            graph.add_edge(oid, "rank", Atom.int(rank))
            graph.add_edge(oid, "name", Atom.string(alert["name"]))
            state = alert.get("state") or "ok"
            graph.add_edge(oid, "state", Atom.string(state))
            graph.add_edge(oid, "severity",
                           Atom.string(alert.get("severity") or "-"))
            graph.add_edge(oid, "windows", Atom.string(
                f"{int(alert.get('short_window_s', 0))}s / "
                f"{int(alert.get('long_window_s', 0))}s"))
            graph.add_edge(oid, "factor",
                           Atom.of(alert.get("factor", 0.0)))
            short_burn = alert.get("short_burn")
            long_burn = alert.get("long_burn")
            graph.add_edge(oid, "burns", Atom.string(
                ("-" if short_burn is None else f"{short_burn:.2f}x")
                + " / "
                + ("-" if long_burn is None else f"{long_burn:.2f}x")))
            if state == "firing":
                alerts_firing += 1

    summary = graph.add_node(Oid("summary"))
    graph.add_to_collection("Summary", summary)
    graph.add_edge(summary, "spans", Atom.int(span_count))
    graph.add_edge(summary, "traces", Atom.int(len(recorder.roots)))
    graph.add_edge(summary, "counters",
                   Atom.int(len(metrics.get("counters", {}))))
    graph.add_edge(summary, "gauges",
                   Atom.int(len(metrics.get("gauges", {}))))
    graph.add_edge(summary, "histograms",
                   Atom.int(len(metrics.get("histograms", {}))))
    graph.add_edge(summary, "notes", Atom.int(len(notes)))
    graph.add_edge(summary, "queries",
                   Atom.int(query_snapshot.get("fingerprints", 0)))
    graph.add_edge(summary, "sources", Atom.int(len(sources)))
    if slo_snapshot:
        graph.add_edge(summary, "slos",
                       Atom.int(len(slo_snapshot.get("slos", ()))))
        graph.add_edge(summary, "alerts_firing",
                       Atom.int(alerts_firing))
    lineage = get_lineage()
    if lineage.enabled:
        report = freshness_report(lineage, max_age=max_age, now=now)
        graph.add_edge(summary, "stale_pages",
                       Atom.int(len(report.get("stale_pages", ()))))
    graph.add_edge(summary, "generated", Atom.string(
        time.strftime("%Y-%m-%d %H:%M:%S")))
    if live_url:
        base = live_url.rstrip("/")
        graph.add_edge(summary, "live", Atom.string(base))
        for path in LIVE_ENDPOINTS:
            graph.add_edge(summary, "endpoint",
                           Atom.string(f"{base}{path}"))
    return graph


#: The site-definition query: telemetry graph in, dashboard site out.
#: ``SpanCard`` and ``SpanTree`` are two Skolem views of the *same*
#: span node — a flat row listed on stage pages, and a recursive
#: drilldown embedded in trace pages — so stage listings don't
#: duplicate whole subtrees.
MONITOR_QUERY = """
INPUT TELEMETRY
CREATE Dashboard(), StageIndex(), TraceIndex(), MetricsPage(),
       RequestsPage(), EventsPage(), QueriesPage(), FreshnessPage(),
       AlertsPage()
LINK Dashboard() -> "Stages" -> StageIndex(),
     Dashboard() -> "Traces" -> TraceIndex(),
     Dashboard() -> "Metrics" -> MetricsPage(),
     Dashboard() -> "Requests" -> RequestsPage(),
     Dashboard() -> "Events" -> EventsPage(),
     Dashboard() -> "Queries" -> QueriesPage(),
     Dashboard() -> "Freshness" -> FreshnessPage(),
     Dashboard() -> "Alerts" -> AlertsPage()
// Overview numbers straight off the summary node
{ WHERE Summary(m), m -> l -> v
  LINK Dashboard() -> l -> v
}
// Per-stage hotspot pages, listed from the stage index
{ WHERE Stages(s), s -> l -> v
  CREATE StagePage(s)
  LINK StagePage(s) -> l -> v,
       StageIndex() -> "Stage" -> StagePage(s)
  { WHERE l = "name", Spans(x), x -> "name" -> v
    LINK StagePage(s) -> "Span" -> SpanCard(x)
  }
}
// Every span as a flat card and as a tree node
{ WHERE Spans(x), x -> l -> v, not(l = "child")
  CREATE SpanCard(x), SpanTree(x)
  LINK SpanCard(x) -> l -> v,
       SpanTree(x) -> l -> v
}
{ WHERE Spans(x), x -> "child" -> y
  LINK SpanTree(x) -> "Child" -> SpanTree(y)
}
// One drilldown page per trace root
{ WHERE Traces(t), t -> l -> v, not(l = "child")
  CREATE TracePage(t)
  LINK TracePage(t) -> l -> v,
       TracePage(t) -> "Root" -> SpanTree(t),
       TraceIndex() -> "Trace" -> TracePage(t)
}
// Metrics tables
{ WHERE Counters(c), c -> l -> v
  CREATE CounterRow(c)
  LINK CounterRow(c) -> l -> v,
       MetricsPage() -> "Counter" -> CounterRow(c)
}
{ WHERE Gauges(g), g -> l -> v
  CREATE GaugeRow(g)
  LINK GaugeRow(g) -> l -> v,
       MetricsPage() -> "Gauge" -> GaugeRow(g)
}
{ WHERE Histograms(h), h -> l -> v
  CREATE HistRow(h)
  LINK HistRow(h) -> l -> v,
       MetricsPage() -> "Histogram" -> HistRow(h)
}
// Slowest requests
{ WHERE Requests(r), r -> l -> v
  CREATE RequestRow(r)
  LINK RequestRow(r) -> l -> v,
       RequestsPage() -> "Request" -> RequestRow(r)
}
// Notes on spans, oldest first
{ WHERE Events(e), e -> l -> v
  CREATE EventRow(e)
  LINK EventRow(e) -> l -> v,
       EventsPage() -> "Event" -> EventRow(e)
}
// Per-fingerprint query stats from the plan registry
{ WHERE Queries(q), q -> l -> v
  CREATE QueryRow(q)
  LINK QueryRow(q) -> l -> v,
       QueriesPage() -> "Query" -> QueryRow(q)
}
// Per-source freshness rows off the mediator fetch stamps
{ WHERE Sources(f), f -> l -> v
  CREATE SourceRow(f)
  LINK SourceRow(f) -> l -> v,
       FreshnessPage() -> "Source" -> SourceRow(f)
}
// Objectives and their burn-rate alert rules
{ WHERE Slos(o), o -> l -> v
  CREATE SloRow(o)
  LINK SloRow(o) -> l -> v,
       AlertsPage() -> "Slo" -> SloRow(o)
}
{ WHERE Alerts(a), a -> l -> v
  CREATE AlertRow(a)
  LINK AlertRow(a) -> l -> v,
       AlertsPage() -> "Alert" -> AlertRow(a)
}
OUTPUT MONITOR
"""


def monitor_templates() -> TemplateSet:
    """Templates for the dashboard site."""
    templates = TemplateSet()
    templates.add("Dashboard", """<HTML><HEAD><TITLE>STRUDEL Monitor</TITLE></HEAD>
<BODY>
<H1>STRUDEL Monitor</H1>
<P>Generated <SFMT @generated></P>
<UL>
<LI><SFMT @spans> spans in <SFMT @traces> traces</LI>
<LI><SFMT @counters> counters, <SFMT @gauges> gauges, <SFMT @histograms> histograms</LI>
<LI><SFMT @notes> notes on spans</LI>
<SIF @sources><LI><SFMT @sources> tracked sources<SIF @stale_pages>
(<SFMT @stale_pages> stale pages)</SIF></LI></SIF>
<SIF @slos><LI><SFMT @slos> SLOs, <SFMT @alerts_firing> alerts firing</LI></SIF>
</UL>
<H2>Browse</H2>
<UL>
<LI><SFMT @Stages TAG="Stage hotspots"></LI>
<LI><SFMT @Traces TAG="Trace drilldowns"></LI>
<LI><SFMT @Metrics TAG="Metrics tables"></LI>
<LI><SFMT @Requests TAG="Slowest requests"></LI>
<LI><SFMT @Events TAG="Notes on spans"></LI>
<LI><SFMT @Queries TAG="Query registry"></LI>
<LI><SFMT @Freshness TAG="Source freshness"></LI>
<LI><SFMT @Alerts TAG="SLOs and alerts"></LI>
</UL>
<SIF @live><H2>Live endpoints</H2>
<P>A <TT>repro serve</TT> process is exporting this telemetry at
<SFMT @live> — poll these instead of rebuilding the dashboard:</P>
<SFMTLIST @endpoint WRAP=UL>
</SIF>
</BODY></HTML>""")
    templates.add("StageIndex", """<HTML><HEAD><TITLE>Stages</TITLE></HEAD>
<BODY>
<H1>Stage hotspots</H1>
<SFMTLIST @Stage ORDER=descend KEY=self_ms WRAP=OL>
</BODY></HTML>""")
    templates.add("StagePage", """<HTML><HEAD><TITLE>Stage <SFMT @name></TITLE></HEAD>
<BODY>
<H1>Stage: <SFMT @name></H1>
<P><SFMT @calls> calls — self <SFMT @self_ms> ms,
cumulative <SFMT @cum_ms> ms, mean <SFMT @avg_ms> ms</P>
<SIF @Span><H2>Spans</H2>
<SFMTLIST @Span FORMAT=EMBED ORDER=descend KEY=ms WRAP=UL></SIF>
</BODY></HTML>""")
    templates.add("TraceIndex", """<HTML><HEAD><TITLE>Traces</TITLE></HEAD>
<BODY>
<H1>Trace drilldowns</H1>
<SFMTLIST @Trace ORDER=descend KEY=ms WRAP=OL>
</BODY></HTML>""")
    templates.add("TracePage", """<HTML><HEAD><TITLE>Trace <SFMT @name></TITLE></HEAD>
<BODY>
<H1>Trace: <SFMT @name> (<SFMT @ms> ms)</H1>
<SIF @trace><P>id <SFMT @trace></P></SIF>
<SFMTLIST @Root FORMAT=EMBED WRAP=UL>
</BODY></HTML>""")
    templates.add("SpanCard", """<B><SFMT @name></B> — <SFMT @ms> ms
(self <SFMT @self_ms> ms)<SIF @attrs> <I><SFMT @attrs></I></SIF>""",
                  as_page=False)
    templates.add("SpanTree", """<B><SFMT @name></B> — <SFMT @ms> ms
<SIF @attrs><I><SFMT @attrs></I></SIF>
<SIF @Child><SFMTLIST @Child FORMAT=EMBED WRAP=UL></SIF>""",
                  as_page=False)
    templates.add("MetricsPage", """<HTML><HEAD><TITLE>Metrics</TITLE></HEAD>
<BODY>
<H1>Metrics</H1>
<SIF @Counter><H2>Counters</H2>
<TABLE><TR><TH>name</TH><TH>value</TH></TR>
<SFMTLIST @Counter FORMAT=EMBED ORDER=ascend KEY=name DELIM="">
</TABLE></SIF>
<SIF @Gauge><H2>Gauges</H2>
<TABLE><TR><TH>name</TH><TH>value</TH></TR>
<SFMTLIST @Gauge FORMAT=EMBED ORDER=ascend KEY=name DELIM="">
</TABLE></SIF>
<SIF @Histogram><H2>Histograms</H2>
<TABLE><TR><TH>name</TH><TH>count</TH><TH>mean ms</TH><TH>p50 ms</TH>
<TH>p95 ms</TH><TH>p99 ms</TH><TH>max ms</TH></TR>
<SFMTLIST @Histogram FORMAT=EMBED ORDER=ascend KEY=name DELIM="">
</TABLE></SIF>
</BODY></HTML>""")
    templates.add("CounterRow",
                  """<TR><TD><SFMT @name></TD><TD><SFMT @value></TD></TR>""",
                  as_page=False)
    templates.add("GaugeRow",
                  """<TR><TD><SFMT @name></TD><TD><SFMT @value></TD></TR>""",
                  as_page=False)
    templates.add("HistRow", """<TR><TD><SFMT @name></TD><TD><SFMT @count></TD>
<TD><SFMT @mean_ms></TD><TD><SFMT @p50_ms></TD><TD><SFMT @p95_ms></TD>
<TD><SFMT @p99_ms></TD><TD><SFMT @max_ms></TD></TR>""", as_page=False)
    templates.add("RequestsPage", """<HTML><HEAD><TITLE>Requests</TITLE></HEAD>
<BODY>
<H1>Slowest requests</H1>
<SIF @Request>
<TABLE><TR><TH>#</TH><TH>id</TH><TH>page</TH><TH>status</TH><TH>ms</TH></TR>
<SFMTLIST @Request FORMAT=EMBED ORDER=ascend KEY=rank DELIM="">
</TABLE>
<SELSE><P>No request log attached.</P></SIF>
</BODY></HTML>""")
    templates.add("RequestRow", """<TR><TD><SFMT @rank></TD><TD><SFMT @id></TD>
<TD><SFMT @page></TD><TD><SFMT @status></TD><TD><SFMT @ms></TD></TR>""",
                  as_page=False)
    templates.add("EventsPage", """<HTML><HEAD><TITLE>Notes</TITLE></HEAD>
<BODY>
<H1>Notes on spans</H1>
<SIF @Event>
<TABLE><TR><TH>#</TH><TH>level</TH><TH>note</TH><TH>span</TH>
<TH>trace</TH><TH>detail</TH></TR>
<SFMTLIST @Event FORMAT=EMBED ORDER=ascend KEY=seq DELIM="">
</TABLE>
<SELSE><P>No notes recorded.</P></SIF>
</BODY></HTML>""")
    templates.add("EventRow", """<TR><TD><SFMT @seq></TD><TD><SFMT @level></TD>
<TD><SFMT @name><SIF @message> — <SFMT @message></SIF></TD>
<TD><SFMT @span></TD><TD><SFMT @trace></TD>
<TD><SIF @detail><SFMT @detail></SIF></TD></TR>""", as_page=False)
    templates.add("QueriesPage", """<HTML><HEAD><TITLE>Queries</TITLE></HEAD>
<BODY>
<H1>Query registry</H1>
<P>Per-fingerprint StruQL query stats, worst p95 first (the live
counterpart is <TT>/debug/queries</TT>).</P>
<SIF @Query>
<TABLE><TR><TH>fingerprint</TH><TH>query</TH><TH>runs</TH>
<TH>p50 ms</TH><TH>p95 ms</TH><TH>rows</TH><TH>slow</TH>
<TH>misest.</TH><TH>optimizer</TH></TR>
<SFMTLIST @Query FORMAT=EMBED ORDER=ascend KEY=rank DELIM="">
</TABLE>
<SELSE><P>No queries observed.</P></SIF>
</BODY></HTML>""")
    templates.add("QueryRow", """<TR><TD><TT><SFMT @fingerprint></TT></TD>
<TD><TT><SFMT @text></TT></TD><TD><SFMT @count></TD>
<TD><SFMT @p50_ms></TD><TD><SFMT @p95_ms></TD><TD><SFMT @rows></TD>
<TD><SFMT @slow></TD><TD><SFMT @misestimates></TD>
<TD><SFMT @optimizer></TD></TR>""", as_page=False)
    templates.add("FreshnessPage", """<HTML><HEAD><TITLE>Freshness</TITLE></HEAD>
<BODY>
<H1>Source freshness</H1>
<P>Per-source fetch stamps from the mediator — age since last
successful load, content hash and graph size (the live counterpart
is <TT>/debug/lineage</TT>).</P>
<SIF @Source>
<TABLE><TR><TH>source</TH><TH>kind</TH><TH>age s</TH><TH>hash</TH>
<TH>nodes</TH><TH>edges</TH></TR>
<SFMTLIST @Source FORMAT=EMBED ORDER=ascend KEY=name DELIM="">
</TABLE>
<SELSE><P>No source fetches recorded.</P></SIF>
</BODY></HTML>""")
    templates.add("SourceRow", """<TR><TD><SFMT @name></TD><TD><SFMT @kind></TD>
<TD><SFMT @age_s></TD><TD><TT><SFMT @hash></TT></TD>
<TD><SFMT @nodes></TD><TD><SFMT @edges></TD></TR>""", as_page=False)
    templates.add("AlertsPage", """<HTML><HEAD><TITLE>Alerts</TITLE></HEAD>
<BODY>
<H1>SLOs and alerts</H1>
<P>Service-level objectives judged over rolling windows and their
multi-window burn-rate alert rules (the live counterparts are
<TT>/debug/slo</TT> and <TT>/debug/alerts</TT>).</P>
<SIF @Slo><H2>Objectives</H2>
<TABLE><TR><TH>SLO</TH><TH>objective</TH><TH>compliance</TH>
<TH>burn</TH><TH>budget left</TH><TH>status</TH></TR>
<SFMTLIST @Slo FORMAT=EMBED ORDER=ascend KEY=name DELIM="">
</TABLE>
<SELSE><P>No SLO evaluator ran (serve mode starts one).</P></SIF>
<SIF @Alert><H2>Burn-rate rules</H2>
<TABLE><TR><TH>rule</TH><TH>severity</TH><TH>windows</TH>
<TH>threshold</TH><TH>short / long burn</TH><TH>state</TH></TR>
<SFMTLIST @Alert FORMAT=EMBED ORDER=ascend KEY=rank DELIM="">
</TABLE></SIF>
</BODY></HTML>""")
    templates.add("SloRow", """<TR><TD><SFMT @name></TD>
<TD><SFMT @objective></TD><TD><SFMT @compliance></TD>
<TD><SFMT @burn></TD><TD><SFMT @budget></TD>
<TD><B><SFMT @status></B></TD></TR>""", as_page=False)
    templates.add("AlertRow", """<TR><TD><SFMT @name></TD>
<TD><SFMT @severity></TD><TD><SFMT @windows></TD>
<TD><SFMT @factor>x</TD><TD><SFMT @burns></TD>
<TD><B><SFMT @state></B></TD></TR>""", as_page=False)
    return templates


def build_monitor_site(recorder: TraceRecorder | NullRecorder,
                       max_spans: int = MAX_SPAN_NODES,
                       live_url: str | None = None,
                       queries=None,
                       max_age: float | None = None,
                       slo=None) -> Website:
    """The monitoring dashboard over one recorder's telemetry."""
    data = telemetry_graph(recorder, max_spans=max_spans, live_url=live_url,
                           queries=queries, max_age=max_age, slo=slo)
    return Website(data, MONITOR_QUERY, monitor_templates())

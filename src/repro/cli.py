"""Command-line interface: ``python -m repro <command>``.

Drives the full pipeline from files on disk, so a site can be managed
without writing Python:

.. code-block:: console

    $ python -m repro build --data pubs.bib --data me.ddl \\
          --query site.struql --templates templates/ --out www/
    $ python -m repro schema --query site.struql [--dot]
    $ python -m repro check  --query site.struql
    $ python -m repro explain --query site.struql --data pubs.bib \\
          [--analyze] [--json]
    $ python -m repro diff   --query site.struql --data pubs.bib \\
          --old-site site.json
    $ python -m repro trace [--quiet] [--metrics-out obs.json] \\
          build --data ...
    $ python -m repro monitor build --data ... --out dash/
    $ python -m repro serve --port 8080 build --data ... \\
          --query site.struql --templates templates/
    $ python -m repro why PersonPage_p1_.html --data pubs.bib \\
          --query site.struql --templates templates/
    $ python -m repro slo check serve-snapshot/snapshot.json \\
          [--config slo.toml] [--window 3600]

Data files are wrapped by extension:

=========  ==========================================================
suffix     wrapper
=========  ==========================================================
.ddl       the STRUDEL data-definition language (Fig 2)
.bib       BibTeX
.csv       relational (table named after the file; ``login``/``id``
           columns become row keys when present)
.rec       structured records (collection named after the file)
.xml       XML
.html      HTML page (several ``--data`` pages share one graph)
.json      a serialized graph (``graph_to_json`` output)
=========  ==========================================================

Several ``--data`` files merge into one data graph (shared oids unify).
Template files ``<Name>.tmpl`` register under ``Name`` as pages;
``<Name>.component.tmpl`` register as embedded components.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

from repro.ddl import parse_ddl
from repro.errors import StrudelError
from repro.graph.model import Graph
from repro.graph.serialization import graph_from_json, graph_to_json
from repro.obs import trace as obs
from repro.site.schema import build_site_schema
from repro.site.verify import ReachableFromRoot, Verifier
from repro.struql.analysis import analyze
from repro.struql.evaluator import QueryEngine
from repro.struql.parser import parse_query
from repro.templates.generator import TemplateSet
from repro.wrappers.bibtex import BibTexWrapper
from repro.wrappers.html_wrapper import HtmlWrapper
from repro.wrappers.relational import RelationalWrapper
from repro.wrappers.structured_file import StructuredFileWrapper
from repro.wrappers.xml_wrapper import XmlWrapper


def _table_name(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0].capitalize()


#: File suffix -> wrapper kind recorded in source provenance stamps.
_SUFFIX_KINDS = {
    ".ddl": "ddl", ".strudel": "ddl", ".bib": "bibtex",
    ".csv": "relational", ".rec": "structured-file", ".xml": "xml",
    ".html": "html", ".htm": "html", ".json": "graph-json",
}


def _stamp_file_source(path: str, graph: Graph) -> None:
    """Record a fetch stamp (and lineage membership) for one file."""
    from repro.mediator.sources import record_fetch
    from repro.obs.lineage import get_lineage
    name = os.path.basename(path)
    suffix = os.path.splitext(path)[1].lower()
    try:
        with open(path, "rb") as handle:
            digest = hashlib.sha1(handle.read()).hexdigest()[:16]
    except OSError:
        digest = ""
    record_fetch(name, _SUFFIX_KINDS.get(suffix, "file"), digest,
                 graph.node_count, graph.edge_count)
    lineage = get_lineage()
    if lineage.enabled:
        lineage.record_source_nodes(name, graph)


def load_data_file(path: str) -> Graph:
    """Wrap one data file by extension."""
    suffix = os.path.splitext(path)[1].lower()
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    name = _table_name(path)
    if suffix in (".ddl", ".strudel"):
        return parse_ddl(text, name)
    if suffix == ".bib":
        return BibTexWrapper().wrap(text, name)
    if suffix == ".csv":
        header = text.splitlines()[0].split(",") if text.strip() else []
        key = next((c for c in ("login", "id", "key")
                    if c in [h.strip() for h in header]), None)
        wrapper = RelationalWrapper(
            key_columns={name: key} if key else {})
        return wrapper.wrap_tables({name: text}, name)
    if suffix == ".rec":
        return StructuredFileWrapper(collection=name).wrap(text, name)
    if suffix == ".xml":
        return XmlWrapper().wrap(text, name)
    if suffix in (".html", ".htm"):
        return HtmlWrapper().wrap_pages(
            {os.path.basename(path): text}, name)
    if suffix == ".json":
        return graph_from_json(text)
    raise StrudelError(f"no wrapper for {path!r} (suffix {suffix!r})")


def load_data(paths: list[str], graph_name: str) -> Graph:
    """Wrap and merge all ``--data`` files into one graph."""
    recorder = obs.get_recorder()
    merged = Graph(graph_name)
    html_pages: dict[str, str] = {}
    with recorder.span("mediator.load", files=len(paths)) as span:
        for path in paths:
            if os.path.splitext(path)[1].lower() in (".html", ".htm"):
                with open(path, encoding="utf-8") as handle:
                    html_pages[os.path.basename(path)] = handle.read()
                continue
            with recorder.span("mediator.fetch",
                               source=os.path.basename(path)):
                wrapped = load_data_file(path)
                merged.import_graph(wrapped)
                _stamp_file_source(path, wrapped)
        if html_pages:
            from repro.mediator.sources import record_fetch
            from repro.obs.lineage import get_lineage, \
                graph_content_hash
            with recorder.span("mediator.fetch", source="html-pages"):
                wrapped = HtmlWrapper().wrap_pages(html_pages)
                merged.import_graph(wrapped)
                record_fetch("html-pages", "html",
                             graph_content_hash(wrapped),
                             wrapped.node_count, wrapped.edge_count)
                lineage = get_lineage()
                if lineage.enabled:
                    lineage.record_source_nodes("html-pages", wrapped)
        span.set(nodes=merged.node_count, edges=merged.edge_count)
    return merged


def load_templates(directory: str) -> TemplateSet:
    """Register every ``*.tmpl`` file in ``directory``."""
    templates = TemplateSet()
    for filename in sorted(os.listdir(directory)):
        if not filename.endswith(".tmpl"):
            continue
        stem = filename[:-len(".tmpl")]
        as_page = True
        if stem.endswith(".component"):
            stem = stem[:-len(".component")]
            as_page = False
        with open(os.path.join(directory, filename),
                  encoding="utf-8") as handle:
            templates.add(stem, handle.read(), as_page=as_page)
    return templates


def _read_query(path: str):
    with open(path, encoding="utf-8") as handle:
        return parse_query(handle.read())


# --------------------------------------------------------------------------
# Commands


def cmd_build(args: argparse.Namespace) -> int:
    from repro.obs.lineage import (
        disable_lineage,
        enable_lineage,
        freshness_report,
        update_freshness_gauges,
    )
    from repro.obs.lineage import get_lineage as _get_lineage
    lineage_on = getattr(args, "max_age", None) is not None
    # An outer command (repro monitor --max-age ...) may already be
    # recording; stamp into its index and leave its lifetime alone.
    already_on = _get_lineage().enabled
    if lineage_on and not already_on:
        enable_lineage()
    try:
        return _run_build(args)
    finally:
        if lineage_on:
            report = freshness_report(max_age=args.max_age)
            update_freshness_gauges(
                obs.get_recorder().metrics, max_age=args.max_age)
            stale = report["stale_pages"]
            print(f"freshness: {len(report['sources'])} sources, "
                  f"{len(stale)} stale page(s) past "
                  f"{args.max_age:.0f}s")
            for url in stale[:10]:
                print(f"  stale: {url}")
            if not already_on:
                disable_lineage()


def _run_build(args: argparse.Namespace) -> int:
    query = _read_query(args.query)
    data = load_data(args.data, query.input_name)
    engine = QueryEngine(optimizer=args.optimizer)
    result = engine.evaluate(query, data)
    site = result.output
    print(f"data graph: {data.node_count} objects, "
          f"{data.edge_count} edges")
    print(f"site graph: {site.node_count} nodes, {site.edge_count} links")
    if args.verify_root:
        report = Verifier([ReachableFromRoot(args.verify_root)]).verify(
            graph=site, schema=build_site_schema(query))
        print(report)
        if not report.ok:
            return 1
    if args.site_json:
        with open(args.site_json, "w", encoding="utf-8") as handle:
            handle.write(graph_to_json(site))
        print(f"site graph saved to {args.site_json}")
    if args.site_dot:
        from repro.graph.dot import graph_to_dot
        with open(args.site_dot, "w", encoding="utf-8") as handle:
            handle.write(graph_to_dot(site, max_nodes=200))
        print(f"site graph (dot) saved to {args.site_dot}")
    if args.templates:
        from repro.site.buildcache import (
            BuildCache,
            DEFAULT_CACHE_DIRNAME,
            cached_generate,
        )
        from repro.templates.generator import HtmlGenerator
        templates = load_templates(args.templates)
        generator = HtmlGenerator(site, templates)
        cache = None
        if args.cache_dir or args.incremental:
            cache_dir = args.cache_dir or os.path.join(
                args.out, DEFAULT_CACHE_DIRNAME)
            cache = BuildCache(cache_dir)
        report = cached_generate(
            site, generator, templates, args.out, cache=cache,
            options={"optimizer": args.optimizer})
        print(f"{report.summary()} to {args.out}")
    return 0


def cmd_why(args: argparse.Namespace) -> int:
    """Print the backward derivation tree of one page (or oid).

    Rebuilds the site graph with lineage recording on, so every layer
    of the chain is resolvable: source record (file stamp or mediator
    source) -> mediator rule / query block -> Skolem function and
    binding args -> template.  ``TARGET`` is a page URL
    (``PersonPage_p1_.html``) or an oid display name
    (``PersonPage(p1)``); ``--list`` prints every page URL instead.
    """
    from repro.obs.lineage import lineage_recording, render_why
    from repro.site.builder import Website
    query = _read_query(args.query)
    with lineage_recording():
        data = load_data(args.data, query.input_name)
        templates = load_templates(args.templates) \
            if args.templates else None
        site = Website(data, query, templates=templates,
                       engine=QueryEngine(optimizer=args.optimizer))
        if args.list:
            generator = site.generator()
            try:
                for page in sorted(generator.pages(),
                                   key=generator.url_for):
                    print(f"{generator.url_for(page)}\t{page.name}\t"
                          f"{generator.template_for(page) or ''}")
            except BrokenPipeError:  # `repro why --list | head`
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
            return 0
        if not args.target:
            print("error: why needs a TARGET page url or oid "
                  "(or --list)", file=sys.stderr)
            return 2
        document = site.why(args.target, max_age=args.max_age)
        if document is None:
            print(f"error: no lineage for {args.target!r} — not a "
                  "generated page url or known oid", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(document, indent=2))
        else:
            print(render_why(document))
        return 0


def cmd_schema(args: argparse.Namespace) -> int:
    schema = build_site_schema(_read_query(args.query))
    print(schema.to_dot(include_ns=args.ns) if args.dot
          else schema.render(include_ns=args.ns))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    query = _read_query(args.query)  # parse errors raise already
    warnings = analyze(query)
    if not warnings:
        print("query is range restricted: meaning is independent of "
              "the active domain")
        return 0
    for warning in warnings:
        print(f"warning: {warning}")
    return 2


def cmd_diff(args: argparse.Namespace) -> int:
    from repro.site.diff import diff_graphs
    query = _read_query(args.query)
    data = load_data(args.data, query.input_name)
    with open(args.old_site, encoding="utf-8") as handle:
        old_site = graph_from_json(handle.read())
    new_site = QueryEngine().evaluate(query, data).output
    diff = diff_graphs(old_site, new_site)
    print(diff.summary())
    for node in sorted(diff.added_nodes, key=str):
        print(f"  + {node}")
    for node in sorted(diff.removed_nodes, key=str):
        print(f"  - {node}")
    return 0 if diff.empty else 3


def cmd_explain(args: argparse.Namespace) -> int:
    """EXPLAIN (and EXPLAIN ANALYZE) a StruQL query.

    Without ``--analyze`` the query is planned but never executed: each
    block shows its operator pipeline annotated with the chosen access
    path and estimated cardinality, plus the optimizer's step-by-step
    decision trace.  With ``--analyze`` the query runs and every
    operator reports estimated vs actual rows, wall milliseconds and
    index hits; est/actual divergences beyond 10x are flagged (and,
    under ``repro trace``, noted as ``struql.misestimate`` on the
    block's span).  ``--json`` prints the
    machine-readable document instead (the CI smoke-test shape).
    """
    from repro.obs.queries import explain_document, render_explain
    query = _read_query(args.query)
    data = load_data(args.data or [], query.input_name)
    engine = QueryEngine(optimizer=args.optimizer, decision_trace=True)
    if args.analyze:
        if query.params:
            print("error: --analyze cannot run a query with declared "
                  f"params ({', '.join(query.params)}); omit --analyze "
                  "for the plan", file=sys.stderr)
            return 2
        result = engine.evaluate(query, data)
    else:
        result = engine.plan_only(query, data)
    if args.json:
        print(json.dumps(explain_document(result, analyze=args.analyze),
                         indent=2))
    else:
        print(render_explain(result, analyze=args.analyze))
    return 0


def _check_wrapped(rest: list[str], name: str) -> str | None:
    """Validate a wrapped-command argument list; an error string or
    ``None``."""
    if not rest:
        return (f"error: {name} needs a command to run, e.g. "
                f"'repro {name} build ...'")
    if rest[0] in ("trace", "monitor", "serve"):
        return f"error: {name} cannot wrap {rest[0]!r}"
    return None


def cmd_trace(args: argparse.Namespace) -> int:
    """Run another command with the observability layer enabled.

    Prints the span tree, the hotspot profile and a metrics digest
    afterwards (``--quiet``: metrics digest only;
    ``--profile``: hotspot profile only; ``--json``: a machine-readable
    document — printed after the wrapped command's own output — holding
    the profile, plus metrics and the spans' notes in time order unless
    ``--profile`` narrows it).  ``--metrics-out`` additionally writes
    the full JSON document (``{"spans": [...], "metrics": {...}}``,
    notes on their spans).  The wrapped command's exit code is
    propagated.
    """
    from repro.obs.export import (
        render_metrics,
        render_profile,
        render_tree,
        write_json,
    )
    from repro.obs.promexport import write_prometheus
    from repro.obs.trace import aggregate_profile, flat_notes
    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    error = _check_wrapped(rest, "trace")
    if error:
        print(error, file=sys.stderr)
        return 2
    with obs.recording() as recorder:
        code = main(rest)
    print()
    if args.json:
        document: dict = {"profile": [
            entry.to_dict() for entry in aggregate_profile(recorder)]}
        if not args.profile:
            document["metrics"] = recorder.metrics.as_dict()
            document["notes"] = flat_notes(recorder.roots)
        print(json.dumps(document, indent=2))
    elif args.profile:
        print("== hotspots " + "=" * 51)
        print(render_profile(recorder))
    else:
        if not args.quiet:
            print("== trace " + "=" * 54)
            print(render_tree(recorder))
            print()
            print("== hotspots " + "=" * 51)
            print(render_profile(recorder))
            print()
        print("== metrics " + "=" * 52)
        print(render_metrics(recorder.metrics))
    try:
        if args.metrics_out:
            write_json(recorder, args.metrics_out)
            print(f"\nobservability JSON saved to {args.metrics_out}")
        if args.prom_out:
            write_prometheus(recorder.metrics, args.prom_out)
            print(f"Prometheus exposition saved to {args.prom_out}")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return code or 1
    return code


def _claim_last_flag(rest: list[str], flag: str) -> str | None:
    """Remove the last ``flag VALUE`` pair from ``rest``; the value."""
    for i in range(len(rest) - 2, -1, -1):
        if rest[i] == flag:
            value = rest[i + 1]
            del rest[i:i + 2]
            return value
    return None


def cmd_monitor(args: argparse.Namespace) -> int:
    """Run a command under observation, then publish the telemetry as a
    STRUDEL-generated dashboard site.

    The dashboard directory is ``--out`` given before the wrapped
    command; otherwise the *last* ``--out DIR`` pair anywhere in the
    command line is claimed for the dashboard (so
    ``repro monitor build --data ... --out DIR`` puts the dashboard in
    ``DIR``).  Alongside the HTML the directory gets ``metrics.prom``
    (Prometheus exposition); the spans' notes are the dashboard's
    ``EventsPage``.  The wrapped command's exit code is propagated.
    """
    from repro.obs.promexport import write_prometheus
    from repro.sites.monitor import build_monitor_site
    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    out_dir = args.out or _claim_last_flag(rest, "--out") or "monitor-www"
    error = _check_wrapped(rest, "monitor")
    if error:
        print(error, file=sys.stderr)
        return 2
    # With --max-age the wrapped command runs under lineage recording so
    # the dashboard's Freshness page can count stale pages, not just
    # source ages.
    lineage_on = args.max_age is not None
    if lineage_on:
        from repro.obs.lineage import enable_lineage
        enable_lineage()
    try:
        with obs.recording() as recorder:
            code = main(rest)
        site = build_monitor_site(recorder, max_age=args.max_age)
    finally:
        if lineage_on:
            from repro.obs.lineage import disable_lineage
            disable_lineage()
    os.makedirs(out_dir, exist_ok=True)
    pages = site.generate(out_dir)
    write_prometheus(recorder.metrics,
                     os.path.join(out_dir, "metrics.prom"))
    print(f"\nmonitoring dashboard: {len(pages)} pages in {out_dir} "
          f"(start at Dashboard__.html)")
    return code


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a site dynamically behind the live telemetry HTTP plane.

    Wraps ``build``-style arguments the way ``trace``/``monitor`` wrap
    commands, but instead of materializing pages it mounts a
    :class:`~repro.site.server.DynamicSiteServer` behind a threaded
    HTTP front end (:mod:`repro.obs.http`): pages are computed at click
    time while ``/metrics``, ``/healthz``, ``/readyz`` and the
    ``/debug/*`` endpoints expose the live telemetry.  The socket is
    bound (and ``/healthz`` answers) before the data graph loads;
    ``/readyz`` flips to 200 once the site query is warmed.  A
    :class:`~repro.obs.slo.CanaryProber` then exercises a known page
    every ``--canary-interval`` seconds and each probe ticks the SLO
    evaluator (objectives from ``--slo-config`` or the stock set), so
    burn-rate alerts fire with zero organic traffic.  SIGINT or
    SIGTERM drain in-flight requests and flush a final metrics/traces
    snapshot (including alert state) to ``--snapshot-dir``.
    """
    from repro.obs.http import TelemetryHTTPServer, serving_recorder
    from repro.site.server import DynamicSiteServer
    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    error = _check_wrapped(rest, "serve")
    if error:
        print(error, file=sys.stderr)
        return 2
    if rest[0] != "build":
        print("error: serve wraps 'build' arguments (the command that "
              "names --data/--query/--templates), got "
              f"{rest[0]!r}", file=sys.stderr)
        return 2
    build_args = make_parser().parse_args(rest)
    if not build_args.templates:
        print("error: serve needs --templates to render pages",
              file=sys.stderr)
        return 2
    from repro.obs.lineage import disable_lineage, enable_lineage
    from repro.obs.slo import (CanaryProber, SLOConfig, SLOEvaluator,
                               load_slo_config, set_slo_evaluator)
    try:
        slo_config = (load_slo_config(args.slo_config)
                      if args.slo_config else SLOConfig())
    except (OSError, ValueError) as exc:
        print(f"error: bad --slo-config: {exc}", file=sys.stderr)
        return 2
    recorder = obs.enable(serving_recorder())
    enable_lineage()  # serve is the lineage plane's natural home
    try:
        plane = TelemetryHTTPServer(recorder, host=args.host,
                                    port=args.port,
                                    max_age=args.max_age)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        disable_lineage()
        obs.disable()
        return 1
    evaluator = SLOEvaluator(recorder, slos=slo_config.slos,
                             step=slo_config.step_s,
                             for_ticks=slo_config.for_ticks,
                             clear_ticks=slo_config.clear_ticks)
    plane.slo_evaluator = evaluator
    set_slo_evaluator(evaluator)
    print(f"serving on http://{args.host}:{plane.port}", flush=True)
    print("telemetry: /metrics /healthz /readyz /debug/traces "
          "/debug/profile /debug/queries "
          "/debug/lineage /debug/matviews /debug/slo /debug/alerts",
          flush=True)
    thread = plane.start_background()
    plane.install_signal_handlers()
    try:
        query = _read_query(build_args.query)
        data = load_data(build_args.data, query.input_name)
        templates = load_templates(build_args.templates)
        site_server = DynamicSiteServer(
            query, data, templates,
            engine=QueryEngine(optimizer=build_args.optimizer))
        plane.mount(site_server)
        roots = site_server.warm()
        plane.set_ready()
        interval = (slo_config.canary_interval_s
                    if args.canary_interval is None
                    else args.canary_interval)
        if interval > 0:
            # Each probe ends by ticking the evaluator, so alerting
            # works with zero organic traffic.
            canary = CanaryProber(site_server, interval=interval,
                                  evaluator=evaluator)
            plane.canary = canary
            canary.start()
            print(f"canary: probing every {interval:g}s "
                  f"({len(evaluator.slos)} SLOs)", flush=True)
        else:
            canary = None
            evaluator.start_background()
            print(f"canary: disabled (SLOs evaluated every "
                  f"{evaluator.series.step:g}s)", flush=True)
        print(f"ready: {roots} root page(s) over {data.node_count} "
              "objects", flush=True)
    except (StrudelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        plane.request_shutdown()
        while thread.is_alive():
            thread.join(0.2)
        plane.server_close()
        set_slo_evaluator(None)
        disable_lineage()
        obs.disable()
        return 1
    # join() in a loop so SIGINT/SIGTERM handlers run in the main
    # thread while the accept loop owns the background thread.
    while thread.is_alive():
        thread.join(0.2)
    if canary is not None:
        canary.stop()
    evaluator.stop()
    evaluator.evaluate()  # one last judgement for the snapshot
    plane.server_close()  # drains in-flight handler threads
    plane.write_snapshot(args.snapshot_dir)
    print(f"shutdown: final snapshot in {args.snapshot_dir}",
          flush=True)
    set_slo_evaluator(None)
    disable_lineage()
    obs.disable()
    return 0


def _slo_document_from_prometheus(text: str, slos) -> dict:
    """Reconstruct a cumulative metrics document from a Prometheus
    dump, keyed back to the SLOs' metric family names.

    Only the metrics the objectives actually read are recovered:
    counters from the sum of their ``<name>_total`` samples (every
    label set of the family), histograms from their
    ``_bucket``/``_count``/``_sum`` families.
    """
    from repro.obs.promexport import parse_prometheus, sanitize_name
    parsed = parse_prometheus(text)
    flat: dict[str, float] = {}
    bucket_families: dict[str, list] = {}
    for name, labels, value in parsed["samples"]:
        if name.endswith("_bucket") and "le" in labels:
            bucket_families.setdefault(
                name[: -len("_bucket")], []).append(
                    (labels["le"], value))
        else:
            flat[name] = flat.get(name, 0.0) + value
    wanted = set()
    for slo in slos:
        for metric in (slo.total_metric, slo.bad_metric,
                       slo.latency_metric):
            if metric:
                wanted.add(metric)
    counters: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    for metric in wanted:
        base = sanitize_name(metric)
        if f"{base}_total" in flat:
            counters[metric] = flat[f"{base}_total"]
        elif base in flat:
            counters[metric] = flat[base]
        family = bucket_families.get(base)
        if family:
            pairs = sorted(
                ((math.inf if le == "+Inf" else float(le), value)
                 for le, value in family),
                key=lambda pair: pair[0])
            histograms[metric] = {
                "count": int(flat.get(f"{base}_count",
                                      pairs[-1][1])),
                "sum": flat.get(f"{base}_sum", 0.0),
                "buckets": [
                    ["+Inf" if math.isinf(bound) else bound, value]
                    for bound, value in pairs],
            }
    return {"counters": counters, "gauges": {},
            "histograms": histograms}


def cmd_slo_check(args: argparse.Namespace) -> int:
    """Judge service-level objectives against a telemetry dump.

    ``DUMP`` is autodetected: a ``snapshot.json`` written on graceful
    drain (gates on the alert/violation state the server recorded), an
    observability JSON export (``repro trace --metrics-out``; the
    cumulative run is treated as one ``--window`` seconds long), or a
    ``metrics.prom`` Prometheus exposition.  Exit 0 when every
    objective holds, 1 on any violation or firing alert, 2 on
    unreadable input — the CI gate for "did the run meet its SLOs".
    """
    from repro.obs.slo import (check_document, default_slos,
                               load_slo_config)
    try:
        with open(args.dump, encoding="utf-8") as handle:
            raw = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        slos = (load_slo_config(args.config).slos
                if args.config else default_slos())
    except (OSError, ValueError) as exc:
        print(f"error: bad --config: {exc}", file=sys.stderr)
        return 2
    document = None
    try:
        document = json.loads(raw)
    except json.JSONDecodeError:
        pass
    if document is not None and not isinstance(document, dict):
        print(f"error: {args.dump}: expected a JSON object",
              file=sys.stderr)
        return 2
    if document is not None and "slo" in document:
        return _check_snapshot(document, args.dump)
    if document is not None:
        metrics = document.get("metrics", document)
        if not isinstance(metrics, dict) or not (
                "counters" in metrics or "histograms" in metrics):
            print(f"error: {args.dump}: neither a snapshot.json nor "
                  "a metrics export", file=sys.stderr)
            return 2
    else:
        metrics = _slo_document_from_prometheus(raw, slos)
        if not metrics["counters"] and not metrics["histograms"]:
            print(f"error: {args.dump}: no SLO-relevant Prometheus "
                  "samples found", file=sys.stderr)
            return 2
    status = check_document(slos, metrics, window_s=args.window)
    return _report_slo_status(status)


def _check_snapshot(document: dict, path: str) -> int:
    """Gate on the judgement state a draining server wrote."""
    # Snapshots from before the materialized-view layer have no
    # "matviews" section; the summary is informational either way, so
    # a missing or disabled section must never fail the check.
    matviews = document.get("matviews")
    if isinstance(matviews, dict) and matviews.get("enabled"):
        print(f"matviews: {matviews.get('views', 0)} views, "
              f"{matviews.get('hits', 0)} hits / "
              f"{matviews.get('misses', 0)} misses, "
              f"{matviews.get('invalidations', 0)} invalidations "
              f"({matviews.get('views_dropped', 0)} views dropped)")
    slo_state = document.get("slo")
    if not slo_state:
        print(f"{path}: server ran without SLO evaluation; "
              "nothing to check")
        return 0
    firing = [alert for alert in slo_state.get("alerts", [])
              if alert.get("state") == "firing"]
    violated = [entry for entry in slo_state.get("slos", [])
                if entry.get("violated")]
    for entry in slo_state.get("slos", []):
        burn = entry.get("burn_rate")
        burn_text = "no data" if burn is None else f"burn {burn:.2f}x"
        flag = "VIOLATED" if entry.get("violated") else "ok"
        print(f"{flag:>8}  {entry['name']}: {entry['objective']} "
              f"({burn_text})")
    for alert in firing:
        print(f"  FIRING  {alert['name']} "
              f"(long {alert.get('long_burn')}x / "
              f"short {alert.get('short_burn')}x, "
              f"threshold {alert.get('factor')}x)")
    if firing or violated:
        print(f"slo check: FAIL ({len(violated)} violated, "
              f"{len(firing)} firing)")
        return 1
    print("slo check: ok")
    return 0


def _report_slo_status(status: list[dict]) -> int:
    """Print one line per objective; exit 1 when any is violated."""
    violated = [entry for entry in status if entry["violated"]]
    for entry in status:
        burn = entry.get("burn_rate")
        burn_text = "no data" if burn is None else f"burn {burn:.2f}x"
        flag = "VIOLATED" if entry["violated"] else "ok"
        print(f"{flag:>8}  {entry['name']}: {entry['objective']} "
              f"({burn_text})")
    if violated:
        print(f"slo check: FAIL ({len(violated)} violated)")
        return 1
    print("slo check: ok")
    return 0


def make_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="STRUDEL: declarative Web-site management")
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build a site from files")
    build.add_argument("--data", action="append", required=True,
                       help="data file (repeatable; wrapped by suffix)")
    build.add_argument("--query", required=True,
                       help="StruQL site-definition file")
    build.add_argument("--templates", help="directory of *.tmpl files")
    build.add_argument("--out", default="www",
                       help="output directory for HTML")
    build.add_argument("--optimizer", default="cost",
                       choices=("naive", "heuristic", "cost"))
    build.add_argument("--cache-dir",
                       help="persistent build-cache directory: "
                            "unchanged pages are skipped on rebuilds")
    build.add_argument("--incremental", action="store_true",
                       help="shorthand for --cache-dir OUT/"
                            ".buildcache")
    build.add_argument("--verify-root",
                       help="check all pages reachable from this "
                            "Skolem function")
    build.add_argument("--site-json",
                       help="also save the site graph as JSON")
    build.add_argument("--site-dot",
                       help="also save a GraphViz view of the site graph")
    build.add_argument("--max-age", type=float, default=None,
                       help="freshness threshold in seconds: record "
                            "provenance while building and report "
                            "pages whose newest contributing source "
                            "is older")
    build.set_defaults(fn=cmd_build)

    why = sub.add_parser(
        "why",
        help="print a page's backward derivation tree "
             "(source -> query block -> Skolem fn -> template)")
    why.add_argument("target", nargs="?",
                     help="page url (PersonPage_p1_.html) or oid "
                          "display name (PersonPage(p1))")
    why.add_argument("--data", action="append", required=True,
                     help="data file (repeatable; wrapped by suffix)")
    why.add_argument("--query", required=True,
                     help="StruQL site-definition file")
    why.add_argument("--templates",
                     help="directory of *.tmpl files (adds the "
                          "template layer to the chain)")
    why.add_argument("--optimizer", default="cost",
                     choices=("naive", "heuristic", "cost"))
    why.add_argument("--max-age", type=float, default=None,
                     help="flag the page stale when its newest "
                          "contributing source is older (seconds)")
    why.add_argument("--json", action="store_true",
                     help="machine-readable JSON output")
    why.add_argument("--list", action="store_true",
                     help="list every generated page url instead")
    why.set_defaults(fn=cmd_why)

    schema = sub.add_parser("schema", help="print a query's site schema")
    schema.add_argument("--query", required=True)
    schema.add_argument("--dot", action="store_true",
                        help="GraphViz output")
    schema.add_argument("--ns", action="store_true",
                        help="include N_S edges")
    schema.set_defaults(fn=cmd_schema)

    check = sub.add_parser("check",
                           help="static checks: parse + range restriction")
    check.add_argument("--query", required=True)
    check.set_defaults(fn=cmd_check)

    diff = sub.add_parser("diff",
                          help="diff a saved site graph against a rebuild")
    diff.add_argument("--data", action="append", required=True)
    diff.add_argument("--query", required=True)
    diff.add_argument("--old-site", required=True,
                      help="JSON site graph from a previous build")
    diff.set_defaults(fn=cmd_diff)

    trace = sub.add_parser(
        "trace", help="run a command with tracing + metrics enabled")
    trace.add_argument("--metrics-out",
                       help="write the spans+metrics JSON document here")
    trace.add_argument("--prom-out",
                       help="write Prometheus exposition text here")
    trace.add_argument("--quiet", action="store_true",
                       help="suppress the span tree and hotspot table "
                            "(metrics digest only)")
    trace.add_argument("--profile", action="store_true",
                       help="print only the hotspot profile")
    trace.add_argument("--json", action="store_true",
                       help="machine-readable JSON output (profile, "
                            "plus metrics and notes unless --profile)")
    trace.add_argument("rest", nargs=argparse.REMAINDER,
                       help="the command to run, e.g. build --data ...")
    trace.set_defaults(fn=cmd_trace)

    explain = sub.add_parser(
        "explain",
        help="show a query's plan, estimates and optimizer decisions "
             "(EXPLAIN), optionally executing it (EXPLAIN ANALYZE)")
    explain.add_argument("--query", required=True,
                         help="StruQL query file to explain")
    explain.add_argument("--data", action="append",
                         help="data file (repeatable; optional — "
                              "without data the plan uses empty "
                              "statistics)")
    explain.add_argument("--optimizer", default="cost",
                         choices=("naive", "heuristic", "cost"))
    explain.add_argument("--analyze", action="store_true",
                         help="execute the query and show estimated vs "
                              "actual rows, time and index hits per "
                              "operator")
    explain.add_argument("--json", action="store_true",
                         help="machine-readable JSON output")
    explain.set_defaults(fn=cmd_explain)

    monitor = sub.add_parser(
        "monitor",
        help="run a command, then generate the telemetry dashboard site")
    monitor.add_argument("--out", default=None,
                         help="dashboard output directory (may also be "
                              "given as the last --out after the "
                              "wrapped command; default monitor-www)")
    monitor.add_argument("--max-age", type=float, default=None,
                         help="staleness threshold (seconds) for the "
                              "dashboard's Freshness page")
    monitor.add_argument("rest", nargs=argparse.REMAINDER,
                         help="the command to run, e.g. build --data ...")
    monitor.set_defaults(fn=cmd_monitor)

    serve = sub.add_parser(
        "serve",
        help="serve a site dynamically with live telemetry endpoints")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port; 0 picks an ephemeral one")
    serve.add_argument("--snapshot-dir", default="serve-snapshot",
                       help="where the final metrics/traces snapshot "
                            "is flushed on shutdown")
    serve.add_argument("--max-age", type=float, default=None,
                       help="freshness threshold in seconds for "
                            "lineage.pages_stale_total on /metrics")
    serve.add_argument("--slo-config", default=None,
                       help="slo.toml defining objectives and alert "
                            "knobs (default: the stock server+canary "
                            "SLOs)")
    serve.add_argument("--canary-interval", type=float, default=None,
                       help="seconds between self-probes (default 5; "
                            "0 disables the canary and evaluates "
                            "SLOs on a timer instead)")
    serve.add_argument("rest", nargs=argparse.REMAINDER,
                       help="build arguments naming the site, e.g. "
                            "build --data ... --query ... --templates ...")
    serve.set_defaults(fn=cmd_serve)

    slo = sub.add_parser("slo", help="service-level-objective tools")
    slo_sub = slo.add_subparsers(dest="slo_command", required=True)
    slo_check = slo_sub.add_parser(
        "check",
        help="judge SLOs against a snapshot/metrics dump; "
             "exit 1 on violation")
    slo_check.add_argument(
        "dump",
        help="snapshot.json, an obs JSON export, or metrics.prom")
    slo_check.add_argument(
        "--config", default=None,
        help="slo.toml naming the objectives (default: stock SLOs)")
    slo_check.add_argument(
        "--window", type=float, default=3600.0,
        help="window in seconds a cumulative metrics dump is judged "
             "over (default 3600; ignored for snapshot.json)")
    slo_check.set_defaults(fn=cmd_slo_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StrudelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""The command-line interface (python -m repro)."""

import json
import os

import pytest

from repro.cli import load_data, load_data_file, load_templates, main
from repro.graph import Oid
from repro.graph.serialization import graph_to_json
from repro.sites.homepage import FIG2_DDL, FIG3_QUERY


@pytest.fixture
def workspace(tmp_path):
    """Data + query + template files on disk."""
    (tmp_path / "pubs.ddl").write_text(FIG2_DDL)
    (tmp_path / "site.struql").write_text(FIG3_QUERY)
    templates = tmp_path / "templates"
    templates.mkdir()
    (templates / "RootPage.tmpl").write_text(
        "<h1>Pubs</h1><SFMTLIST @YearPage WRAP=UL>")
    (templates / "YearPage.tmpl").write_text(
        "<h1><SFMT @Year></h1><SFMTLIST @Paper FORMAT=EMBED>")
    (templates / "PaperPresentation.component.tmpl").write_text(
        "<SFMT @title>")
    (templates / "ignored.txt").write_text("not a template")
    return tmp_path


class TestLoaders:
    def test_ddl_file(self, workspace):
        graph = load_data_file(str(workspace / "pubs.ddl"))
        assert graph.has_node(Oid("pub1"))

    def test_bib_file(self, tmp_path):
        (tmp_path / "b.bib").write_text(
            "@article{k, title={T}, year=1999}")
        graph = load_data_file(str(tmp_path / "b.bib"))
        assert graph.has_node(Oid("k"))

    def test_csv_file_with_key_detection(self, tmp_path):
        (tmp_path / "people.csv").write_text("login,name\nmff,Mary\n")
        graph = load_data_file(str(tmp_path / "people.csv"))
        assert graph.has_node(Oid("People_mff"))

    def test_rec_file(self, tmp_path):
        (tmp_path / "projects.rec").write_text("id: p1\nname: X\n")
        graph = load_data_file(str(tmp_path / "projects.rec"))
        assert graph.in_collection("Projects", Oid("Projects_p1"))

    def test_xml_file(self, tmp_path):
        (tmp_path / "d.xml").write_text('<root id="r"><a id="x"/></root>')
        graph = load_data_file(str(tmp_path / "d.xml"))
        assert graph.has_node(Oid("x"))

    def test_json_file(self, tmp_path, tiny_graph):
        (tmp_path / "g.json").write_text(graph_to_json(tiny_graph))
        graph = load_data_file(str(tmp_path / "g.json"))
        assert graph.has_node(Oid("root"))

    def test_unknown_suffix(self, tmp_path):
        (tmp_path / "x.dat").write_text("?")
        from repro.errors import StrudelError
        with pytest.raises(StrudelError):
            load_data_file(str(tmp_path / "x.dat"))

    def test_html_files_share_one_graph(self, tmp_path):
        (tmp_path / "a.html").write_text(
            '<html><a href="b.html">b</a></html>')
        (tmp_path / "b.html").write_text("<html><title>B</title></html>")
        graph = load_data(
            [str(tmp_path / "a.html"), str(tmp_path / "b.html")], "G")
        assert graph.get(Oid("a.html"), "link") == [Oid("b.html")]

    def test_merge_multiple_sources(self, workspace, tmp_path):
        (tmp_path / "extra.bib").write_text(
            "@article{extra, title={E}, year=2000}")
        graph = load_data([str(workspace / "pubs.ddl"),
                           str(tmp_path / "extra.bib")], "BIBTEX")
        assert graph.has_node(Oid("pub1")) and graph.has_node(Oid("extra"))

    def test_template_dir(self, workspace):
        templates = load_templates(str(workspace / "templates"))
        assert templates.names() == ["PaperPresentation", "RootPage",
                                     "YearPage"]
        # .component.tmpl registers as a non-page template.
        from repro.graph import Graph
        graph = Graph("g")
        page = Oid("p")
        graph.add_node(page)


class TestCommands:
    def test_build_end_to_end(self, workspace, capsys):
        out_dir = workspace / "www"
        code = main(["build",
                     "--data", str(workspace / "pubs.ddl"),
                     "--query", str(workspace / "site.struql"),
                     "--templates", str(workspace / "templates"),
                     "--out", str(out_dir),
                     "--verify-root", "RootPage",
                     "--site-json", str(workspace / "site.json")])
        assert code == 0
        printed = capsys.readouterr().out
        assert "site graph:" in printed and "wrote" in printed
        assert (out_dir / "RootPage__.html").exists()
        assert (workspace / "site.json").exists()

    def test_build_incremental_cache(self, workspace, capsys):
        out_dir = workspace / "www"
        argv = ["build",
                "--data", str(workspace / "pubs.ddl"),
                "--query", str(workspace / "site.struql"),
                "--templates", str(workspace / "templates"),
                "--out", str(out_dir),
                "--cache-dir", str(workspace / "cache")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "cold" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "wrote 0 pages" in second
        # A template edit invalidates the whole cache.
        (workspace / "templates" / "RootPage.tmpl").write_text(
            "<h1>Pubs v2</h1><SFMTLIST @YearPage WRAP=UL>")
        assert main(argv) == 0
        third = capsys.readouterr().out
        assert "templates-changed" in third
        assert "v2" in (out_dir / "RootPage__.html").read_text()

    def test_build_incremental_flag_defaults_cache_dir(self, workspace,
                                                       capsys):
        out_dir = workspace / "www"
        argv = ["build",
                "--data", str(workspace / "pubs.ddl"),
                "--query", str(workspace / "site.struql"),
                "--templates", str(workspace / "templates"),
                "--out", str(out_dir),
                "--incremental"]
        assert main(argv) == 0
        capsys.readouterr()
        assert (out_dir / ".buildcache" / "manifest.json").exists()
        assert main(argv) == 0
        assert "wrote 0 pages" in capsys.readouterr().out

    def test_build_verify_failure_exit_code(self, workspace, capsys):
        code = main(["build",
                     "--data", str(workspace / "pubs.ddl"),
                     "--query", str(workspace / "site.struql"),
                     "--verify-root", "NoSuchRoot"])
        assert code == 1

    def test_schema_command(self, workspace, capsys):
        code = main(["schema", "--query", str(workspace / "site.struql")])
        assert code == 0
        printed = capsys.readouterr().out
        assert '(Q1 ^ Q2, "Paper", [v], [x])' in printed

    def test_schema_dot(self, workspace, capsys):
        main(["schema", "--query", str(workspace / "site.struql"),
              "--dot"])
        assert capsys.readouterr().out.startswith("digraph")

    def test_check_restricted(self, workspace, capsys):
        code = main(["check", "--query", str(workspace / "site.struql")])
        assert code == 0
        assert "range restricted" in capsys.readouterr().out

    def test_check_unrestricted(self, tmp_path, capsys):
        (tmp_path / "bad.struql").write_text("""
            input G
            where not(p -> l -> q)
            create f(p), f(q)
            link f(p) -> l -> f(q)
            output C
        """)
        code = main(["check", "--query", str(tmp_path / "bad.struql")])
        assert code == 2
        assert "warning" in capsys.readouterr().out

    def test_diff_command(self, workspace, capsys):
        # Build + save, then diff with modified data.
        main(["build",
              "--data", str(workspace / "pubs.ddl"),
              "--query", str(workspace / "site.struql"),
              "--site-json", str(workspace / "old.json")])
        capsys.readouterr()
        modified = FIG2_DDL + """
object pub3 in Publications { title "New" year 2002 }
"""
        (workspace / "pubs2.ddl").write_text(modified)
        code = main(["diff",
                     "--data", str(workspace / "pubs2.ddl"),
                     "--query", str(workspace / "site.struql"),
                     "--old-site", str(workspace / "old.json")])
        assert code == 3
        printed = capsys.readouterr().out
        assert "+ YearPage(2002)" in printed

    def test_diff_no_change(self, workspace, capsys):
        main(["build",
              "--data", str(workspace / "pubs.ddl"),
              "--query", str(workspace / "site.struql"),
              "--site-json", str(workspace / "old.json")])
        code = main(["diff",
                     "--data", str(workspace / "pubs.ddl"),
                     "--query", str(workspace / "site.struql"),
                     "--old-site", str(workspace / "old.json")])
        assert code == 0

    def test_error_reporting(self, tmp_path, capsys):
        (tmp_path / "broken.struql").write_text("this is not struql")
        code = main(["check", "--query", str(tmp_path / "broken.struql")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestTraceCommand:
    def test_trace_build_prints_span_tree(self, workspace, capsys):
        out_dir = workspace / "www"
        code = main(["trace",
                     "--metrics-out", str(workspace / "obs.json"),
                     "build",
                     "--data", str(workspace / "pubs.ddl"),
                     "--query", str(workspace / "site.struql"),
                     "--templates", str(workspace / "templates"),
                     "--out", str(out_dir)])
        assert code == 0
        printed = capsys.readouterr().out
        # Span tree covers mediator -> query -> construction -> render.
        for name in ("mediator.load", "struql.query", "struql.block",
                     "struql.construct", "site.generate", "render.page"):
            assert name in printed, name
        assert "repository.index" in printed
        document = json.loads((workspace / "obs.json").read_text())
        counters = document["metrics"]["counters"]
        assert "repository.index.hits" in counters
        assert "repository.index.misses" in counters
        assert counters["struql.rows_produced"] > 0
        histograms = document["metrics"]["histograms"]
        assert histograms["templates.render_seconds"]["count"] > 0
        assert "p50" in histograms["templates.render_seconds"]
        assert document["spans"], "expected recorded spans"

    def test_trace_leaves_recorder_disabled(self, workspace, capsys):
        from repro.obs import NULL_RECORDER, get_recorder
        main(["trace", "check",
              "--query", str(workspace / "site.struql")])
        assert get_recorder() is NULL_RECORDER

    def test_trace_without_command_errors(self, capsys):
        assert main(["trace"]) == 2
        assert "trace needs a command" in capsys.readouterr().err

    def test_trace_of_trace_rejected(self, capsys):
        assert main(["trace", "trace", "check"]) == 2


class TestSiteDot:
    def test_build_emits_dot(self, workspace, capsys):
        code = main(["build",
                     "--data", str(workspace / "pubs.ddl"),
                     "--query", str(workspace / "site.struql"),
                     "--site-dot", str(workspace / "site.dot")])
        assert code == 0
        dot = (workspace / "site.dot").read_text()
        assert dot.startswith("digraph")
        assert "YearPage(1997)" in dot


class TestTraceFlags:
    def test_trace_propagates_exit_code(self, tmp_path, capsys):
        """The wrapped command's non-zero exit code must survive."""
        (tmp_path / "bad.struql").write_text("""
            input G
            where not(p -> l -> q)
            create f(p), f(q)
            link f(p) -> l -> f(q)
            output C
        """)
        code = main(["trace", "--quiet", "check",
                     "--query", str(tmp_path / "bad.struql")])
        assert code == 2

    def test_trace_quiet_suppresses_tree(self, workspace, capsys):
        code = main(["trace", "--quiet", "check",
                     "--query", str(workspace / "site.struql")])
        assert code == 0
        printed = capsys.readouterr().out
        assert "== metrics" in printed
        assert "== trace" not in printed
        assert "== hotspots" not in printed

    def test_trace_prints_hotspots(self, workspace, capsys):
        main(["trace", "build",
              "--data", str(workspace / "pubs.ddl"),
              "--query", str(workspace / "site.struql")])
        printed = capsys.readouterr().out
        assert "== hotspots" in printed
        assert "self ms" in printed

    def test_trace_prom_and_events_out(self, workspace, capsys):
        """--prom-out writes the exposition; --events-out is gone (the
        spans and their notes go to --metrics-out)."""
        from repro import obs
        code = main(["trace", "--quiet",
                     "--prom-out", str(workspace / "m.prom"),
                     "--metrics-out", str(workspace / "obs.json"),
                     "build",
                     "--data", str(workspace / "pubs.ddl"),
                     "--query", str(workspace / "site.struql")])
        assert code == 0
        parsed = obs.parse_prometheus((workspace / "m.prom").read_text())
        names = {n for n, _, _ in parsed["samples"]}
        assert any(n.startswith("strudel_struql") for n in names)
        spans, _ = obs.from_json((workspace / "obs.json").read_text())
        assert any(span.name == "mediator.fetch"
                   for root in spans for span in root.walk())
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "--events-out", str(workspace / "e.jsonl"),
                  "check", "--query", str(workspace / "site.struql")])
        assert exit_info.value.code == 2
        assert not (workspace / "e.jsonl").exists()


class TestMonitorCommand:
    def test_monitor_build_generates_dashboard(self, workspace, capsys,
                                               monkeypatch, tmp_path):
        # monitor claims the last --out for the dashboard, so the
        # wrapped build falls back to its default ./www — keep that
        # out of the repo tree.
        monkeypatch.chdir(tmp_path)
        out = workspace / "dash"
        code = main(["monitor", "build",
                     "--data", str(workspace / "pubs.ddl"),
                     "--query", str(workspace / "site.struql"),
                     "--templates", str(workspace / "templates"),
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "monitoring dashboard" in printed
        assert (out / "Dashboard__.html").exists()
        assert (out / "StageIndex__.html").exists()
        assert (out / "metrics.prom").exists()
        assert not (out / "events.jsonl").exists()
        assert (out / "EventsPage__.html").exists()
        dashboard = (out / "Dashboard__.html").read_text()
        assert "STRUDEL Monitor" in dashboard

    def test_monitor_out_before_command(self, workspace, capsys):
        out = workspace / "dash2"
        www = workspace / "www2"
        code = main(["monitor", "--out", str(out), "build",
                     "--data", str(workspace / "pubs.ddl"),
                     "--query", str(workspace / "site.struql"),
                     "--templates", str(workspace / "templates"),
                     "--out", str(www)])
        assert code == 0
        # Both the built site and the dashboard land where asked.
        assert (www / "RootPage__.html").exists()
        assert (out / "Dashboard__.html").exists()

    def test_monitor_propagates_exit_code(self, tmp_path, capsys):
        (tmp_path / "bad.struql").write_text("not a query")
        code = main(["monitor", "--out", str(tmp_path / "d"),
                     "check", "--query", str(tmp_path / "bad.struql")])
        assert code == 1

    def test_monitor_without_command_errors(self, capsys):
        assert main(["monitor"]) == 2
        assert "monitor needs a command" in capsys.readouterr().err

    def test_monitor_cannot_wrap_itself(self, tmp_path, capsys):
        assert main(["monitor", "--out", str(tmp_path / "d"),
                     "monitor", "check"]) == 2
        assert main(["monitor", "--out", str(tmp_path / "d"),
                     "trace", "check"]) == 2


class TestServeCommandErrors:
    def test_serve_needs_a_command(self, capsys):
        assert main(["serve"]) == 2
        assert "serve needs a command" in capsys.readouterr().err

    def test_serve_cannot_wrap_itself(self, capsys):
        assert main(["serve", "serve", "build"]) == 2
        assert "cannot wrap" in capsys.readouterr().err

    def test_serve_only_wraps_build(self, workspace, capsys):
        code = main(["serve", "schema",
                     "--query", str(workspace / "site.struql")])
        assert code == 2
        assert "wraps 'build'" in capsys.readouterr().err

    def test_serve_requires_templates(self, workspace, capsys):
        code = main(["serve", "build",
                     "--data", str(workspace / "pubs.ddl"),
                     "--query", str(workspace / "site.struql")])
        assert code == 2
        assert "--templates" in capsys.readouterr().err


class TestExplainCommand:
    def test_plan_only_text(self, workspace, capsys):
        code = main(["explain",
                     "--query", str(workspace / "site.struql"),
                     "--data", str(workspace / "pubs.ddl")])
        assert code == 0
        printed = capsys.readouterr().out
        assert "fingerprint=" in printed
        assert "optimizer=cost" in printed
        assert "est~" in printed
        assert "via " in printed
        assert "decisions:" in printed
        # Plan-only must not execute: no actual row counts reported.
        assert "actual=" not in printed

    def test_analyze_text(self, workspace, capsys):
        code = main(["explain", "--analyze",
                     "--query", str(workspace / "site.struql"),
                     "--data", str(workspace / "pubs.ddl")])
        assert code == 0
        printed = capsys.readouterr().out
        assert "actual=" in printed and "ms" in printed

    def test_analyze_json_document(self, workspace, capsys):
        code = main(["explain", "--analyze", "--json",
                     "--query", str(workspace / "site.struql"),
                     "--data", str(workspace / "pubs.ddl")])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["analyze"] is True
        assert document["fingerprint"]
        assert document["optimizer"] == "cost"
        assert document["blocks"]
        block = document["blocks"][0]
        assert {"label", "plan", "estimated_rows", "decisions"} <= set(block)
        assert "ops" in block and "actual_rows" in block
        assert "summary" in document and "misestimates" in document

    def test_plan_only_json(self, workspace, capsys):
        code = main(["explain", "--json",
                     "--query", str(workspace / "site.struql"),
                     "--data", str(workspace / "pubs.ddl")])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["analyze"] is False
        assert all("ops" not in b for b in document["blocks"])

    def test_optimizer_choice(self, workspace, capsys):
        code = main(["explain", "--optimizer", "heuristic",
                     "--query", str(workspace / "site.struql"),
                     "--data", str(workspace / "pubs.ddl")])
        assert code == 0
        assert "optimizer=heuristic" in capsys.readouterr().out

    def test_analyze_rejects_params(self, tmp_path, capsys, monkeypatch):
        # Parametrized queries only arise programmatically (form
        # inputs), so stub the reader to return one.
        import repro.cli as cli
        from repro.struql import parse_query

        query = parse_query("""
            input G
            where Root(x), x = root
            collect Out(x)
            output O
        """, params=("root",))
        monkeypatch.setattr(cli, "_read_query", lambda path: query)
        code = main(["explain", "--analyze", "--query", "ignored"])
        assert code == 2
        assert "--analyze" in capsys.readouterr().err


def _trailing_json(text: str) -> dict:
    """Parse the JSON document printed after wrapped-command output."""
    start = text.index("\n{\n")
    return json.loads(text[start:])


class TestTraceJsonAndProfile:
    def test_trace_profile_prints_hotspots_only(self, workspace, capsys):
        code = main(["trace", "--profile", "check",
                     "--query", str(workspace / "site.struql")])
        assert code == 0
        printed = capsys.readouterr().out
        assert "hotspots" in printed
        assert "== trace" not in printed
        assert "== metrics" not in printed

    def test_trace_json_document(self, workspace, capsys):
        code = main(["trace", "--json", "build",
                     "--data", str(workspace / "pubs.ddl"),
                     "--query", str(workspace / "site.struql")])
        assert code == 0
        document = _trailing_json(capsys.readouterr().out)
        assert {"profile", "metrics", "notes"} <= set(document)
        assert "events" not in document
        assert document["notes"] == []  # a clean build notes nothing
        assert any(entry["name"] == "struql.query"
                   for entry in document["profile"])
        entry = document["profile"][0]
        assert {"name", "calls", "self_seconds", "cum_seconds",
                "mean_seconds"} <= set(entry)

    def test_trace_json_profile_narrows(self, workspace, capsys):
        code = main(["trace", "--json", "--profile", "check",
                     "--query", str(workspace / "site.struql")])
        assert code == 0
        document = _trailing_json(capsys.readouterr().out)
        assert set(document) == {"profile"}


class TestWhyCommand:
    def _argv(self, workspace, *extra):
        return ["why",
                "--data", str(workspace / "pubs.ddl"),
                "--query", str(workspace / "site.struql"),
                "--templates", str(workspace / "templates"),
                *extra]

    def test_list_prints_every_page(self, workspace, capsys):
        code = main(self._argv(workspace, "--list"))
        assert code == 0
        printed = capsys.readouterr().out
        assert "RootPage__.html" in printed
        # url <tab> oid <tab> template rows.
        row = next(line for line in printed.splitlines()
                   if line.startswith("RootPage__.html"))
        assert row.split("\t") == ["RootPage__.html", "RootPage()",
                                   "RootPage"]

    def test_why_page_renders_full_chain(self, workspace, capsys):
        code = main(self._argv(workspace, "RootPage__.html"))
        assert code == 0
        printed = capsys.readouterr().out
        assert "template RootPage" in printed
        assert "Skolem RootPage" in printed
        assert "sources:" in printed
        assert "pubs.ddl" in printed

    def test_why_json_document(self, workspace, capsys):
        code = main(self._argv(workspace, "RootPage__.html", "--json"))
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["derivation"]["fn"] == "RootPage"
        assert any(entry["source"] == "pubs.ddl"
                   for entry in document["sources"])
        assert document["template"] == "RootPage"

    def test_why_resolves_oid_display_name(self, workspace, capsys):
        code = main(self._argv(workspace, "YearPage(1997)", "--json"))
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["derivation"]["fn"] == "YearPage"

    def test_why_unknown_target(self, workspace, capsys):
        code = main(self._argv(workspace, "NoSuchPage__.html"))
        assert code == 1
        assert "no lineage" in capsys.readouterr().err

    def test_why_without_target_errors(self, workspace, capsys):
        code = main(self._argv(workspace))
        assert code == 2
        assert "TARGET" in capsys.readouterr().err

    def test_why_leaves_lineage_disabled(self, workspace, capsys):
        from repro.obs.lineage import get_lineage
        main(self._argv(workspace, "--list"))
        assert not get_lineage().enabled


class TestSloCheckCommand:
    """Issue 9: the offline SLO gate (repro slo check)."""

    def _snapshot(self, tmp_path, *, firing=False, violated=False):
        alert_state = "firing" if firing else "ok"
        document = {
            "metrics": {"counters": {"server.requests": 100}},
            "slo": {
                "ticks": 10,
                "slos": [{
                    "name": "server-availability",
                    "objective": "99% of server.requests good",
                    "burn_rate": 20.0 if violated else 0.1,
                    "violated": violated,
                }],
                "alerts": [{
                    "name": "server-availability:page",
                    "state": alert_state,
                    "long_burn": 20.0, "short_burn": 25.0,
                    "factor": 14.4,
                }],
                "firing": 1 if firing else 0,
            },
        }
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps(document))
        return str(path)

    def test_healthy_snapshot_passes(self, tmp_path, capsys):
        assert main(["slo", "check",
                     self._snapshot(tmp_path)]) == 0
        printed = capsys.readouterr().out
        assert "slo check: ok" in printed
        assert "ok  server-availability" in printed

    def test_firing_snapshot_fails(self, tmp_path, capsys):
        code = main(["slo", "check",
                     self._snapshot(tmp_path, firing=True,
                                    violated=True)])
        assert code == 1
        printed = capsys.readouterr().out
        assert "VIOLATED" in printed
        assert "FIRING  server-availability:page" in printed
        assert "slo check: FAIL (1 violated, 1 firing)" in printed

    def test_snapshot_without_slo_state(self, tmp_path, capsys):
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps({"slo": {}, "metrics": {}}))
        assert main(["slo", "check", str(path)]) == 0
        assert "without SLO evaluation" in capsys.readouterr().out

    def test_obs_export_violation(self, tmp_path, capsys):
        path = tmp_path / "export.json"
        path.write_text(json.dumps({"metrics": {"counters": {
            "server.requests": 100, "server.errors": 50}}}))
        assert main(["slo", "check", str(path)]) == 1
        printed = capsys.readouterr().out
        assert "VIOLATED  server-availability" in printed
        assert "slo check: FAIL" in printed

    def test_obs_export_healthy(self, tmp_path, capsys):
        path = tmp_path / "export.json"
        path.write_text(json.dumps({"metrics": {"counters": {
            "server.requests": 10000}}}))
        assert main(["slo", "check", str(path)]) == 0
        assert "slo check: ok" in capsys.readouterr().out

    def test_snapshot_with_matview_section(self, tmp_path, capsys):
        """A current snapshot's matview section is summarized."""
        path = tmp_path / "snapshot.json"
        document = json.loads(
            open(self._snapshot(tmp_path), encoding="utf-8").read())
        document["matviews"] = {
            "enabled": True, "views": 7, "hits": 42, "misses": 9,
            "invalidations": 3, "views_dropped": 5,
        }
        path.write_text(json.dumps(document))
        assert main(["slo", "check", str(path)]) == 0
        printed = capsys.readouterr().out
        assert "matviews: 7 views, 42 hits / 9 misses, " \
            "3 invalidations (5 views dropped)" in printed

    def test_snapshot_predating_matviews_still_checks(self, tmp_path,
                                                      capsys):
        """Snapshots from versions without the matview section (or
        with a malformed one) must neither crash nor print it."""
        assert main(["slo", "check",
                     self._snapshot(tmp_path)]) == 0
        printed = capsys.readouterr().out
        assert "slo check: ok" in printed
        assert "matviews:" not in printed
        # A malformed section is ignored the same way.
        path = tmp_path / "weird.json"
        document = json.loads(
            open(self._snapshot(tmp_path), encoding="utf-8").read())
        document["matviews"] = "not-a-dict"
        path.write_text(json.dumps(document))
        assert main(["slo", "check", str(path)]) == 0
        assert "matviews:" not in capsys.readouterr().out

    def test_prometheus_dump(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        path.write_text(
            "strudel_server_requests_total 100\n"
            "strudel_server_errors_total 50\n")
        assert main(["slo", "check", str(path)]) == 1
        assert "VIOLATED  server-availability" in \
            capsys.readouterr().out

    def test_prometheus_dump_sums_labeled_errors(self, tmp_path, capsys):
        # Neither error kind alone breaks the 99% target; their sum
        # does (0.6% + 0.6% of 1000 requests is a 1.2x burn).
        path = tmp_path / "metrics.prom"
        path.write_text(
            "strudel_server_requests_total 1000\n"
            'strudel_server_errors_total{kind="not_found"} 6\n'
            'strudel_server_errors_total{kind="internal"} 6\n')
        assert main(["slo", "check", str(path)]) == 1
        assert "VIOLATED  server-availability" in \
            capsys.readouterr().out
        path.write_text(
            "strudel_server_requests_total 1000\n"
            'strudel_server_errors_total{kind="not_found"} 6\n')
        assert main(["slo", "check", str(path)]) == 0

    def test_prometheus_histogram_dump(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        path.write_text(
            'strudel_server_request_seconds_bucket{le="0.25"} 1\n'
            'strudel_server_request_seconds_bucket{le="0.5"} 100\n'
            'strudel_server_request_seconds_bucket{le="+Inf"} 100\n'
            "strudel_server_request_seconds_count 100\n"
            "strudel_server_request_seconds_sum 99.0\n")
        assert main(["slo", "check", str(path)]) == 1
        assert "VIOLATED  server-latency" in capsys.readouterr().out

    def test_prometheus_without_relevant_samples(self, tmp_path,
                                                 capsys):
        path = tmp_path / "metrics.prom"
        path.write_text("unrelated_total 5\n")
        assert main(["slo", "check", str(path)]) == 2
        assert "no SLO-relevant" in capsys.readouterr().err

    def test_missing_dump(self, tmp_path, capsys):
        assert main(["slo", "check",
                     str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_json_array_rejected(self, tmp_path, capsys):
        path = tmp_path / "weird.json"
        path.write_text("[1, 2]")
        assert main(["slo", "check", str(path)]) == 2
        assert "expected a JSON object" in capsys.readouterr().err

    def test_json_without_metrics_rejected(self, tmp_path, capsys):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({"foo": 1}))
        assert main(["slo", "check", str(path)]) == 2
        assert "neither a snapshot.json" in capsys.readouterr().err

    def test_custom_config_changes_the_verdict(self, tmp_path,
                                               capsys):
        dump = tmp_path / "export.json"
        dump.write_text(json.dumps({"counters": {
            "req": 100, "err": 30}}))
        lax = tmp_path / "lax.toml"
        lax.write_text('[[slo]]\nname = "avail"\n'
                       'kind = "availability"\n'
                       'total = "req"\nbad = "err"\ntarget = 0.5\n')
        strict = tmp_path / "strict.toml"
        strict.write_text('[[slo]]\nname = "avail"\n'
                          'kind = "availability"\n'
                          'total = "req"\nbad = "err"\n'
                          'target = 0.99\n')
        assert main(["slo", "check", str(dump),
                     "--config", str(lax)]) == 0
        capsys.readouterr()
        assert main(["slo", "check", str(dump),
                     "--config", str(strict)]) == 1
        assert "VIOLATED  avail" in capsys.readouterr().out

    def test_bad_config_path(self, tmp_path, capsys):
        dump = tmp_path / "export.json"
        dump.write_text(json.dumps({"counters": {"req": 1}}))
        assert main(["slo", "check", str(dump),
                     "--config", str(tmp_path / "nope.toml")]) == 2
        assert "bad --config" in capsys.readouterr().err

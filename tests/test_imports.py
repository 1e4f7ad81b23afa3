"""Import budget: a module loads only what it runs.

The package facades resolve their public names on first access
(:mod:`repro.facade`), and the build and serve paths and the CLI's
commands import optional subsystems where they use them.  Each check
runs in a fresh interpreter, because this test process has long since
imported everything.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: What a click-time server never runs: the telemetry plane and its
#: exporters, the other reference sites, the DDL parser, verification,
#: forms, the XML/JSON wrappers, and the stdlib's HTML and XML packages.
NOT_SERVED = [
    "repro.obs.slo",
    "repro.obs.promexport",
    "repro.obs.export",
    "repro.obs.http",
    "repro.sites.monitor",
    "repro.sites.cnn",
    "repro.sites.rodin",
    "repro.ddl",
    "repro.site.verify",
    "repro.site.forms",
    "repro.wrappers.xml_wrapper",
    "repro.wrappers.json_wrapper",
    "html",
    "xml",
]


#: What the CLI module loads only in the commands or loader branches that
#: use it: verification, the DDL parser, the XML wrapper with the
#: stdlib's XML package, and graph serialization.
NOT_IMPORTED_BY_CLI = [
    "repro.site.verify",
    "repro.ddl",
    "repro.wrappers.xml_wrapper",
    "repro.graph.serialization",
    "xml",
]


def run_fresh(code: str):
    """Run ``code`` in a new interpreter; return what it prints as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_a_click_time_server_imports_no_optional_subsystem():
    loaded = run_fresh(
        "import json, sys\n"
        "import repro.site.server, repro.sites.homepage\n"
        f"print(json.dumps([m for m in {NOT_SERVED!r} "
        "if m in sys.modules]))\n")
    assert loaded == []


def test_the_cli_imports_only_what_a_command_runs():
    loaded = run_fresh(
        "import json, sys\n"
        "import repro.cli\n"
        f"print(json.dumps([m for m in {NOT_IMPORTED_BY_CLI!r} "
        "if m in sys.modules]))\n")
    assert loaded == []
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "repro", "--help"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves_and_is_listed():
    problems = run_fresh("""
import importlib, json, pkgutil
import repro
problems = []
packages = ["repro"] + [info.name for info in pkgutil.walk_packages(
    repro.__path__, "repro.") if info.ispkg]
for name in packages:
    package = importlib.import_module(name)
    listed = dir(package)
    for export in package.__all__:
        if export not in listed:
            problems.append(f"{name}.{export} not in dir()")
        try:
            getattr(package, export)
        except AttributeError as error:
            problems.append(f"{name}.{export}: {error}")
if repro.site.buildcache is not importlib.import_module(
        "repro.site.buildcache"):
    problems.append("repro.site.buildcache is not the submodule")
try:
    repro.graph.no_such_name
    problems.append("repro.graph.no_such_name resolved")
except AttributeError:
    pass
print(json.dumps([len(packages), problems]))
""")
    count, found = problems
    assert count == 14
    assert found == []


@pytest.mark.parametrize("name", ["naive", "heuristic", "cost"])
def test_optimizer_by_name_in_a_fresh_interpreter(name):
    """No import has to register an optimizer before it is asked for."""
    chosen = run_fresh(
        "import json\n"
        "from repro.struql.evaluator import QueryEngine\n"
        f"engine = QueryEngine(optimizer={name!r})\n"
        "print(json.dumps(engine.optimizer.name))\n")
    assert chosen == name

"""Benchmark harness plumbing.

Besides pytest-benchmark timings, every experiment records
paper-vs-measured rows through the ``experiment`` fixture; a terminal
summary prints them as tables at the end of the run, which is the
console form of EXPERIMENTS.md.

These tests check the shapes of the paper's results.  Timings that
gate a change come from ``bench/run.py`` and ``bench.compare``, which
run with observability off and report their spread.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest

#: experiment id -> list of row dicts, in insertion order.
_REPORT: "OrderedDict[str, list[dict]]" = OrderedDict()


class ExperimentRecorder:
    """Collects result rows for one experiment id."""

    def __init__(self, experiment_id: str) -> None:
        self.experiment_id = experiment_id

    def row(self, **values) -> None:
        """Record one result row (printed in the terminal summary)."""
        _REPORT.setdefault(self.experiment_id, []).append(values)


@pytest.fixture
def experiment(request) -> ExperimentRecorder:
    """Recorder named after the test module's experiment id."""
    module = request.module.__name__
    exp_id = getattr(request.module, "EXPERIMENT", module)
    return ExperimentRecorder(exp_id)


def _format_table(rows: list[dict]) -> str:
    columns = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    widths = {c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows))
              for c in columns}
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    separator = "  ".join("-" * widths[c] for c in columns)
    lines = [header, separator]
    for row in rows:
        lines.append("  ".join(
            str(row.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def pytest_terminal_summary(terminalreporter):
    if not _REPORT:
        return
    terminalreporter.write_sep("=", "experiment results (paper vs measured)")
    for exp_id, rows in _REPORT.items():
        terminalreporter.write_line("")
        terminalreporter.write_line(f"## {exp_id}")
        terminalreporter.write_line(_format_table(rows))
    _REPORT.clear()

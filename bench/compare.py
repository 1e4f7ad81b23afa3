"""Compare two sets of benchmark runs, metric by metric.

    python3 -m bench.compare A.json B.json

``A.json`` (the parent) and ``B.json`` (the change) come from
``bench/run.py --repeat K --out FILE`` with the same ``--seed``, so run
*i* of each side used the same inputs.  For every workload it prints a
row per metric: each side's median and quartiles, how many same-seed
pairs B wins (ties count for neither), and a verdict.

An end-to-end metric (from the ``--trace 0`` runs) has a bound in
``BENCHMARK.json``; its verdict is the first that applies:

1. ``ok`` — every B run beats every A run;
2. ``regressed`` — B's median is worse than A's by more than the bound,
   and either both sides' quartile spreads are within the bound or B's
   quartile range lies wholly beyond A's (a move larger than the bound
   and outside A's own spread);
3. ``unresolved`` — either side's spread exceeds the bound;
4. ``ok``.

A per-layer metric (from the ``--trace 1`` runs) has no bound.  With
fewer than ten pairs it is ``unresolved``.  Otherwise it is
``regressed`` when B loses at least nine tenths of the pairs and its
median is worse than A's by more than the distance between A's
quartiles, ``improved`` in the mirror case, and ``ok`` otherwise.

An ``error_rate`` row (failed / attempted over all runs, bound +0)
regresses when B fails more often than A.  The exit status is 1 when
anything a user sees regressed: an end-to-end metric, the error rate,
or one of the operation latencies in ``USER_FACING``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

#: Per-layer metrics that a user sees: the untraced operation
#: latencies, per-layer only because they repeat too loosely on a
#: shared host to carry a bound.
USER_FACING = ("op_p50_ms", "op_p99_ms", "ops_per_s", "update_p50_ms")

#: Share of the pairs B must lose (or win) for a per-layer verdict,
#: and the fewest pairs that rule judges: below ten, losing every pair
#: happens by chance too often (one time in eight with three).
PAIR_SHARE = 0.9
MIN_PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def by_workload(document: dict, trace: int) -> dict[str, list[dict]]:
    """The runs of one trace mode per workload, in seed order."""
    runs = defaultdict(list)
    for run in sorted(document["runs"], key=lambda r: r["seed"]):
        if run["trace"] == trace:
            runs[run["workload"]].append(run)
    return runs


def verdict(a: list[float], b: list[float], bound: float,
            lower_is_better: bool) -> str:
    """The verdict on an end-to-end metric with a bound."""
    sign = 1 if lower_is_better else -1
    if max(sign * x for x in b) < min(sign * x for x in a):
        return "ok"  # every B run beats every A run
    a_q1, a_median, a_q3 = quartiles(a)
    b_q1, b_median, b_q3 = quartiles(b)
    worse = sign * (b_median - a_median) / abs(a_median)
    noisy = max(spread(a), spread(b)) > bound
    # B's quartile range lies wholly on the worse side of A's.
    apart = b_q1 > a_q3 if lower_is_better else b_q3 < a_q1
    if worse > bound and (apart or not noisy):
        return "regressed"
    return "unresolved" if noisy else "ok"


def paired_verdict(a: list[float], b: list[float],
                   lower_is_better: bool) -> str:
    """The verdict on a per-layer metric, which has no bound."""
    sign = 1 if lower_is_better else -1
    pairs = list(zip(a, b))
    if len(pairs) < MIN_PAIRS:
        return "unresolved"
    lost = sum(1 for x, y in pairs if sign * (y - x) > 0)
    won = sum(1 for x, y in pairs if sign * (y - x) < 0)
    a_q1, a_median, a_q3 = quartiles(a)
    shift = sign * (quartiles(b)[1] - a_median)
    if shift > a_q3 - a_q1 and lost >= PAIR_SHARE * len(pairs):
        return "regressed"
    if -shift > a_q3 - a_q1 and won >= PAIR_SHARE * len(pairs):
        return "improved"
    return "ok"


def metric_rows(workload: str, a_side: list[dict], b_side: list[dict],
                metrics: list[dict]) -> list[dict]:
    """One row per metric that every run of both sides reports."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        if not all(name in run["result"]["metrics"]
                   for run in a_side + b_side):
            continue
        a, b = ([run["result"]["metrics"][name]["value"] for run in side]
                for side in (a_side, b_side))
        lower = metric["better"] == "lower"
        bound = metric.get("bound")
        rows.append({
            "workload": workload, "metric": name, "unit": metric["unit"],
            "bound": bound, "a": quartiles(a), "b": quartiles(b),
            "wins": sum(1 for x, y in zip(a, b)
                        if (y < x if lower else y > x)),
            "pairs": min(len(a), len(b)),
            "verdict": paired_verdict(a, b, lower) if bound is None
            else verdict(a, b, bound, lower),
        })
    return rows


def compare(a_doc: dict, b_doc: dict, spec: dict) -> list[dict]:
    """Rows for every (workload, metric) present on both sides."""
    rows = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        a_runs, b_runs = by_workload(a_doc, trace), by_workload(b_doc, trace)
        for workload in sorted(set(a_runs) & set(b_runs)):
            rows += metric_rows(workload, a_runs[workload],
                                b_runs[workload], spec[kind])
    for workload in sorted({r["workload"] for r in a_doc["runs"]}
                           & {r["workload"] for r in b_doc["runs"]}):
        a_rate, b_rate = (
            sum(r["result"]["failed"] for r in side)
            / sum(r["result"]["attempted"] for r in side)
            for side in ([r for r in doc["runs"]
                          if r["workload"] == workload]
                         for doc in (a_doc, b_doc)))
        rows.append({
            "workload": workload, "metric": "error_rate",
            "unit": "failed/attempted", "bound": 0.0,
            "a": (a_rate,) * 3, "b": (b_rate,) * 3,
            "wins": 0, "pairs": 0,
            "verdict": "regressed" if b_rate > a_rate else "ok",
        })
    return rows


def gating(row: dict) -> bool:
    """Whether a regression in ``row`` fails the comparison."""
    return row["bound"] is not None or row["metric"] in USER_FACING


def render(rows: list[dict]) -> str:
    width = max([len("metric")] + [len(row["metric"]) for row in rows])
    lines = [f"{'workload':<17} {'metric':<{width}} "
             f"{'A median [q1, q3]':>30} {'B median [q1, q3]':>30} "
             f"{'B wins':>7} {'bound':>6} verdict"]
    for row in rows:
        cells = []
        for side in ("a", "b"):
            q1, median, q3 = row[side]
            cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
        bound = "-" if row["bound"] is None else f"{row['bound']:.2f}"
        lines.append(
            f"{row['workload']:<17} {row['metric']:<{width}} "
            f"{cells[0]:>30} {cells[1]:>30} "
            f"{row['wins']:>3}/{row['pairs']:<3} {bound:>6} "
            f"{row['verdict']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    from bench.run import load_spec

    parser = argparse.ArgumentParser(
        description="Judge run set B against run set A.")
    parser.add_argument("a", help="parent runs (bench/run.py --out)")
    parser.add_argument("b", help="changed runs (bench/run.py --out)")
    args = parser.parse_args(argv)
    documents = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    rows = compare(*documents, load_spec())
    print(render(rows))
    return 1 if any(row["verdict"] == "regressed" and gating(row)
                    for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the STRUDEL benchmark.

One workload, in this process (the form ``BENCHMARK.json`` names)::

    python3 bench/run.py --workload org_build_cold --seed 1 --seconds 10 --trace 0

sets the workload up five times (``setup_s`` is the median), measures
for ``--seconds`` and checks the outputs.  It prints every metric with
its unit, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics (set-up time and peak memory), measured
with observability off; ``--trace 1`` reports the per-layer metrics of
``BENCHMARK.json``: half of ``--seconds`` runs plain and gives the
operation latencies, half runs with the layer wrappers of
``bench.tracer`` installed and gives the layer breakdown, and the span
tree is written to ``bench/out/<workload>.trace.json``.

Several runs, each in its own fresh subprocess::

    python3 bench/run.py --seed 1 --repeat 3 --out a.json

runs every workload (or the one ``--workload`` names) ``--repeat``
times with seeds ``--seed``, ``--seed``+1, ..., in both trace modes
unless ``--trace`` picks one, and writes the results to ``--out`` for
``python3 -m bench.compare``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))

from bench import ROOT, SRC  # noqa: E402

SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, "bench", "out")

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 5

#: A child run that takes longer than this is killed and reported.
CHILD_TIMEOUT_S = 900


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def query_peak_alloc_mb(workload) -> float:
    """Peak traced allocation of one full evaluation of the site query."""
    from repro.struql.evaluator import QueryEngine
    query, data = workload.query_input()
    gc.collect()
    tracemalloc.start()
    try:
        QueryEngine().evaluate(query, data)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def end_to_end(setups: list[float], rss_mb: float) -> dict[str, float]:
    return {"setup_s": statistics.median(setups), "peak_rss_mb": rss_mb}


def latency(outcome) -> dict[str, float]:
    """The operation latencies of one untraced loop."""
    return {
        "op_p50_ms": statistics.median(outcome.latencies) * 1000,
        "op_p99_ms": percentile(outcome.latencies, 0.99) * 1000,
        "ops_per_s": outcome.attempted / outcome.busy_seconds,
        "update_p50_ms": statistics.median(outcome.updates) * 1000
        if outcome.updates else 0.0,
    }


def per_layer(plain, traced, tracer, lock, before: dict, after: dict,
              alloc_mb: float) -> dict[str, float]:
    """Layer metrics of the traced loop, per operation unless named
    otherwise; ``plain`` is the untraced loop of the same run."""
    from bench.tracer import OP_KINDS

    ops = traced.attempted
    counts = tracer.counts
    delta = {key: after[key] - before.get(key, 0) for key in after}

    def per_op(key: str) -> float:
        return counts[key] / ops

    def hit_ratio(cache: str) -> float:
        hits = delta.get(f"{cache}hits", 0)
        return ratio(hits, hits + delta.get(f"{cache}misses", 0))

    metrics = {name: seconds / ops
               for name, seconds in tracer.time_metrics().items()}
    metrics.update({
        "wrappers.calls": per_op("wrappers.calls"),
        "repository.index_builds": per_op("repository.index_build.calls"),
        "struql.parses": per_op("struql.parse.calls"),
        "struql.optimize_calls": per_op("struql.optimize.order.calls"),
        "struql.evaluate.calls": per_op("struql.evaluate.calls"),
        "struql.skolem_mints": per_op("struql.skolem_mints"),
        "struql.peak_alloc_mb": alloc_mb,
        "templates.renders": per_op("templates.render.calls"),
        "templates.bytes_out": per_op("templates.bytes_out"),
        "buildcache.pages_rendered": per_op("buildcache.pages_rendered"),
        "buildcache.hit_ratio": ratio(
            counts["buildcache.pages_skipped"],
            counts["buildcache.pages_rendered"]
            + counts["buildcache.pages_skipped"]),
        "incremental.page_computes":
            delta.get("site.pages_computed", 0) / ops,
        "incremental.unit_evaluations":
            delta.get("site.unit_evaluations", 0) / ops,
        "incremental.page_hit_ratio": hit_ratio("site.page_cache_"),
        "incremental.bindings_hit_ratio": hit_ratio("site.bindings_cache_"),
        "incremental.lock_hold_s": lock.held_seconds / ops if lock else 0.0,
        "incremental.lock_acquires": lock.acquires / ops if lock else 0.0,
        "matview.hit_ratio": hit_ratio("matview."),
        "matview.views_dropped_per_update": ratio(
            delta.get("matview.views_dropped", 0), len(traced.updates)),
        "matview.singleflight_waits":
            delta.get("matview.singleflight_waits", 0),
        "traced_op_s": tracer.total_seconds() / ops,
        "trace_overhead_pct": 100 * (
            tracer.total_seconds() / ops
            / (plain.busy_seconds / plain.attempted) - 1),
        **latency(plain),
    })
    for kind in OP_KINDS:
        for side in ("rows_in", "rows_out"):
            key = f"struql.op.{kind}.{side}"
            metrics[key] = per_op(key)
    return metrics


def write_trace(name: str, seed: int, traced, tracer) -> str:
    from repro.obs.export import span_to_dict
    path = os.path.join(OUT_DIR, f"{name}.trace.json")
    document = {"workload": name, "seed": seed, "ops": traced.attempted,
                "updates": len(traced.updates),
                "counts": dict(sorted(tracer.counts.items())),
                "spans": [span_to_dict(root) for root in tracer.roots]}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    return path


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setups: int = SETUPS) -> dict:
    """One run of one workload in this process; returns the result
    object (``correct``/``attempted``/``failed``/``metrics``).

    ``setups`` only shortens the harness's own tests; a traced run
    always sets up once.
    """
    from bench.tracer import LockTimer, Tracer, install
    from bench.workloads import WORKLOADS

    spec = load_spec()
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        workload = WORKLOADS[name](seed, workdir)
        setup_seconds = [workload.setup()
                         for _ in range(1 if trace else setups)]
        gc.collect()
        if not trace:
            outcome = workload.run(seconds)
            # Read before the checks allocate.
            values = end_to_end(setup_seconds, peak_rss_mb())
            outcomes = [outcome]
        else:
            plain = workload.run(seconds / 2)
            tracer = Tracer()
            server = workload.server
            lock = LockTimer(server.site.lock) if server else None
            before = workload.stats()
            patches = install(tracer)
            if lock:
                server.site.lock = lock
            try:
                traced = workload.run(seconds / 2, tracer)
            finally:
                patches.restore()
                if lock:
                    server.site.lock = lock.lock
            after = workload.stats()
            values = per_layer(plain, traced, tracer, lock, before, after,
                               query_peak_alloc_mb(workload))
            print(f"trace: {write_trace(name, seed, traced, tracer)}")
            outcomes = [plain, traced]
        problems = workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(values) != set(units):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = sum(o.attempted for o in outcomes)
    failed = min(attempted, sum(o.failed for o in outcomes)
                 + len(problems))
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {metric: {"value": values[metric],
                                 "unit": units[metric]}
                        for metric in units}}


#: What a summary line shows of a traced run: the untraced latencies.
TRACED_SUMMARY = ("op_p50_ms", "op_p99_ms", "ops_per_s")


def orchestrate(names: list[str], seed: int, seconds: float,
                traces: tuple[int, ...], repeat: int) -> dict:
    """Each (repetition, workload, trace mode) in a fresh subprocess,
    in turn."""
    runs = []
    for rep, name, trace in itertools.product(range(repeat), names, traces):
        run_seed = seed + rep
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(run_seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"{name} seed {run_seed} exited "
                             f"{proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            # The failed checks and the first traceback.
            sys.stderr.write(proc.stderr)
        runs.append({"workload": name, "seed": run_seed,
                     "trace": trace, "result": result})
        shown = TRACED_SUMMARY if trace else result["metrics"]
        summary = "  ".join(
            f"{metric}={result['metrics'][metric]['value']:.4g} "
            f"{result['metrics'][metric]['unit']}" for metric in shown)
        print(f"{name} seed={run_seed} trace={trace} "
              f"correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              f"{summary}", flush=True)
    return {"seconds": seconds, "runs": runs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        help="one workload (default: all, in subprocesses)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: per-layer metrics (default: 0 for one "
                             "run; both modes with --repeat/--out)")
    parser.add_argument("--repeat", type=int, default=None,
                        help="runs per workload, each in a subprocess")
    parser.add_argument("--out", help="write all runs' results here")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"bench: no program sources at {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    from bench.workloads import WORKLOADS
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    seconds = args.seconds or spec["run_seconds"]

    if args.workload and args.repeat is None and args.out is None:
        result = run_workload(args.workload, args.seed, seconds,
                              bool(args.trace))
        for metric, entry in result["metrics"].items():
            print(f"{metric:<42} {entry['value']:.6g} {entry['unit']}")
        print(json.dumps(result))
        return 0
    names = [args.workload] if args.workload else list(WORKLOADS)
    traces = (0, 1) if args.trace is None else (args.trace,)
    document = orchestrate(names, args.seed, seconds, traces,
                           args.repeat or 1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
        print(f"wrote {len(document['runs'])} runs to {args.out}")
    return 0 if all(run["result"]["correct"]
                    for run in document["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Gate a change on the benchmark: interleaved runs of parent and head.

    python3 .github/bench_gate.py PARENT_CHECKOUT HEAD_CHECKOUT

For each seed in ``SEEDS`` and each workload in ``WORKLOADS`` (a cold
build, a cached rebuild after a one-edge edit, one serving mix) it
runs ``bench/run.py --workload W --seed i --repeat 1 --out FILE`` in
both checkouts, each with its own ``src/``.  The side that goes first
alternates by seed, so a slow spell of the host lands on both sides.
Each side's runs are concatenated into one document, and the script
exits with the status of ``python3 -m bench.compare parent.json
head.json``: 1 when a metric a user sees regressed, 0 otherwise.  The comparison runs in the parent checkout,
so a change cannot loosen the rules it is judged by.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

WORKLOADS = ("org_build_cold", "org_build_edit", "bib_serve_update")

#: Ten pairs: the fewest for which ``bench.compare`` judges per-layer
#: metrics (the operation latencies) at all.
SEEDS = range(1, 11)


def bench_runs(checkout: str, workload: str, seed: int,
               out: str) -> list[dict]:
    """The runs one ``bench/run.py`` invocation writes to ``out``."""
    command = [sys.executable, "bench/run.py", "--workload", workload,
               "--seed", str(seed), "--repeat", "1", "--out", out]
    status = subprocess.run(command, cwd=checkout).returncode
    if not os.path.isfile(out):
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited "
                         f"{status} and wrote no runs")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: bench_gate.py PARENT_CHECKOUT HEAD_CHECKOUT",
              file=sys.stderr)
        return 2
    checkouts = {"parent": os.path.abspath(argv[0]),
                 "head": os.path.abspath(argv[1])}
    runs: dict[str, list[dict]] = {"parent": [], "head": []}
    with tempfile.TemporaryDirectory(prefix="bench-gate-") as tmp:
        for seed in SEEDS:
            order = ("parent", "head") if seed % 2 else ("head", "parent")
            for workload in WORKLOADS:
                for side in order:
                    print(f"== {side} {workload} seed {seed}", flush=True)
                    out = os.path.join(tmp, f"{side}-{workload}-{seed}.json")
                    runs[side] += bench_runs(checkouts[side], workload,
                                             seed, out)
        documents = {}
        for side, side_runs in runs.items():
            documents[side] = os.path.join(tmp, f"{side}.json")
            with open(documents[side], "w", encoding="utf-8") as handle:
                json.dump({"runs": side_runs}, handle)
        return subprocess.run(
            [sys.executable, "-m", "bench.compare", documents["parent"],
             documents["head"]], cwd=checkouts["parent"]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The CI benchmark gate (``.github/bench_gate.py``) drives two checkouts.

Each fake checkout holds a stub ``bench/run.py`` that logs its call and
writes one run, and a stub ``bench.compare`` that records the two
documents it was given and exits with a chosen status.
"""

import importlib.util
import json
import pathlib

import pytest

GATE = pathlib.Path(__file__).resolve().parents[1] / ".github" / \
    "bench_gate.py"

RUN_STUB = """
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
side = os.path.basename(os.getcwd())
with open(os.environ["GATE_LOG"], "a") as log:
    log.write(json.dumps([side, sys.argv[1:]]) + "\\n")
if os.environ.get("GATE_CRASH") == side:
    sys.exit(3)
run = {"workload": args["--workload"], "seed": int(args["--seed"]),
       "trace": 0, "side": side}
with open(args["--out"], "w") as out:
    json.dump({"seconds": 10, "runs": [run]}, out)
"""

COMPARE_STUB = """
import json, os, sys
docs = [json.load(open(path)) for path in sys.argv[1:]]
with open(os.environ["GATE_LOG"], "a") as log:
    log.write(json.dumps(["compare", os.path.basename(os.getcwd()),
                          docs]) + "\\n")
sys.exit(int(os.environ["GATE_VERDICT"]))
"""


@pytest.fixture
def gate():
    spec = importlib.util.spec_from_file_location("bench_gate", GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def checkouts(tmp_path, monkeypatch):
    for side in ("parent", "head"):
        bench = tmp_path / side / "bench"
        bench.mkdir(parents=True)
        (bench / "__init__.py").write_text("")
        (bench / "run.py").write_text(RUN_STUB)
        (bench / "compare.py").write_text(COMPARE_STUB)
    log = tmp_path / "gate.log"
    monkeypatch.setenv("GATE_LOG", str(log))
    monkeypatch.setenv("GATE_VERDICT", "0")
    return tmp_path / "parent", tmp_path / "head", log


def _calls(log):
    return [json.loads(line) for line in log.read_text().splitlines()]


def test_interleaves_seeds_and_concatenates_runs(gate, checkouts):
    parent, head, log = checkouts
    assert gate.main([str(parent), str(head)]) == 0
    calls = _calls(log)
    runs, compare = calls[:-1], calls[-1]
    assert len(runs) == len(gate.SEEDS) * len(gate.WORKLOADS) * 2
    for index, (side, argv) in enumerate(runs):
        seed = gate.SEEDS[index // (2 * len(gate.WORKLOADS))]
        workload = gate.WORKLOADS[index // 2 % len(gate.WORKLOADS)]
        first = "parent" if seed % 2 else "head"
        assert (side == first) == (index % 2 == 0)
        assert argv[:7] == ["--workload", workload, "--seed", str(seed),
                            "--repeat", "1", "--out"]
    assert compare[:2] == ["compare", "parent"]
    parent_doc, head_doc = compare[2]
    for doc, side in ((parent_doc, "parent"), (head_doc, "head")):
        assert {run["side"] for run in doc["runs"]} == {side}
        assert len(doc["runs"]) == len(gate.SEEDS) * len(gate.WORKLOADS)


def test_exits_with_the_compare_status(gate, checkouts, monkeypatch):
    parent, head, _ = checkouts
    monkeypatch.setenv("GATE_VERDICT", "1")
    assert gate.main([str(parent), str(head)]) == 1


def test_a_run_that_writes_nothing_fails_the_gate(gate, checkouts,
                                                   monkeypatch):
    parent, head, _ = checkouts
    monkeypatch.setenv("GATE_CRASH", "head")
    with pytest.raises(SystemExit, match="wrote no runs"):
        gate.main([str(parent), str(head)])


def test_takes_exactly_two_checkouts(gate, capsys):
    assert gate.main([]) == 2
    assert "PARENT_CHECKOUT HEAD_CHECKOUT" in capsys.readouterr().err

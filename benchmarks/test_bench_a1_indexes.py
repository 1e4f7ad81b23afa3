"""Experiment A1: the full-indexing design choice (section 2.2).

The paper: "maintaining these indexes is expensive, but they provide
many benefits to our query language".  We measure both halves — index
build cost, and query latency with and without indexes — across data
sizes, on a backward-anchored workload where the backward index is the
winning access path.

The index is built per label on first probe: ``GraphIndex.build`` only
groups the edges by label, and each label's maps and the value index
are built when first read.  The build cost is reported as both parts.
"""

import statistics
import time

import pytest

from repro.datagen import generate_bibtex
from repro.repository import GraphIndex, GraphStatistics, Repository
from repro.struql import QueryEngine, parse_query
from repro.wrappers import BibTexWrapper

EXPERIMENT = "A1: indexing ablation"

#: Backward-anchored lookup: which publications appeared in 1995?  A
#: backward index answers directly; a scan walks every edge.
LOOKUP_QUERY = """
input BIBTEX
where p -> "year" -> 1995
create Hit(p)
collect Hits(Hit(p))
output O
"""


def _data(entries: int):
    return BibTexWrapper().wrap(generate_bibtex(entries, seed=3), "BIBTEX")


@pytest.mark.parametrize("entries", [50, 200, 800])
@pytest.mark.parametrize("indexing", [True, False])
def test_lookup_with_and_without_indexes(benchmark, experiment, entries,
                                         indexing):
    data = _data(entries)
    engine = QueryEngine(indexing=indexing)
    index = GraphIndex.build(data) if indexing else None
    stats = GraphStatistics.gather(data)
    query = parse_query(LOOKUP_QUERY)

    result = benchmark(lambda: engine.evaluate(query, data, index=index,
                                               stats=stats))
    hits = len(result.output.collection("Hits"))
    assert hits > 0
    experiment.row(entries=entries,
                   mode="indexed" if indexing else "scan",
                   edges=data.edge_count, hits=hits)


def _materialize(data) -> GraphIndex:
    """Build the index and then every label's forward and backward maps
    and the value index, as an eager full index would."""
    index = GraphIndex.build(data)
    for label in index.labels():
        # A probe of any key builds the label's whole map.
        index.targets(None, label)
        index.sources(label, None)
    index.atoms()
    return index


def test_index_build_cost(benchmark, experiment):
    """The 'maintaining these indexes is expensive' half of the claim:
    the grouping pass every data version pays, and the maps an
    evaluation pays for as it first probes each label."""
    data = _data(800)
    index = benchmark(GraphIndex.build, data)
    assert index.fresh
    grouping = statistics.median(
        _seconds(lambda: GraphIndex.build(data)) for _ in range(15))
    full = statistics.median(
        _seconds(lambda: _materialize(data)) for _ in range(15))
    assert full > grouping
    experiment.row(entries=800, mode="index build: grouping pass",
                   edges=data.edge_count,
                   hits=f"{len(index.labels())} labels, "
                        f"{grouping * 1000:.1f} ms")
    experiment.row(entries=800,
                   mode="index build: + every label's maps and values",
                   edges=data.edge_count,
                   hits=f"{len(index.atoms())} values, "
                        f"{full * 1000:.1f} ms")


def _seconds(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _edges_read(engine, query, data, index, stats) -> tuple[int, list]:
    """One evaluation's reads of the graph's edge scan, and its
    operator profiles.  The index was built before, so its reads are
    of its own label groups, not of ``Graph.edges``."""
    read = 0
    scan = data.edges

    def counting():
        nonlocal read
        for edge in scan():
            read += 1
            yield edge

    data.edges = counting
    try:
        result = engine.evaluate(query, data, index=index, stats=stats)
    finally:
        del data.edges
    return read, [p for t in result.traces for p in t.op_profiles]


#: Timed evaluations per side and size; the sides alternate.
REPETITIONS = 61


def test_speedup_shape(experiment, benchmark):
    """The paper's trade-off holds: indexed lookup latency grows far
    slower than scan latency as data grows."""
    warm = _data(100)
    warm_index = GraphIndex.build(warm)
    warm_stats = GraphStatistics.gather(warm)
    warm_engine = QueryEngine(indexing=True)
    warm_query = parse_query(LOOKUP_QUERY)
    benchmark(lambda: warm_engine.evaluate(warm_query, warm,
                                           index=warm_index,
                                           stats=warm_stats))
    speedups = {}
    query = parse_query(LOOKUP_QUERY)
    for entries in (100, 800):
        data = _data(entries)
        stats = GraphStatistics.gather(data)
        sides = {True: (QueryEngine(indexing=True), GraphIndex.build(data)),
                 False: (QueryEngine(indexing=False), None)}
        # A deterministic count beside the timing: the indexed plan
        # reads no edge scan and serves its lookup from the index; the
        # scan plan reads every edge once per lookup.  Both plans take
        # one input row (the ops' rows_in), so that count cannot tell
        # the access paths apart.
        reads = {}
        for indexing, (engine, index) in sides.items():
            read, profiles = _edges_read(engine, query, data, index, stats)
            reads[indexing] = read
            assert sum(p.index_hits for p in profiles) == \
                (len(profiles) if indexing else 0)
            assert sum(p.index_misses for p in profiles) == \
                (0 if indexing else len(profiles))
        assert reads[True] == 0
        assert reads[False] >= data.edge_count
        # Interleaved repetitions, alternating which side goes first,
        # so a change in host load hits both sides alike.
        times = {True: [], False: []}
        for rep in range(REPETITIONS):
            for indexing in ((True, False) if rep % 2 else (False, True)):
                engine, index = sides[indexing]
                times[indexing].append(_seconds(
                    lambda: engine.evaluate(query, data, index=index,
                                            stats=stats)))
        speedups[entries] = (statistics.median(times[False])
                             / statistics.median(times[True]))
        experiment.row(entries=entries, mode="scan/indexed latency ratio",
                       edges=f"{reads[False]} read by scan, "
                             f"{reads[True]} indexed",
                       hits=f"{speedups[entries]:.1f}x")
    # Direction: indexed access wins clearly at the larger size (the
    # growth trend is reported above; exact ratios are noisy).
    assert speedups[800] > 1.2

"""Differential harness for the access paths built on first probe.

:class:`~repro.repository.GraphIndex` builds a label's forward and
backward maps, the value index and the optimizer statistics when they
are first read, once per data version, and :class:`~repro.graph.Graph`
builds its reverse adjacency on the first ``in_edges`` call.  The
oracle is what an eager scan computes, comparing each edge's own
target with the probe as the query processor's scan path does
(``runtime_eq``, which is atom ``==``), in the order the structure
documents:

* ``targets``, ``sources``, ``attribute_extent`` — :meth:`Graph.edges`
  order (grouped by source);
* ``value_occurrences`` — grouped by label in first-seen label order,
  each group in :meth:`Graph.edges` order;
* ``Graph.in_edges`` — global insertion order, kept by the harness in
  its own log of the edges it added.

Coercing equality is not transitive (``" 3 "`` equals ``3`` equals
``"3"``, but ``" 3 "`` does not equal ``"3"``), so an oracle that
grouped atoms in a dict would merge them just as a wrongly keyed index
does, and the two would agree on the wrong answer.

Random graphs get random mutations interleaved with random probes, so a
map built at one data version is probed again at later ones.  The atom
pool mixes values that coerce equal (``3``, ``"3"``, ``3.0``,
``" 3 "``), so the maps' coercing lookups are exercised too.

Randomness is stdlib ``random`` with pinned seeds, as in
``test_matview_differential.py``; ``INDEX_DIFF_ROUNDS`` scales the
number of mutate/probe rounds per seed.
"""

import os
import random
import sys
import threading

import pytest

from repro.graph import Atom, Edge, Graph, Oid
from repro.repository import GraphIndex, GraphStatistics, Repository

ROUNDS = int(os.environ.get("INDEX_DIFF_ROUNDS", "60"))
SEEDS = (7, 0xC0FFEE, 2024)

LABELS = ["year", "author", "title", "cites", "note", "x"]
ATOMS = [Atom.int(3), Atom.string("3"), Atom.float(3.0), Atom.string(" 3 "),
         Atom.int(1997), Atom.string("1997"), Atom.string("Mary"),
         Atom.string("mary"), Atom.string(""), Atom.string("NaN"),
         Atom.url("http://a"), Atom.string("http://a"), Atom.bool(True),
         Atom.int(1)]
COLLECTIONS = ["Publications", "People", "Empty"]


# -- the eager oracle --------------------------------------------------------


def _grouped(mapping, key, value):
    mapping.setdefault(key, []).append(value)


def strict(values) -> list[str]:
    """A list compared without coercion: ``Atom.int(3)`` and
    ``Atom.string("3")`` are equal atoms but differ here."""
    return [repr(value) for value in values]


class Eager:
    """Every access path, built eagerly by scanning the edges."""

    def __init__(self, graph: Graph, log: list[Edge]) -> None:
        edges = list(graph.edges())
        self.labels = sorted({e.label for e in edges})
        self.edges = edges
        self.log = log
        self.extent: dict[str, list] = {}
        self.forward: dict[str, dict] = {}
        for e in edges:
            _grouped(self.extent, e.label, (e.source, e.target))
            _grouped(self.forward.setdefault(e.label, {}), e.source,
                     e.target)
        self.atoms = sorted({strict([e.target])[0] for e in edges
                             if isinstance(e.target, Atom)})
        # The statistics, as one pass over the edges computes them.
        self.node_count = graph.node_count
        self.edge_count = len(edges)
        self.collections = {name: len(graph.collection(name))
                            for name in graph.collection_names()}
        self.atom_count = len({id(e.target) for e in edges
                               if isinstance(e.target, Atom)})
        self.label_stats = {}
        for label in self.labels:
            mine = [e for e in edges if e.label == label]
            self.label_stats[label] = (
                len(mine), len({e.source for e in mine}),
                len({e.target if isinstance(e.target, Oid)
                     else ("atom", str(e.target.type), str(e.target.value))
                     for e in mine}),
                sum(isinstance(e.target, Atom) for e in mine))

    def sources(self, label: str, target) -> list[Oid]:
        return [e.source for e in self.edges
                if e.label == label and e.target == target]

    def occurrences(self, value: Atom) -> list[tuple[Oid, str]]:
        return [(e.source, label)
                for label in dict.fromkeys(e.label for e in self.edges)
                for e in self.edges
                if e.label == label and e.target == value]

    def incoming(self, target) -> list[Edge]:
        return [e for e in self.log if e.target == target]


# -- random graphs and mutations ----------------------------------------------


class Script:
    """A random graph plus the harness's own insertion-order edge log."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.graph = Graph("G")
        self.log: list[Edge] = []
        self.nodes = [Oid(f"n{k}") for k in range(12)]
        for _ in range(40):
            self.mutate()

    def target(self):
        if self.rng.random() < 0.4:
            return self.rng.choice(self.nodes)
        return self.rng.choice(ATOMS)

    def mutate(self) -> None:
        rng, graph = self.rng, self.graph
        roll = rng.random()
        if roll < 0.75:
            edge = Edge(rng.choice(self.nodes), rng.choice(LABELS),
                        self.target())
            if not graph.has_edge(*edge):
                self.log.append(edge)
            graph.add_edge(*edge)
        elif roll < 0.85:
            node = Oid(f"n{len(self.nodes)}")
            self.nodes.append(node)
            graph.add_node(node)
        elif roll < 0.95:
            graph.add_to_collection(rng.choice(COLLECTIONS[:2]),
                                    self.target())
        else:
            graph.declare_collection(rng.choice(COLLECTIONS))

    def probes(self):
        """Every (source, label) and (label, target) worth asking."""
        labels = LABELS + ["absent"]
        targets = self.nodes + ATOMS + [Atom.string("absent")]
        return labels, targets


# -- checks ---------------------------------------------------------------------


def check_index(index: GraphIndex, eager: Eager, script: Script,
                rng: random.Random) -> None:
    labels, targets = script.probes()
    # A random subset in a random order, so first probes of a label
    # come from any entry point and at any version.
    calls = ([("targets", s, l) for s in script.nodes for l in labels]
             + [("sources", l, t) for l in labels for t in targets]
             + [("extent", l) for l in labels]
             + [("card", l) for l in labels]
             + [("values", v) for v in targets if isinstance(v, Atom)]
             + [("labels",), ("atoms",)])
    rng.shuffle(calls)
    for call in calls[:len(calls) // 2]:
        kind = call[0]
        if kind == "targets":
            _, source, label = call
            assert strict(index.targets(source, label)) == \
                strict(eager.forward.get(label, {}).get(source, [])), call
        elif kind == "sources":
            _, label, target = call
            assert strict(index.sources(label, target)) == \
                strict(eager.sources(label, target)), call
        elif kind == "extent":
            assert strict(index.attribute_extent(call[1])) == \
                strict(eager.extent.get(call[1], [])), call
        elif kind == "card":
            assert index.label_cardinality(call[1]) == \
                len(eager.extent.get(call[1], [])), call
        elif kind == "values":
            assert strict(index.value_occurrences(call[1])) == \
                strict(eager.occurrences(call[1])), call
        elif kind == "labels":
            assert index.labels() == eager.labels
            assert all(index.has_label(l) == (l in eager.extent)
                       for l in labels)
        else:
            assert sorted(strict(index.atoms())) == eager.atoms


def check_statistics(stats: GraphStatistics, eager: Eager,
                     rng: random.Random) -> None:
    assert stats.node_count == eager.node_count
    assert stats.edge_count == eager.edge_count
    assert stats.collections == eager.collections
    assert len(stats.labels) == len(eager.label_stats)
    assert sorted(stats.labels) == eager.labels
    order = LABELS + ["absent"]
    rng.shuffle(order)
    for label in order:
        expected = eager.label_stats.get(label)
        assert (label in stats.labels) == (expected is not None)
        got = stats.labels.get(label)
        if expected is None:
            assert got is None
            assert stats.label_edges(label) == 0
            continue
        assert (got.edges, got.distinct_sources, got.distinct_targets,
                got.atom_targets) == expected, label
        assert stats.label_edges(label) == expected[0]
        assert stats.label_fan_out(label) == expected[0] / expected[1]
        assert stats.label_fan_in(label) == expected[0] / expected[2]
        assert stats.equality_selectivity(label) == 1.0 / expected[2]
    assert stats.atom_count == eager.atom_count


def check_in_edges(graph: Graph, eager: Eager, script: Script,
                   rng: random.Random) -> None:
    _, targets = script.probes()
    for target in rng.sample(targets, len(targets) // 2):
        assert strict(graph.in_edges(target)) == \
            strict(eager.incoming(target)), target


@pytest.mark.parametrize("seed", SEEDS)
def test_lazy_access_paths_match_an_eager_scan(seed):
    script = Script(seed)
    rng = random.Random(seed ^ 0x5EED)
    repo = Repository()
    repo.store(script.graph)
    index = GraphIndex.build(script.graph)
    # Reverse adjacency is built on the first in_edges call and then
    # kept up to date by add_edge; start it at a random round.
    first_in_probe = rng.randrange(ROUNDS // 2)
    for round_ in range(ROUNDS):
        eager = Eager(script.graph, script.log)
        if not index.fresh:
            index.refresh()
        check_index(index, eager, script, rng)
        check_statistics(index.statistics(), eager, rng)
        assert index.statistics() is index.statistics()
        stats = repo.statistics("G")
        assert repo.statistics("G") is stats
        check_statistics(stats, eager, rng)
        check_statistics(GraphStatistics.gather(script.graph), eager, rng)
        if round_ >= first_in_probe:
            check_in_edges(script.graph, eager, script, rng)
        for _ in range(rng.randint(1, 4)):
            script.mutate()


def test_copy_keeps_in_edge_order():
    """A copy adds its edges grouped by source, and its reverse
    adjacency follows the copy's own insertion order."""
    graph = Graph("G")
    graph.add_edge(Oid("b"), "l", Oid("t"))
    graph.add_edge(Oid("a"), "l", Oid("t"))
    graph.add_edge(Oid("b"), "m", Oid("t"))
    assert [e.source for e in graph.in_edges(Oid("t"))] == \
        [Oid("b"), Oid("a"), Oid("b")]
    graph.add_edge(Oid("c"), "l", Oid("t"))
    assert [e.source for e in graph.in_edges(Oid("t"))][-1] == Oid("c")
    copy = graph.copy()
    assert [e.source for e in copy.in_edges(Oid("t"))] == \
        [Oid("b"), Oid("b"), Oid("a"), Oid("c")]


def _big_graph() -> tuple[Graph, list[Edge]]:
    """20,000 distinct ``l`` edges, inserted in an order unlike the
    grouped-by-source order of :meth:`Graph.edges`; and that order."""
    graph, log = Graph("G"), []
    for k in range(20000):
        log.append(graph.add_edge(Oid(f"s{k % 3000}"), "l",
                                  Atom.int(k % 499)))
    assert graph.edge_count == len(log)
    return graph, log


#: More threads than this host's cores, so first probes interleave.
RACERS = 4


def _race(probe) -> list:
    """Run ``probe`` in :data:`RACERS` threads released at once, with
    a short switch interval so they interleave inside the first build."""
    barrier = threading.Barrier(RACERS)
    results = [None] * RACERS
    errors = []

    def run(slot):
        try:
            barrier.wait(timeout=30)
            results[slot] = probe()
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(k,))
                   for k in range(RACERS)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors, errors
    return results


def test_first_probe_race_on_one_label():
    """Two threads make the first probe of one label at once: both see
    whole maps, equal to the eager scan, and the index keeps one map."""
    graph, log = _big_graph()
    eager = Eager(graph, log)
    index = GraphIndex.build(graph)
    sources = [Oid(f"s{k}") for k in range(0, 3000, 37)]
    values = [Atom.int(k) for k in range(0, 499, 11)]

    def probe():
        return ([index.targets(s, "l") for s in sources],
                [index.sources("l", v) for v in values],
                index.statistics().labels["l"])

    expected_targets = [strict(eager.forward["l"].get(s, []))
                        for s in sources]
    expected_sources = [strict(eager.sources("l", v)) for v in values]
    for targets, found, stats in _race(probe):
        assert [strict(t) for t in targets] == expected_targets
        assert [strict(s) for s in found] == expected_sources
        assert (stats.edges, stats.distinct_sources, stats.distinct_targets,
                stats.atom_targets) == eager.label_stats["l"]
    assert strict(index.targets(sources[0], "l")) == expected_targets[0]


def test_first_in_edges_race():
    graph, log = _big_graph()
    expected = strict(Eager(graph, log).incoming(Atom.int(7)))
    assert expected != strict(e for e in graph.edges()
                              if e.target == Atom.int(7))
    for found in _race(lambda: graph.in_edges(Atom.int(7))):
        assert strict(found) == expected

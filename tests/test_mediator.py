"""The GAV mediator: warehousing, virtual views, staleness, access patterns."""

import pytest

from repro import obs
from repro.errors import AccessPatternError, MediatorError, SourceLoadError
from repro.graph import Atom, Graph, Oid
from repro.mediator import DataSource, LimitedAccessSource, Mediator
from repro.repository import Repository


def _make_source(name: str, rows: list[tuple[str, int]]):
    """A source of Items(x) with a value attribute; mutable via list."""

    def load() -> Graph:
        graph = Graph(name)
        for key, value in rows:
            oid = Oid(f"{name}_{key}")
            graph.add_to_collection("Items", oid)
            graph.add_edge(oid, "key", Atom.string(key))
            graph.add_edge(oid, "value", Atom.int(value))
        return graph

    return DataSource(name, load)


MAPPING = """
input {src}
where Items(i), i -> l -> v
create Obj(i)
link Obj(i) -> l -> v
collect All(Obj(i))
output data
"""


def _builds(recorder, kind: str) -> int:
    """The ``mediator.builds{kind}`` count ``recorder`` collected."""
    counters = recorder.metrics.as_dict()["counters"]
    return counters.get(f'mediator.builds{{kind="{kind}"}}', 0)


@pytest.fixture
def mediator():
    med = Mediator("data")
    med.add_source(_make_source("alpha", [("a", 1), ("b", 2)]))
    med.add_source(_make_source("beta", [("c", 3)]))
    med.add_mapping(MAPPING.format(src="alpha"))
    med.add_mapping(MAPPING.format(src="beta"))
    return med


class TestMediator:
    def test_warehouse_integrates_all_sources(self, mediator):
        data = mediator.warehouse()
        assert len(data.collection("All")) == 3
        assert data.name == "data"

    def test_warehouse_cached(self, mediator):
        with obs.recording() as recorder:
            assert mediator.warehouse() is mediator.warehouse()
        assert _builds(recorder, "warehouse") == 1

    def test_virtual_always_fresh(self, mediator):
        with obs.recording() as recorder:
            one = mediator.virtual_view()
            two = mediator.virtual_view()
        assert one is not two
        assert _builds(recorder, "virtual") == 2

    def test_staleness_counts_source_updates(self, mediator):
        mediator.warehouse()
        assert mediator.staleness() == 0
        mediator.source("alpha").touch()
        mediator.source("alpha").touch()
        mediator.source("beta").touch()
        assert mediator.staleness() == 3
        mediator.refresh()
        assert mediator.staleness() == 0

    def test_refresh_rebuilds(self, mediator):
        with obs.recording() as recorder:
            mediator.warehouse()
            before = _builds(recorder, "warehouse")
            mediator.refresh()
        assert _builds(recorder, "warehouse") == before + 1

    def test_failed_refresh_keeps_the_warehouse(self, mediator):
        """A source that raises mid-refresh leaves the previous
        warehouse in place, still counted as stale."""
        before = mediator.warehouse()
        failing = [True]
        beta = mediator.source("beta")
        load = beta.load

        def flaky_load(**parameters):
            if failing[0]:
                raise OSError("connection reset")
            return load(**parameters)

        beta.load = flaky_load
        mediator.source("alpha").touch()
        beta.touch()
        with obs.recording() as recorder:
            with pytest.raises(SourceLoadError, match="'beta'") as info:
                mediator.refresh()
        assert info.value.source == "beta"
        assert isinstance(info.value.__cause__, OSError)
        assert mediator.warehouse() is before
        assert mediator.staleness() == 2
        assert _builds(recorder, "warehouse") == 0
        assert _builds(recorder, "failed") == 1
        failing[0] = False
        assert mediator.refresh() is not before
        assert mediator.staleness() == 0

    def test_malformed_records_are_a_classified_failure(self, mediator):
        """A loader that returns records, not a graph, ends in
        SourceLoadError, keeps the warehouse and counts a failed
        build."""
        before = mediator.warehouse()
        mediator.source("beta")._loader = lambda: [
            {"key": "c", "value": 3}]
        with obs.recording() as recorder:
            with pytest.raises(SourceLoadError, match="'beta'") as info:
                mediator.refresh()
        assert isinstance(info.value.__cause__, MediatorError)
        assert "list" in str(info.value.__cause__)
        assert mediator.warehouse() is before
        assert _builds(recorder, "failed") == 1
        counters = recorder.metrics.as_dict()["counters"]
        assert 'mediator.builds{kind="warehouse"}' not in counters

    def test_store_warehouse(self, mediator):
        repo = Repository()
        mediator.store_warehouse(repo)
        assert repo.has_graph("data")

    def test_mapping_validation(self, mediator):
        with pytest.raises(MediatorError):
            mediator.add_mapping(MAPPING.format(src="unknown"))
        with pytest.raises(MediatorError):
            mediator.add_mapping("""
            input alpha
            where Items(i)
            create X(i)
            collect Y(X(i))
            output wrong_name
            """)

    def test_no_mappings_is_an_error(self):
        med = Mediator()
        med.add_source(_make_source("s", []))
        with pytest.raises(MediatorError):
            med.warehouse()

    def test_unknown_source(self, mediator):
        with pytest.raises(MediatorError):
            mediator.source("nope")

    def test_gav_object_fusion(self):
        """Two sources minting Obj with the same key unify objects."""
        med = Mediator("data")
        med.add_source(_make_source("alpha", [("shared", 1)]))
        med.add_source(_make_source("beta", [("other", 2)]))
        fusion = """
        input {src}
        where Items(i), i -> "key" -> k, i -> "value" -> v
        create Obj(k)
        link Obj(k) -> "value" -> v, Obj(k) -> "from" -> "{src}"
        collect All(Obj(k))
        output data
        """
        med.add_mapping(fusion.format(src="alpha"))
        med.add_mapping(fusion.format(src="beta"))
        data = med.warehouse()
        # Keys differ here, so two objects...
        assert len(data.collection("All")) == 2
        # ...but the same key from both sources would fuse:
        med2 = Mediator("data")
        med2.add_source(_make_source("alpha", [("k1", 1)]))
        med2.add_source(_make_source("beta", [("k1", 9)]))
        med2.add_mapping(fusion.format(src="alpha"))
        med2.add_mapping(fusion.format(src="beta"))
        fused = med2.warehouse()
        assert len(fused.collection("All")) == 1
        obj = fused.collection("All")[0]
        froms = {str(v) for v in fused.get(obj, "from")}
        assert froms == {"alpha", "beta"}


class TestSources:
    def test_load_counts(self):
        source = _make_source("s", [("a", 1)])
        with obs.recording() as recorder:
            source.load()
            source.load()
        counters = recorder.metrics.as_dict()["counters"]
        assert counters["mediator.source_loads"] == 2

    def test_nameless_rejected(self):
        with pytest.raises(MediatorError):
            DataSource("", lambda: Graph("x"))

    def test_limited_access_requires_inputs(self):
        source = LimitedAccessSource(
            "lookup", lambda key: Graph("lookup"), required=("key",))
        with pytest.raises(AccessPatternError):
            source.load()
        graph = source.load(key="x")
        assert graph.name == "lookup"

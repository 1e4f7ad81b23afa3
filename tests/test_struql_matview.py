"""The materialized-view registry: single-flight, admission, and
invalidation by the read set each view keeps."""

import threading
import time

import pytest

from repro.graph import Atom, Oid
from repro.struql.matview import MatViewRegistry


class TestRegistryServing:
    def test_miss_computes_then_hits(self):
        registry = MatViewRegistry()
        calls = []
        value = registry.get_or_compute(
            "k", lambda: calls.append(1) or "body")
        assert value == "body"
        assert registry.get_or_compute("k", lambda: "other") == "body"
        assert len(calls) == 1
        assert registry.stats["hits"] == 1
        assert registry.stats["misses"] == 1

    def test_errors_are_never_cached(self):
        registry = MatViewRegistry()

        def boom():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            registry.get_or_compute("k", boom)
        assert len(registry) == 0
        # The key is computable again after the failure.
        assert registry.get_or_compute("k", lambda: "ok") == "ok"

    def test_lru_bound_holds(self):
        registry = MatViewRegistry(max_views=4)
        for i in range(10):
            registry.get_or_compute(f"k{i}", lambda i=i: i)
        assert len(registry) == 4
        assert registry.stats["evictions"] == 6

    def test_single_flight_collapses_concurrent_misses(self):
        registry = MatViewRegistry()
        calls = []
        release = threading.Event()

        def compute():
            calls.append(1)
            release.wait(5)
            return "body"

        results = []

        def worker():
            results.append(registry.get_or_compute("k", compute))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        # Give every follower time to join the flight, then let the
        # one leader finish.
        time.sleep(0.1)
        release.set()
        for thread in threads:
            thread.join(10)
        assert results == ["body"] * 6
        assert len(calls) == 1
        assert registry.stats["singleflight_waits"] >= 5

    def test_admission_guard_bounds_inflight(self):
        registry = MatViewRegistry(max_inflight=2)
        running = []
        peak = []
        lock = threading.Lock()

        def compute(key):
            with lock:
                running.append(key)
                peak.append(len(running))
            time.sleep(0.05)
            with lock:
                running.remove(key)
            return key

        threads = [
            threading.Thread(
                target=lambda k=f"k{i}": registry.get_or_compute(
                    k, lambda: compute(k)))
            for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert max(peak) <= 2
        assert registry.stats["admission_waits"] >= 1
        assert len(registry) == 6

    def test_compute_straddling_invalidation_is_not_cached(self):
        registry = MatViewRegistry()
        entered = threading.Event()
        proceed = threading.Event()

        def compute():
            entered.set()
            proceed.wait(5)
            return "pre-change"

        results = []
        thread = threading.Thread(
            target=lambda: results.append(
                registry.get_or_compute("k", compute)))
        thread.start()
        entered.wait(5)
        registry.invalidate()  # lands while the compute is running
        proceed.set()
        thread.join(10)
        # The caller got its value, but the possibly-stale result must
        # not have entered the cache.
        assert results == ["pre-change"]
        assert len(registry) == 0
        assert registry.stats["stale_discards"] == 1


class TestRegistryInvalidation:
    YEAR = Oid.skolem("YearPage", (Atom.int(1997),))
    CATEGORY = Oid.skolem("CategoryPage", (Atom.string("Compilers"),))

    def _registry_with_views(self):
        registry = MatViewRegistry()
        registry.get_or_compute("years", lambda: "y", {self.YEAR})
        registry.get_or_compute(
            "cats", lambda: "c", {self.CATEGORY, Oid("pub1")})
        registry.get_or_compute("unknown", lambda: "u")  # no read set
        return registry

    def test_selective_invalidation_by_footprint(self):
        registry = self._registry_with_views()
        dropped = registry.invalidate([self.YEAR])
        # The view that read the year page and the view without a read
        # set drop; the category view survives.
        assert dropped == 2
        assert registry.get("cats") is not None
        assert registry.get("years") is None
        assert registry.get("unknown") is None

    def test_unknown_footprint_always_drops(self):
        registry = self._registry_with_views()
        registry.invalidate([Oid.skolem("PageNobodyRead", ())])
        assert registry.get("unknown") is None
        assert registry.get("years") is not None

    def test_none_change_drops_everything(self):
        registry = self._registry_with_views()
        assert registry.invalidate() == 3
        assert len(registry) == 0

    def test_hit_fills_the_read_set(self):
        registry = self._registry_with_views()
        reads: set = set()
        assert registry.get_or_compute("cats", lambda: "other", reads) \
            == "c"
        assert reads == {self.CATEGORY, Oid("pub1")}

    def test_snapshot_shape(self):
        registry = self._registry_with_views()
        registry.get_or_compute("years", lambda: "y")  # a hit
        snapshot = registry.snapshot(limit=2)
        assert snapshot["enabled"] is True
        assert snapshot["views"] == 3
        assert snapshot["hits"] == 1
        assert snapshot["misses"] == 3
        assert len(snapshot["top"]) == 2
        top = snapshot["top"][0]
        assert top["key"] == "years"
        assert top["reads"] == ["YearPage(1997)"]

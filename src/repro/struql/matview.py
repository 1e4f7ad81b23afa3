"""Materialized views of rendered pages, dropped by what they read.

The paper's central move — a site is a *declared query* over the data
graph — makes every derived result re-computable, and therefore
cacheable, by construction.  This module is the serving-path cache that
exploits it: a :class:`MatViewRegistry` stores computed values (rendered
page bodies) keyed by a stable identifier, and each entry keeps its
*read set*: the site-graph nodes the computation read, the same record
the offline build cache keeps per page
(:meth:`~repro.templates.generator.HtmlGenerator.render_recorded`).  The caller
names the pages a data change met (the page snapshots whose recorded
data-graph reads it meets, see :mod:`repro.site.incremental`) and
passes them to :meth:`MatViewRegistry.invalidate`, which drops only the
views that read one of them.  A view stored without a read set has
unknown dependencies and is dropped on every invalidation, which is the
sound default.

Two serving-path guards ride along:

* **per-view single-flight** — N concurrent misses on the same key run
  one computation; the other N-1 wait on it and then read the stored
  view (``matview.singleflight_waits`` counts the waits);
* **admission control** — a bounded semaphore caps concurrent
  computations across all keys, so a cold cache under heavy traffic
  degrades to a queue instead of a thundering herd
  (``matview.admission_waits`` counts the stalls).

Every invalidation bumps a registry generation; a computation that
straddles an invalidation returns its value to the caller but does
*not* enter the cache (it may have read pre-change data), so a request
issued after ``invalidate()`` returns can never be served a stale view.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.graph.model import Oid
from repro.obs.trace import get_recorder

#: Default bound on concurrently running computations per registry.
DEFAULT_MAX_INFLIGHT = 8

#: Default LRU bound on stored views per registry.
DEFAULT_MAX_VIEWS = 4096


@dataclass(frozen=True)
class ChangeSummary:
    """The edge labels a data mutation touched.

    Invalidation no longer reads it: :meth:`DynamicSiteServer.update
    <repro.site.server.DynamicSiteServer.update>` journals what a
    mutation changed and ignores the mutation's return value.  It stays
    only because ``bench/workloads.py`` imports it and returns
    :meth:`for_labels` from its data edit.
    """

    labels: frozenset[str] = frozenset()

    @classmethod
    def for_labels(cls, *labels: str) -> "ChangeSummary":
        return cls(labels=frozenset(labels))


@dataclass
class MaterializedView:
    """One stored view: the value plus the nodes its computation read
    (``None``: unknown, so any invalidation drops it)."""

    key: str
    value: object
    reads: Optional[frozenset[Oid]] = None
    compute_seconds: float = 0.0
    created_at: float = field(default_factory=time.time)
    hits: int = 0

    def summary(self) -> dict:
        return {
            "key": self.key,
            "reads": (sorted(str(oid) for oid in self.reads)
                      if self.reads is not None else None),
            "hits": self.hits,
            "compute_seconds": round(self.compute_seconds, 6),
            "age_seconds": round(time.time() - self.created_at, 3),
        }


class _Flight:
    """In-flight computation marker for single-flight coordination."""

    __slots__ = ("event", "generation")

    def __init__(self, generation: int) -> None:
        self.event = threading.Event()
        self.generation = generation


class MatViewRegistry:
    """Bounded, thread-safe store of materialized views.

    ``max_views`` is the LRU capacity; ``max_inflight`` bounds the
    number of computations running at once (the admission guard).
    All mutating operations are safe to call from any thread.
    """

    def __init__(self, max_views: int = DEFAULT_MAX_VIEWS,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT) -> None:
        self.max_views = max_views
        self.max_inflight = max_inflight
        self._lock = threading.Lock()
        self._views: "OrderedDict[str, MaterializedView]" = OrderedDict()
        self._inflight: dict[str, _Flight] = {}
        self._gate = threading.BoundedSemaphore(max_inflight)
        self._generation = 0
        self.stats = {
            "hits": 0,
            "misses": 0,
            "invalidations": 0,
            "views_dropped": 0,
            "singleflight_waits": 0,
            "admission_waits": 0,
            "evictions": 0,
            "stale_discards": 0,
        }

    # -- serving ----------------------------------------------------------

    def get(self, key: str):
        """The stored view for ``key``, or ``None`` (counts a hit)."""
        with self._lock:
            view = self._views.get(key)
            if view is None:
                return None
            view.hits += 1
            self._views.move_to_end(key)
            self.stats["hits"] += 1
        get_recorder().metrics.counter("matview.hits").inc()
        return view

    def get_or_compute(self, key: str, compute: Callable[[], object],
                       reads: Optional[set[Oid]] = None) -> object:
        """The view's value, computing and storing it on a miss.

        ``reads`` is the set ``compute`` records the nodes it read
        into; the stored view keeps it, and a hit fills it from the
        view, so it holds the value's read set either way.  Without it
        the view's dependencies are unknown and any invalidation drops
        it.  Concurrent misses on the same key run ``compute`` once.
        """
        while True:
            leader = False
            with self._lock:
                view = self._views.get(key)
                if view is not None:
                    view.hits += 1
                    self._views.move_to_end(key)
                    self.stats["hits"] += 1
                    value = view.value
                    if reads is not None and view.reads is not None:
                        reads.update(view.reads)
                    break
                flight = self._inflight.get(key)
                if flight is None:
                    flight = _Flight(self._generation)
                    self._inflight[key] = flight
                    leader = True
            if leader:
                return self._run_flight(key, flight, compute, reads)
            # Single-flight: wait for the leader, then re-check the
            # store (or take over if the leader failed / went stale).
            with self._lock:
                self.stats["singleflight_waits"] += 1
            get_recorder().metrics.counter(
                "matview.singleflight_waits").inc()
            flight.event.wait()
        get_recorder().metrics.counter("matview.hits").inc()
        return value

    def _run_flight(self, key: str, flight: _Flight,
                    compute: Callable[[], object],
                    reads: Optional[set[Oid]]) -> object:
        with self._lock:
            self.stats["misses"] += 1
        get_recorder().metrics.counter("matview.misses").inc()
        # Admission guard: bound concurrent computations.
        if not self._gate.acquire(blocking=False):
            with self._lock:
                self.stats["admission_waits"] += 1
            get_recorder().metrics.counter("matview.admission_waits").inc()
            self._gate.acquire()
        started = time.perf_counter()
        try:
            value = compute()
        except BaseException:
            with self._lock:
                self._inflight.pop(key, None)
            self._gate.release()
            flight.event.set()
            raise
        seconds = time.perf_counter() - started
        view = MaterializedView(
            key=key, value=value,
            reads=frozenset(reads) if reads is not None else None,
            compute_seconds=seconds)
        with self._lock:
            self._inflight.pop(key, None)
            if self._generation == flight.generation:
                self._views[key] = view
                self._views.move_to_end(key)
                while len(self._views) > self.max_views:
                    self._views.popitem(last=False)
                    self.stats["evictions"] += 1
            else:
                # An invalidation landed while we were computing: the
                # value may predate the change, so hand it to our
                # caller but keep it out of the cache.
                self.stats["stale_discards"] += 1
        self._gate.release()
        flight.event.set()
        return value

    # -- invalidation -----------------------------------------------------

    def invalidate(self, pages: Optional[Iterable[Oid]] = None) -> int:
        """Drop the views whose read sets hold one of ``pages`` (all of
        them if ``None``).

        Returns the number of views dropped.  Views without a recorded
        read set are always dropped — unknown dependencies make a full
        drop the only sound choice.
        """
        met = None if pages is None else frozenset(pages)
        with self._lock:
            self._generation += 1
            victims = [k for k, v in self._views.items()
                       if met is None or v.reads is None
                       or not v.reads.isdisjoint(met)]
            for k in victims:
                del self._views[k]
            dropped = len(victims)
            self.stats["invalidations"] += 1
            self.stats["views_dropped"] += dropped
        metrics = get_recorder().metrics
        metrics.counter("matview.invalidations").inc()
        if dropped:
            metrics.counter("matview.views_dropped").inc(dropped)
        return dropped

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._views)

    def snapshot(self, limit: int = 50) -> dict:
        """The /debug/matviews document: totals plus hottest views."""
        with self._lock:
            stats = dict(self.stats)
            views = list(self._views.values())
            inflight = len(self._inflight)
            generation = self._generation
        views.sort(key=lambda v: v.hits, reverse=True)
        return {
            "enabled": True,
            "views": len(views),
            "max_views": self.max_views,
            "max_inflight": self.max_inflight,
            "inflight": inflight,
            "generation": generation,
            **stats,
            "top": [view.summary() for view in views[:limit]],
        }


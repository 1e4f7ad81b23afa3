"""Materialized StruQL views with footprint-based invalidation.

The paper's central move — a site is a *declared query* over the data
graph — makes every derived result re-computable, and therefore
cacheable, by construction.  This module is the serving-path cache that
exploits it: a :class:`MatViewRegistry` stores computed values (query
result graphs, rendered page bodies) keyed by a stable identifier, and
each entry carries a *dependency summary*: the source ids it was
computed from plus the collection/label read footprint
(:class:`repro.struql.analysis.Footprint`) of the query that produced
it.  When a source changes, callers describe the change as a
:class:`ChangeSummary` and the registry drops only the views whose
footprint intersects it — views with no footprint recorded fall back to
an unconditional drop, which is the sound default.

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

from repro.obs.trace import get_recorder
from repro.struql.analysis import Footprint, query_footprint
from repro.obs.queries import fingerprint as query_fingerprint

#: Default bound on concurrently running computations per registry.
DEFAULT_MAX_INFLIGHT = 8

#: Default LRU bound on stored views per registry.
DEFAULT_MAX_VIEWS = 4096


@dataclass(frozen=True)
class ChangeSummary:
    """What a data mutation touched, as seen by view invalidation.

    ``labels`` are the edge labels added or modified, ``collections``
    the collection names whose membership changed, ``sources`` the
    source/graph ids affected.  ``full=True`` (or an empty summary via
    :meth:`ChangeSummary.full_change`) means "assume everything
    changed" — every view is dropped.
    """

    labels: frozenset[str] = frozenset()
    collections: frozenset[str] = frozenset()
    sources: frozenset[str] = frozenset()
    full: bool = False

    @classmethod
    def for_labels(cls, *labels: str) -> "ChangeSummary":
        return cls(labels=frozenset(labels))

    @classmethod
    def for_collections(cls, *names: str) -> "ChangeSummary":
        return cls(collections=frozenset(names))

    @classmethod
    def for_sources(cls, *sources: str) -> "ChangeSummary":
        return cls(sources=frozenset(sources))

    @classmethod
    def full_change(cls) -> "ChangeSummary":
        return cls(full=True)

    def union(self, other: "ChangeSummary") -> "ChangeSummary":
        return ChangeSummary(
            labels=self.labels | other.labels,
            collections=self.collections | other.collections,
            sources=self.sources | other.sources,
            full=self.full or other.full)

    def as_dict(self) -> dict:
        return {
            "labels": sorted(self.labels),
            "collections": sorted(self.collections),
            "sources": sorted(self.sources),
            "full": self.full,
        }

    def __str__(self) -> str:
        if self.full:
            return "(full)"
        parts = []
        if self.labels:
            parts.append("labels:" + ",".join(sorted(self.labels)))
        if self.collections:
            parts.append(
                "collections:" + ",".join(sorted(self.collections)))
        if self.sources:
            parts.append("sources:" + ",".join(sorted(self.sources)))
        return " ".join(parts) or "(empty)"


@dataclass
class MaterializedView:
    """One stored view: the value plus its dependency summary."""

    key: str
    value: object
    fingerprint: str = ""
    footprint: Optional[Footprint] = None
    sources: frozenset[str] = frozenset()
    compute_seconds: float = 0.0
    created_at: float = field(default_factory=time.time)
    hits: int = 0

    def depends_on(self, change: Optional[ChangeSummary]) -> bool:
        """Whether ``change`` may affect this view (conservative)."""
        if change is None or getattr(change, "full", False):
            return True
        if self.footprint is None:
            # Unknown dependencies: the only sound answer is "drop".
            return True
        sources = getattr(change, "sources", frozenset())
        if sources and (self.sources & sources):
            return True
        return self.footprint.intersects(change)

    def summary(self) -> dict:
        return {
            "key": self.key,
            "fingerprint": self.fingerprint,
            "footprint": (self.footprint.as_dict()
                          if self.footprint is not None else None),
            "sources": sorted(self.sources),
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

    def get_or_compute(self, key: str, compute: Callable[[], object], *,
                       fingerprint: str = "",
                       footprint=None,
                       sources: Iterable[str] = ()) -> object:
        """The view's value, computing and storing it on a miss.

        ``footprint`` is a :class:`Footprint`, ``None`` (unknown —
        the view is dropped on *any* invalidation), or a zero-argument
        callable evaluated after ``compute()`` returns (for callers
        that discover dependencies during the computation).
        Concurrent misses on the same key run ``compute`` once.
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
                    break
                flight = self._inflight.get(key)
                if flight is None:
                    flight = _Flight(self._generation)
                    self._inflight[key] = flight
                    leader = True
            if leader:
                return self._run_flight(
                    key, flight, compute, fingerprint=fingerprint,
                    footprint=footprint, sources=sources)
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
                    compute: Callable[[], object], *,
                    fingerprint: str, footprint,
                    sources: Iterable[str]) -> object:
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
        if callable(footprint):
            footprint = footprint()
        view = MaterializedView(
            key=key, value=value, fingerprint=fingerprint,
            footprint=footprint, sources=frozenset(sources),
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

    def invalidate(self, change: Optional[ChangeSummary] = None) -> int:
        """Drop views affected by ``change`` (all of them if ``None``).

        Returns the number of views dropped.  Views without a recorded
        footprint are always dropped — unknown dependencies make a full
        drop the only sound choice.
        """
        with self._lock:
            self._generation += 1
            victims = [k for k, v in self._views.items()
                       if v.depends_on(change)]
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


# --------------------------------------------------------------------------
# Query-level materialization


def materialize_query(engine, query, graph,
                      registry: MatViewRegistry, *,
                      sources: Iterable[str] = ()):
    """Evaluate ``query`` through the registry, keyed by fingerprint.

    The stored view is the query's result graph; its dependency summary
    is the static :func:`~repro.struql.analysis.query_footprint` plus
    the given source ids (defaulting to the input graph's name).  The
    same (query, graph) pair served again is a cache hit until an
    intersecting :class:`ChangeSummary` invalidates it.
    """
    from repro.struql.parser import parse_query
    if isinstance(query, str):
        query = parse_query(query)
    fp = query_fingerprint(query)
    key = f"query:{fp}:{graph.name}"
    source_ids = frozenset(sources) or frozenset({graph.name})

    def compute():
        return engine.evaluate(query, graph).output

    return registry.get_or_compute(
        key, compute, fingerprint=fp,
        footprint=query_footprint(query), sources=source_ids)

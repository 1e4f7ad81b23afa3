"""Hierarchical span tracing for the STRUDEL pipeline.

A **span** is one timed region of work (a query block, a source fetch,
a page render) with free-form attributes and child spans.  A
**recorder** collects spans into per-thread trees and owns a
:class:`~repro.obs.metrics.MetricsRegistry`, so every layer of the
pipeline reports through one schema instead of scattered ad-hoc
``time.perf_counter()`` pairs.

The module keeps a process-global recorder that defaults to a shared
:class:`NullRecorder`: instrumented hot paths pay only an attribute
lookup and a no-op call when observability is off.  Enable collection
with :func:`enable` / :func:`recording`::

    from repro.obs import trace as obs

    with obs.recording() as recorder:
        site.build()
    print(render_tree(recorder))          # from repro.obs.export

Two span APIs with different disabled-cost trade-offs:

* ``get_recorder().span(name, **attrs)`` — free when disabled (yields a
  shared dummy span); use for purely observational regions.
* :func:`timed` — always creates and times a real :class:`Span`, and
  attaches it to the trace only when recording.  Use where the result
  object itself carries the timing (:class:`TimedResult`), so reported
  ``seconds`` and the trace tree agree by construction.

Something that *happens* inside a span (an error, a slow query, an
alert transition) is a **note** on that span: a timestamped, leveled
record with a name, an optional message and attributes of its own
(:meth:`Span.note`, or :func:`note` for the innermost open span).
There is no separate event log: a note lives, is sampled, exported and
pruned with the span it happened in, and :func:`flat_notes` gives a
time-ordered list for readers that want one.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.obs.metrics import (
    MetricsRegistry,
    NULL_METRICS,
    NullMetricsRegistry,
)

#: Note severities, least to most severe.
LEVELS: tuple[str, ...] = ("debug", "info", "warning", "error")

#: Levels whose notes keep a trace in :class:`TailSampler`'s error ring.
SEVERE_LEVELS = frozenset(("warning", "error"))


def json_safe(value):
    """``value`` if JSON can carry it as is, else its ``str``."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


@dataclass
class Span:
    """One timed, attributed region of work.

    ``span_id`` and ``trace_id`` are assigned by the recorder when the
    span joins a trace: ids are unique and stable within one recorder's
    lifetime, and every span of a tree shares its root's ``trace_id`` —
    the join key of a request's records.  ``notes`` are the things that
    happened inside the span (:meth:`note`), oldest first.
    """

    name: str
    attributes: dict = field(default_factory=dict)
    start: float = 0.0
    end: float | None = None
    children: list["Span"] = field(default_factory=list)
    span_id: int = 0
    trace_id: str = ""
    notes: list[dict] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        """Duration; measured up to *now* while the span is open."""
        end = self.end if self.end is not None else time.perf_counter()
        return max(end - self.start, 0.0)

    def set(self, **attrs) -> "Span":
        """Attach or overwrite attributes; returns self for chaining."""
        self.attributes.update(attrs)
        return self

    def note(self, level: str, name: str, message: str = "",
             **attrs) -> "Span":
        """Record that ``name`` happened inside this span.

        ``level`` is one of :data:`LEVELS`; ``attrs`` should hold only
        what the span's own attributes do not already say.  Returns self.
        """
        if level not in LEVELS:
            raise ValueError(
                f"unknown note level {level!r}; expected one of {LEVELS}")
        record = {"ts": time.time(), "level": level, "name": name}
        if message:
            record["message"] = message
        if attrs:
            record["attributes"] = {key: json_safe(value)
                                    for key, value in attrs.items()}
        self.notes.append(record)
        return self

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) named ``name``, preorder."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, {self.seconds * 1000:.2f} ms, "
                f"children={len(self.children)})")


class _NoopSpan:
    """The shared span yielded by a disabled recorder."""

    __slots__ = ()
    name = "noop"
    attributes: dict = {}
    children: list = []
    seconds = 0.0
    span_id = 0
    trace_id = ""
    notes: list = []

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def note(self, level: str, name: str, message: str = "",
             **attrs) -> "_NoopSpan":
        return self

    def walk(self):
        return iter(())

    def find(self, name: str):
        return None


_NOOP_SPAN = _NoopSpan()


class _NoopContext:
    """Reusable, reentrant context manager yielding the no-op span."""

    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return _NOOP_SPAN

    def __exit__(self, *exc) -> bool:
        return False


_NOOP_CONTEXT = _NoopContext()


#: Bounds for :class:`TailSampler`'s three views: most-recent traces,
#: slowest-ever traces, and most-recent error traces.
TAIL_RECENT_KEPT = 32
TAIL_SLOWEST_KEPT = 16
TAIL_ERRORS_KEPT = 16


class TailSampler:
    """A bounded ring of *completed* traces with tail-based retention.

    A long-running server completes far more traces than anyone can
    keep, but the interesting ones are exactly the ones a head-based
    ring would evict: the slowest requests and the failures.  This
    sampler keeps three bounded, overlapping views of the stream of
    finished root spans:

    * the :attr:`recent` ring (last :data:`TAIL_RECENT_KEPT` traces);
    * the :attr:`slowest` table (top :data:`TAIL_SLOWEST_KEPT` by
      duration, min-heap, never evicted by newer-but-faster traces);
    * the :attr:`errors` ring (last :data:`TAIL_ERRORS_KEPT` traces in
      which any span carries a truthy ``error`` attribute, an integer
      ``status`` >= 500, or a note at ``warning`` or above).

    Attach one to a :class:`TraceRecorder` (the ``tail`` constructor
    argument) and every root span is offered as its trace finishes;
    memory stays O(kept traces) however long the process serves.
    """

    def __init__(self, recent: int = TAIL_RECENT_KEPT,
                 slow: int = TAIL_SLOWEST_KEPT,
                 errors: int = TAIL_ERRORS_KEPT) -> None:
        self._lock = threading.Lock()
        self._recent: deque[Span] = deque(maxlen=recent)
        self._slow: list[tuple[float, int, Span]] = []
        self._slow_keep = slow
        self._errors: deque[Span] = deque(maxlen=errors)
        self._seq = itertools.count()
        self.offered = 0

    @staticmethod
    def is_error_trace(root: Span) -> bool:
        """Whether any span of the tree looks failed (``error`` attr,
        an integer ``status`` >= 500, or a warning/error note)."""
        for span in root.walk():
            if span.attributes.get("error"):
                return True
            status = span.attributes.get("status")
            if isinstance(status, int) and status >= 500:
                return True
            if any(n["level"] in SEVERE_LEVELS for n in span.notes):
                return True
        return False

    def offer(self, root: Span) -> None:
        """Consider one finished trace for every view."""
        seconds = root.seconds
        error = self.is_error_trace(root)
        with self._lock:
            self.offered += 1
            self._recent.append(root)
            item = (seconds, next(self._seq), root)
            if len(self._slow) < self._slow_keep:
                heapq.heappush(self._slow, item)
            elif seconds > self._slow[0][0]:
                heapq.heapreplace(self._slow, item)
            if error:
                self._errors.append(root)

    @property
    def recent(self) -> list[Span]:
        """The most recent traces, oldest first."""
        with self._lock:
            return list(self._recent)

    @property
    def slowest(self) -> list[Span]:
        """The slowest traces seen so far, slowest first."""
        with self._lock:
            return [span for _, _, span in
                    sorted(self._slow, reverse=True)]

    @property
    def errors(self) -> list[Span]:
        """The most recent error traces, oldest first."""
        with self._lock:
            return list(self._errors)

    def clear(self) -> None:
        """Forget every retained trace."""
        with self._lock:
            self._recent.clear()
            self._slow.clear()
            self._errors.clear()
            self.offered = 0


class NullRecorder:
    """Recorder that records nothing, as cheaply as possible."""

    enabled = False
    tail: TailSampler | None = None

    def __init__(self) -> None:
        self.metrics: NullMetricsRegistry = NULL_METRICS

    @property
    def roots(self) -> list[Span]:
        return []

    def span(self, name: str, **attrs) -> _NoopContext:
        return _NOOP_CONTEXT

    def current(self) -> Span | None:
        return None

    def push(self, span: Span) -> None:
        pass

    def pop(self, span: Span) -> None:
        pass

    def clear(self) -> None:
        pass


NULL_RECORDER = NullRecorder()


class TraceRecorder:
    """Thread-safe collector of span trees plus a metrics registry.

    Each thread keeps its own stack of open spans (so concurrent
    requests interleave without corrupting each other's trees); finished
    top-level spans land in :attr:`roots` under a lock.

    ``max_roots`` bounds :attr:`roots` for long-running processes: once
    exceeded, the oldest root is dropped (``roots_dropped`` counts the
    evictions).  ``tail`` is an optional :class:`TailSampler` that is
    offered every root span as its trace completes, so the slowest and
    failed traces survive the eviction that keeps memory bounded.
    """

    enabled = True

    def __init__(self, name: str = "trace",
                 tail: TailSampler | None = None,
                 max_roots: int | None = None) -> None:
        self.name = name
        self.metrics = MetricsRegistry()
        self.roots: list[Span] = []
        self.tail = tail
        self.max_roots = max_roots
        self.roots_dropped = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        # itertools.count.__next__ is atomic under the GIL, so id
        # assignment needs no extra locking.
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    # -- span stack ------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def push(self, span: Span) -> None:
        """Attach ``span`` under the current span (or as a new root).

        Assigns the span's stable ``span_id`` and propagates the root's
        ``trace_id`` down the tree.
        """
        stack = self._stack()
        if not span.span_id:
            span.span_id = next(self._span_ids)
        if stack:
            span.trace_id = stack[-1].trace_id
            stack[-1].children.append(span)
        else:
            if not span.trace_id:
                span.trace_id = f"{self.name}-{next(self._trace_ids)}"
            with self._lock:
                self.roots.append(span)
                if self.max_roots is not None \
                        and len(self.roots) > self.max_roots:
                    del self.roots[0]
                    self.roots_dropped += 1
        stack.append(span)

    def pop(self, span: Span) -> None:
        """Close out ``span`` (tolerates unbalanced exits).

        When the pop empties this thread's stack, the span's trace is
        complete and is offered to the tail sampler, if one is attached.
        """
        stack = self._stack()
        while stack:
            if stack.pop() is span:
                break
        if not stack and self.tail is not None:
            self.tail.offer(span)

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Open a child span for the duration of the ``with`` body."""
        span = Span(name, attrs, start=time.perf_counter())
        self.push(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self.pop(span)

    def clear(self) -> None:
        """Drop collected spans and reset every metric."""
        with self._lock:
            self.roots.clear()
            self.roots_dropped = 0
        self.metrics.reset()
        if self.tail is not None:
            self.tail.clear()


# -- process-wide request ids --------------------------------------------------

# One counter for every front end (HTTP plane, canary, direct calls), so
# no two requests of one process share an id.
_request_ids = itertools.count(1)


def next_request_id() -> str:
    """A fresh process-unique request id (``req-1``, ``req-2``, ...)."""
    return f"req-{next(_request_ids)}"


# -- the process-global recorder ---------------------------------------------

_recorder: NullRecorder | TraceRecorder = NULL_RECORDER


def get_recorder() -> NullRecorder | TraceRecorder:
    """The active recorder (the shared no-op one unless enabled)."""
    return _recorder


def set_recorder(recorder: NullRecorder | TraceRecorder) -> None:
    """Install ``recorder`` as the process-global recorder."""
    global _recorder
    _recorder = recorder


def enable(recorder: TraceRecorder | None = None) -> TraceRecorder:
    """Start recording globally; returns the installed recorder."""
    recorder = recorder or TraceRecorder()
    set_recorder(recorder)
    return recorder


def disable() -> None:
    """Stop recording: reinstall the shared no-op recorder."""
    set_recorder(NULL_RECORDER)


@contextmanager
def recording(recorder: TraceRecorder | None = None
              ) -> Iterator[TraceRecorder]:
    """Record within a ``with`` block, restoring the previous recorder."""
    previous = _recorder
    installed = enable(recorder)
    try:
        yield installed
    finally:
        set_recorder(previous)


# -- convenience pass-throughs -------------------------------------------------


def span(name: str, **attrs):
    """A span on the active recorder (no-op context when disabled)."""
    return _recorder.span(name, **attrs)


def counter(name: str, **labels):
    """A counter from the active recorder's metrics registry."""
    return _recorder.metrics.counter(name, **labels)


def gauge(name: str, **labels):
    """A gauge from the active recorder's metrics registry."""
    return _recorder.metrics.gauge(name, **labels)


def histogram(name: str, buckets=None):
    """A histogram from the active recorder's metrics registry."""
    return _recorder.metrics.histogram(name, buckets=buckets)


def note(level: str, name: str, message: str = "", **attrs) -> None:
    """Note ``name`` on the innermost open span of this thread.

    Does nothing while recording is disabled or when no span is open.
    """
    span = _recorder.current()
    if span is not None:
        span.note(level, name, message, **attrs)


def flat_notes(roots: Iterable[Span]) -> list[dict]:
    """Every note of the span forest ``roots``, oldest first.

    Each entry is the note plus the ``span_id`` and ``trace_id`` of the
    span it sits on and that span's name as ``span`` (unless the note
    already names the pruned span it came from): the flat view for
    readers that list notes rather than walk trees.
    """
    notes = [{"span": span.name, **record, "span_id": span.span_id,
              "trace_id": span.trace_id}
             for root in roots for span in root.walk()
             for record in span.notes]
    notes.sort(key=lambda record: record["ts"])
    return notes


@contextmanager
def timed(name: str, **attrs) -> Iterator[Span]:
    """A *real* span even when recording is disabled.

    The span is always created and timed — callers keep it as the
    authoritative duration of the work (see :class:`TimedResult`) — but
    it joins the trace tree only while a recorder is enabled.
    """
    recorder = _recorder
    span = Span(name, attrs, start=time.perf_counter())
    if recorder.enabled:
        recorder.push(span)
    try:
        yield span
    finally:
        span.end = time.perf_counter()
        if recorder.enabled:
            recorder.pop(span)


def traced(name: str | None = None, **attrs) -> Callable:
    """Decorator: run the function under a span named after it."""
    def wrap(fn: Callable) -> Callable:
        label = name or f"{fn.__module__}.{fn.__qualname__}"

        @functools.wraps(fn)
        def inner(*args, **kwargs):
            recorder = _recorder
            if not recorder.enabled:
                return fn(*args, **kwargs)
            with recorder.span(label, **attrs):
                return fn(*args, **kwargs)
        return inner
    return wrap


@dataclass
class ProfileEntry:
    """Aggregated timing of every span sharing one name (one *stage*)."""

    name: str
    calls: int = 0
    self_seconds: float = 0.0
    cum_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        """Mean cumulative seconds per call."""
        return self.cum_seconds / self.calls if self.calls else 0.0

    def to_dict(self) -> dict:
        """Plain-data form shared by ``/debug/profile`` and
        ``repro trace --json``."""
        return {
            "name": self.name,
            "calls": self.calls,
            "self_seconds": self.self_seconds,
            "cum_seconds": self.cum_seconds,
            "mean_seconds": self.mean_seconds,
        }


def aggregate_profile(source: "TraceRecorder | NullRecorder | "
                              "Iterable[Span]") -> list[ProfileEntry]:
    """Per-name flat/cumulative profile over a span forest.

    For each distinct span name: call count, **self** time (the span's
    duration minus its direct children — where the time was actually
    spent) and **cumulative** time (whole subtrees; re-entrant spans of
    the same name are counted once per outermost occurrence, the
    standard profiler convention, so recursion does not double-count).
    Entries come back sorted by self time, largest first — the "top
    hotspots" order.
    """
    roots = source if isinstance(source, (list, tuple)) \
        else getattr(source, "roots", None)
    if roots is None:
        roots = list(source)  # any other iterable of spans
    entries: dict[str, ProfileEntry] = {}
    active: dict[str, int] = {}

    def visit(span: Span) -> None:
        entry = entries.get(span.name)
        if entry is None:
            entry = entries[span.name] = ProfileEntry(span.name)
        seconds = span.seconds
        entry.calls += 1
        entry.self_seconds += max(
            seconds - sum(child.seconds for child in span.children), 0.0)
        depth = active.get(span.name, 0)
        if depth == 0:
            entry.cum_seconds += seconds
        active[span.name] = depth + 1
        for child in span.children:
            visit(child)
        active[span.name] = depth

    for root in roots:
        visit(root)
    return sorted(entries.values(),
                  key=lambda e: e.self_seconds, reverse=True)


@dataclass
class TimedResult:
    """Base for result records whose timing references a span.

    ``Response`` and ``BlockTrace`` both used to carry
    their own ``seconds`` float measured with private ``perf_counter``
    pairs; deriving the duration from the span that timed the work makes
    the numbers agree with the trace tree by construction.
    """

    span: Span | None = field(default=None, kw_only=True)

    @property
    def seconds(self) -> float:
        """Duration of the span that produced this result."""
        return self.span.seconds if self.span is not None else 0.0

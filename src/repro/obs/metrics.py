"""Counters, gauges and fixed-bucket histograms.

The instruments follow the conventional trio:

* :class:`Counter` — monotonically increasing count (index hits, rows
  produced, cache misses);
* :class:`Gauge` — last-written value (index sizes, warehouse
  staleness);
* :class:`Histogram` — fixed-bucket distribution of observations with
  p50/p90/p95/p99 summaries estimated by linear interpolation inside the
  winning bucket, clamped to the observed min/max.  Memory is O(buckets)
  however many values are observed — safe for unbounded request streams.

A :class:`MetricsRegistry` names and owns instruments; the null variants
at the bottom back the disabled global recorder so instrumented hot
paths cost a no-op method call when observability is off.  All mutating
paths are thread-safe.

A counter or gauge is one series of a family: a name plus optional
labels, spelled ``name{k="v",...}`` by :func:`series_key` alone.

:class:`WindowedSeries` is the time dimension the cumulative
instruments lack: it samples a registry into aligned ring-buffer
buckets so "requests per second over the last 5 minutes" and
"p99 latency over the last hour" become answerable — the substrate the
SLO / burn-rate layer (:mod:`repro.obs.slo`) evaluates against.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
import time
from collections import deque

#: Default bucket upper bounds, in seconds: 100 µs .. 10 s, roughly
#: geometric — sized for per-request / per-block latencies.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


_LABEL = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>(?:\\.|[^"\\])*)"')
_ESCAPE_SEQ = re.compile(r"\\.")
_UNESCAPES = {"\\n": "\n", '\\"': '"', "\\\\": "\\"}


def escape_label_value(value) -> str:
    """``value`` escaped per the Prometheus exposition spec: backslash,
    double quote and newline become ``\\\\``, ``\\"`` and ``\\n``."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def format_labels(labels: dict | None) -> str:
    """A label dict as ``{k="v",...}`` with spec-escaped values (empty
    string for no labels)."""
    if not labels:
        return ""
    inner = ",".join(f'{key}="{escape_label_value(value)}"'
                     for key, value in labels.items())
    return "{" + inner + "}"


def series_key(name: str, labels: dict | None = None) -> str:
    """The key a series is registered and exported under: ``name``
    alone, or ``name{k="v",...}`` with keys sorted."""
    if not labels:
        return name
    return name + format_labels(dict(sorted(labels.items())))


def split_series_key(key: str) -> tuple[str, dict]:
    """A :func:`series_key` back into ``(family name, labels)``.  Label
    values are unescaped in one pass, so an escaped backslash followed
    by ``n`` is not mistaken for a newline."""
    name, _, labels = key.partition("{")
    return name, {m.group("key"): _ESCAPE_SEQ.sub(
                      lambda e: _UNESCAPES.get(e[0], e[0]), m.group("val"))
                  for m in _LABEL.finditer(labels)}


def families(values: dict) -> dict[str, list[tuple[dict, object]]]:
    """``{series key: value}`` as ``{name: [(labels, value), ...]}``."""
    grouped: dict[str, list[tuple[dict, object]]] = {}
    for key, value in values.items():
        name, labels = split_series_key(key)
        grouped.setdefault(name, []).append((labels, value))
    return grouped


def family_total(values: dict, name: str) -> float | None:
    """The sum of every series of family ``name``; ``None`` if none."""
    series = families(values).get(name)
    return sum(value for _, value in series) if series else None


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (default 1)."""
        with self._lock:
            self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A last-value-wins instrument."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Record the current level."""
        with self._lock:
            self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """A fixed-bucket histogram with percentile summaries."""

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total",
                 "min", "max", "_lock")

    def __init__(self, name: str,
                 buckets: tuple[float, ...] | None = None) -> None:
        self.name = name
        self.bounds = tuple(sorted(buckets or DEFAULT_BUCKETS))
        if not self.bounds:
            raise ValueError("a histogram needs at least one bucket")
        # One overflow bucket past the last bound.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        """Mean observation (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (``q`` in [0, 1]), interpolated.

        Resolution is bounded by bucket width; estimates are clamped to
        the observed min/max so small sample counts stay sensible.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.bounds[i - 1] if i > 0 else min(
                    self.min, self.bounds[0])
                upper = self.bounds[i] if i < len(self.bounds) else self.max
                fraction = (rank - cumulative) / bucket_count
                estimate = lower + fraction * max(upper - lower, 0.0)
                return min(max(estimate, self.min), self.max)
            cumulative += bucket_count
        return self.max

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p90(self) -> float:
        return self.percentile(0.90)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, observations <= bound)`` pairs, Prometheus
        style: counts are cumulative and the final pair's bound is
        ``inf`` (the ``+Inf`` bucket), whose count equals ``count``."""
        with self._lock:
            pairs: list[tuple[float, int]] = []
            running = 0
            for bound, bucket_count in zip(self.bounds, self.bucket_counts):
                running += bucket_count
                pairs.append((bound, running))
            pairs.append((math.inf, self.count))
            return pairs

    def summary(self) -> dict:
        """The exportable digest of this histogram.

        ``buckets`` lists cumulative ``[upper_bound, count]`` pairs
        (the ``+Inf`` bound serialized as the string ``"+Inf"`` so the
        digest stays valid JSON), which is enough detail to re-render
        a Prometheus exposition from an exported document.
        """
        empty = self.count == 0
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": 0.0 if empty else self.min,
            "max": 0.0 if empty else self.max,
            "p50": self.p50,
            "p90": self.p90,
            "p95": self.p95,
            "p99": self.p99,
            "buckets": [["+Inf" if math.isinf(bound) else bound, count]
                        for bound, count in self.cumulative_buckets()],
        }

    def __repr__(self) -> str:
        return (f"Histogram({self.name!r}, count={self.count}, "
                f"p50={self.p50:.6f})")


class MetricsRegistry:
    """Named instruments, created on first use."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._published: dict[str, dict[str, int]] = {}

    def _instrument(self, table: dict, key: str, make):
        with self._lock:
            instrument = table.get(key)
            if instrument is None:
                instrument = table[key] = make(key)
            return instrument

    def counter(self, name: str, **labels) -> Counter:
        """The counter ``name`` with ``labels`` (created on demand)."""
        return self._instrument(self._counters, series_key(name, labels),
                                Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge ``name`` with ``labels`` (created on demand)."""
        return self._instrument(self._gauges, series_key(name, labels),
                                Gauge)

    def histogram(self, name: str,
                  buckets: tuple[float, ...] | None = None) -> Histogram:
        """The histogram under ``name`` (created on demand; ``buckets``
        only applies then)."""
        return self._instrument(self._histograms, name,
                                lambda key: Histogram(key, buckets))

    def publish(self, prefix: str, counts: dict[str, int]) -> None:
        """Export the plain-int ``counts`` an owner keeps as counters
        ``prefix.<key>``, read by each :meth:`as_dict` (a reference, not
        a copy); it replaces any dict published under ``prefix``."""
        with self._lock:
            self._published[prefix] = counts

    def reset(self) -> None:
        """Forget every instrument and published dict."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._published.clear()

    def as_dict(self) -> dict:
        """Plain-data form of every instrument (the JSON export shape),
        counters and gauges keyed by :func:`series_key`; published
        counts join the counters as they stand now."""
        with self._lock:
            counters = {n: c.value for n, c in self._counters.items()}
            for prefix, counts in self._published.items():
                counters.update((f"{prefix}.{key}", value)
                                for key, value in list(counts.items()))
            return {
                "counters": dict(sorted(counters.items())),
                "gauges": {n: g.value
                           for n, g in sorted(self._gauges.items())},
                "histograms": {n: h.summary()
                               for n, h in sorted(self._histograms.items())},
            }


# -- windowed time series ------------------------------------------------------


#: Default sampling step for :class:`WindowedSeries`, in seconds.
DEFAULT_WINDOW_STEP = 5.0

#: Default retention for :class:`WindowedSeries`: long enough to cover
#: the slow 6 h burn-rate window plus one spare step.
DEFAULT_WINDOW_RETENTION = 6 * 3600.0 + DEFAULT_WINDOW_STEP


class _HistSample:
    """One histogram's cumulative state at a sample instant."""

    __slots__ = ("bounds", "cumulative", "count", "total")

    def __init__(self, bounds: tuple[float, ...],
                 cumulative: tuple[float, ...], count: int,
                 total: float) -> None:
        self.bounds = bounds          # finite upper bounds, ascending
        self.cumulative = cumulative  # one entry per bound + the +Inf one
        self.count = count
        self.total = total


class _Sample:
    """Cumulative values of every registered instrument at one instant."""

    __slots__ = ("ts", "counters", "gauges", "histograms")

    def __init__(self, ts: float, counters: dict, gauges: dict,
                 histograms: dict) -> None:
        self.ts = ts
        self.counters = counters
        self.gauges = gauges
        self.histograms = histograms


class WindowedSeries:
    """Aligned ring-buffer sampling of a registry's cumulative state.

    Counters, gauges and histograms are *cumulative since start*; a
    :class:`WindowedSeries` adds the time dimension by snapshotting the
    whole registry into buckets aligned to ``step``-second boundaries,
    keeping at most ``retention / step`` of them (O(windows) memory
    however long the process runs).  Windowed queries then difference
    two samples:

    * :meth:`increase` — how much a counter (or a histogram's count)
      grew over the last ``window`` seconds;
    * :meth:`rate` — that increase per second;
    * :meth:`quantile` — a histogram quantile computed over only the
      observations that arrived inside the window;
    * :meth:`fraction_below` — the share of windowed observations at or
      under a latency threshold (the latency-SLO primitive).

    A window that reaches past the oldest retained sample is clipped to
    the data actually available (a freshly started server answers
    "error rate over the last hour" with "over its whole lifetime so
    far", the useful degradation for burn-rate alerting — with
    :meth:`seed_zero`, what came before the first sample included);
    queries over fewer than two samples return ``None`` ("no data" —
    distinct from a healthy zero).  Counter resets (a registry
    ``reset()``) are handled Prometheus-style: a negative delta is read
    as a restart and the newer cumulative value is used.  All paths are
    lock-guarded like the instruments themselves.
    """

    def __init__(self, registry: "MetricsRegistry",
                 step: float = DEFAULT_WINDOW_STEP,
                 retention: float = DEFAULT_WINDOW_RETENTION) -> None:
        if step <= 0:
            raise ValueError(f"step must be positive: {step}")
        if retention < step:
            raise ValueError("retention shorter than one step")
        self.registry = registry
        self.step = float(step)
        self.retention = float(retention)
        self._samples: deque[_Sample] = deque(
            maxlen=int(retention / step) + 1)
        self._lock = threading.Lock()

    # -- sampling --------------------------------------------------------------

    @staticmethod
    def _snapshot_histograms(histograms: dict) -> dict:
        out: dict[str, _HistSample] = {}
        for name, summary in histograms.items():
            pairs = summary.get("buckets") or []
            bounds = tuple(float(bound) for bound, _ in pairs
                           if bound != "+Inf"
                           and not (isinstance(bound, float)
                                    and math.isinf(bound)))
            cumulative = tuple(float(count) for _, count in pairs)
            out[name] = _HistSample(bounds, cumulative,
                                    int(summary.get("count", 0)),
                                    float(summary.get("sum", 0.0)))
        return out

    def sample(self, now: float | None = None) -> float:
        """Snapshot the registry into the bucket containing ``now``.

        Buckets are aligned to ``step`` boundaries; a second sample
        landing in the same bucket replaces the first (latest data
        wins), so callers may sample faster than ``step`` without
        growing the ring.  Returns the aligned bucket timestamp.
        """
        if now is None:
            now = time.time()
        document = self.registry.as_dict()
        aligned = math.floor(now / self.step) * self.step
        snapshot = _Sample(
            aligned,
            dict(document.get("counters", {})),
            dict(document.get("gauges", {})),
            self._snapshot_histograms(document.get("histograms", {})))
        with self._lock:
            if self._samples and self._samples[-1].ts >= aligned:
                self._samples[-1] = snapshot
            else:
                self._samples.append(snapshot)
        return aligned

    def seed_zero(self, ts: float) -> None:
        """Hold the registry's start state (every count zero) at ``ts``,
        ahead of every retained sample, so windows reaching past the
        first real sample count what came before it.  It is an ordinary
        sample: later samples never replace it, and it leaves the ring
        once the ring fills."""
        with self._lock:
            if (len(self._samples) == self._samples.maxlen
                    or (self._samples and self._samples[0].ts <= ts)):
                raise ValueError(f"no room for a zero state at {ts}")
            self._samples.appendleft(_Sample(float(ts), {}, {}, {}))

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def coverage(self) -> float:
        """Seconds of history currently retained (0 when < 2 samples)."""
        with self._lock:
            if len(self._samples) < 2:
                return 0.0
            return self._samples[-1].ts - self._samples[0].ts

    def clear(self) -> None:
        """Forget every retained sample."""
        with self._lock:
            self._samples.clear()

    def _bounding(self, window: float) -> tuple[_Sample, _Sample] | None:
        """The (start, end) samples spanning the last ``window`` seconds
        (clipped to available history); ``None`` under two samples."""
        with self._lock:
            if len(self._samples) < 2:
                return None
            end = self._samples[-1]
            cutoff = end.ts - window
            start = self._samples[0]
            for candidate in self._samples:
                if candidate.ts <= cutoff:
                    start = candidate
                else:
                    break
            if start.ts >= end.ts:
                return None
            return start, end

    # -- windowed queries ------------------------------------------------------

    @staticmethod
    def _delta(old: float | None, new: float | None) -> float | None:
        if new is None:
            return None
        if old is None or new < old:  # appeared, or counter reset
            return new
        return new - old

    def increase(self, name: str, window: float) -> float | None:
        """How much counter family ``name`` (summed over its series) or
        histogram ``name``'s count grew over the last ``window``
        seconds; ``None`` without data."""
        bounding = self._bounding(window)
        if bounding is None:
            return None
        start, end = bounding
        total = family_total(end.counters, name)
        if total is not None:
            return self._delta(family_total(start.counters, name), total)
        hist = end.histograms.get(name)
        if hist is not None:
            old = start.histograms.get(name)
            return self._delta(old.count if old else None, hist.count)
        return None

    def rate(self, name: str, window: float) -> float | None:
        """Per-second :meth:`increase` over the (clipped) window."""
        bounding = self._bounding(window)
        if bounding is None:
            return None
        amount = self.increase(name, window)
        if amount is None:
            return None
        start, end = bounding
        return amount / (end.ts - start.ts)

    def _bucket_deltas(self, name: str, window: float
                       ) -> tuple[tuple[float, ...], list[float]] | None:
        """``(bounds, per-bucket cumulative deltas)`` for histogram
        ``name`` over the window, reset-aware; ``None`` without data."""
        bounding = self._bounding(window)
        if bounding is None:
            return None
        start, end = bounding
        new = end.histograms.get(name)
        if new is None or not new.cumulative:
            return None
        old = start.histograms.get(name)
        if old is None or old.count > new.count \
                or len(old.cumulative) != len(new.cumulative):
            # Histogram appeared mid-window or was reset: the newer
            # cumulative state *is* the windowed state.
            return new.bounds, list(new.cumulative)
        deltas = [max(n - o, 0.0) for o, n
                  in zip(old.cumulative, new.cumulative)]
        return new.bounds, deltas

    def fraction_below(self, name: str, threshold: float,
                       window: float) -> tuple[float, float] | None:
        """``(observations <= threshold, total observations)`` for
        histogram ``name`` over the window, interpolating inside the
        bucket that contains ``threshold``; ``None`` without data."""
        buckets = self._bucket_deltas(name, window)
        if buckets is None:
            return None
        bounds, deltas = buckets
        total = deltas[-1] if deltas else 0.0
        if threshold <= 0 or not bounds:
            return 0.0, total
        if threshold >= bounds[-1]:
            return total, total
        i = bisect.bisect_left(bounds, threshold)
        below = deltas[i - 1] if i > 0 else 0.0
        in_bucket = max(deltas[i] - below, 0.0)
        lower = bounds[i - 1] if i > 0 else 0.0
        span = bounds[i] - lower
        fraction = (threshold - lower) / span if span > 0 else 1.0
        return below + fraction * in_bucket, total

    def quantile(self, name: str, q: float,
                 window: float) -> float | None:
        """The ``q``-quantile of histogram ``name`` over the window.

        Prometheus ``histogram_quantile`` semantics: linear
        interpolation inside the winning bucket, with the overflow
        bucket answering the last finite bound (the true maximum is
        unknowable from buckets alone).  ``None`` without data or when
        no observation landed in the window.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        buckets = self._bucket_deltas(name, window)
        if buckets is None:
            return None
        bounds, deltas = buckets
        total = deltas[-1] if deltas else 0.0
        if total <= 0 or not bounds:
            return None
        rank = q * total
        previous = 0.0
        for i, cumulative in enumerate(deltas):
            if cumulative >= rank and cumulative > previous:
                if i >= len(bounds):  # the +Inf bucket
                    return bounds[-1]
                lower = bounds[i - 1] if i > 0 else 0.0
                fraction = (rank - previous) / (cumulative - previous)
                return lower + fraction * (bounds[i] - lower)
            previous = cumulative
        return bounds[-1]

    def gauge_last(self, name: str) -> float | None:
        """Gauge ``name``'s value at the newest sample, if any."""
        with self._lock:
            if not self._samples:
                return None
            return self._samples[-1].gauges.get(name)

    @classmethod
    def from_document(cls, document: dict,
                      window: float) -> "WindowedSeries":
        """A two-sample series built from an exported metrics document.

        The series holds an empty state at ``t=0`` and ``document``'s
        cumulative state at ``t=window``, so every windowed query
        answers over the whole run the dump describes — how
        ``repro slo check`` evaluates objectives offline.
        """
        if window <= 0:
            raise ValueError(f"window must be positive: {window}")
        series = cls(NullMetricsRegistry(), step=float(window),
                     retention=float(window) * 2)
        end = _Sample(
            float(window),
            dict(document.get("counters", {})),
            dict(document.get("gauges", {})),
            cls._snapshot_histograms(document.get("histograms", {})))
        series._samples.append(_Sample(0.0, {}, {}, {}))
        series._samples.append(end)
        return series


# -- null instruments (the disabled fast path) --------------------------------


class _NullCounter:
    __slots__ = ()
    name = "null"
    value = 0

    def inc(self, amount: int | float = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = "null"
    value = 0.0

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    name = "null"
    count = 0
    total = 0.0
    mean = 0.0
    min = 0.0
    max = 0.0
    p50 = p90 = p95 = p99 = 0.0

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def summary(self) -> dict:
        return {}


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullMetricsRegistry:
    """Hands out shared no-op instruments."""

    __slots__ = ()

    def counter(self, name: str, **labels) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, buckets=None) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def publish(self, prefix: str, counts: dict[str, int]) -> None:
        pass

    def reset(self) -> None:
        pass

    def as_dict(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NULL_METRICS = NullMetricsRegistry()

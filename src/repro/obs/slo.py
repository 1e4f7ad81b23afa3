"""Service-level objectives, burn-rate alerting, and the canary.

PRs 1–8 made the server *observable* — spans, Prometheus
metrics, query stats, lineage — but every signal is cumulative since
start and none of it says when the site is unhealthy.  This module
turns signals into judgements:

* :class:`SLO` — a declarative objective ("99% of ``server.request``
  under 250 ms over 1 h") over the :class:`~repro.obs.metrics.WindowedSeries`
  substrate, either *availability* (bad / total counters) or *latency*
  (histogram fraction over a threshold);

* :class:`AlertRule` — one multi-window burn-rate rule per
  (SLO, window pair), SRE-workbook style: it fires only when both the
  short and the long window burn error budget faster than the pair's
  factor, which makes fast pairs (5 m / 1 h, 14.4×) page-worthy without
  flapping and slow pairs (30 m / 6 h, 6×) catch smoulders.  Each rule
  runs a pending → firing → resolved state machine and its transitions
  become ``alert.*`` notes on the tick's ``slo.evaluate`` span;

* :class:`SLOEvaluator` — samples the registry each tick, updates
  ``slo.*`` gauges (compliance, burn rate, budget remaining) and the
  ``alerts_firing`` gauge, and steps every rule.  It backs
  ``/debug/slo``, ``/debug/alerts``, the monitor dashboard's Alerts
  page, and the ``slo`` section of ``snapshot.json``;

* :class:`CanaryProber` — a background thread on ``repro serve`` that
  exercises a known page end-to-end (URL resolution, lazy-graph
  materialisation, query evaluation, template rendering) and feeds
  dedicated ``canary.*`` series, so the server detects its own
  regressions with zero organic traffic.

``repro slo check`` reuses the same arithmetic offline against a
metrics or snapshot dump (see :func:`check_document`), exiting
non-zero on violation so CI can gate on it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from .metrics import WindowedSeries, DEFAULT_WINDOW_STEP
from .trace import Span, timed

try:  # Python 3.11+
    import tomllib
except ImportError:  # pragma: no cover - gated, never installed
    tomllib = None

#: A burn rate at or past this means the objective is being violated
#: outright (budget consumed as fast as it accrues).
VIOLATION_BURN = 1.0


# -- objectives ---------------------------------------------------------------


@dataclass
class SLO:
    """One declarative objective over a rolling window.

    ``kind="availability"`` reads two counters: ``total_metric`` (all
    attempts) and ``bad_metric`` (failures; absent counter = zero
    failures).  ``kind="latency"`` reads one histogram,
    ``latency_metric``, and counts an observation *bad* when it lands
    past ``threshold_s``.  ``target`` is the good fraction promised
    (0.99 = "99% good"); ``window_s`` the rolling compliance window.
    """

    name: str
    kind: str  # "availability" | "latency"
    target: float
    window_s: float = 3600.0
    total_metric: str = ""
    bad_metric: str = ""
    latency_metric: str = ""
    threshold_s: float = 0.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("availability", "latency"):
            raise ValueError(f"unknown SLO kind: {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(
                f"target must be in (0, 1): {self.target}")
        if self.kind == "availability" and not self.total_metric:
            raise ValueError(f"SLO {self.name}: total_metric required")
        if self.kind == "latency" and (not self.latency_metric
                                       or self.threshold_s <= 0):
            raise ValueError(
                f"SLO {self.name}: latency_metric and a positive "
                f"threshold_s required")

    @property
    def budget(self) -> float:
        """The error budget: the bad fraction the target tolerates."""
        return 1.0 - self.target

    def bad_ratio(self, series: WindowedSeries,
                  window: float) -> float | None:
        """The bad fraction over the last ``window`` seconds.

        ``None`` means *no data* (no attempts in the window, or the
        series is too young) — deliberately distinct from a healthy
        0.0, so alert rules stay quiet instead of judging silence.
        """
        if self.kind == "availability":
            total = series.increase(self.total_metric, window)
            if total is None or total <= 0:
                return None
            bad = series.increase(self.bad_metric, window) or 0.0
            return min(max(bad / total, 0.0), 1.0)
        below = series.fraction_below(self.latency_metric,
                                      self.threshold_s, window)
        if below is None:
            return None
        good, total = below
        if total <= 0:
            return None
        return min(max(1.0 - good / total, 0.0), 1.0)

    def burn_rate(self, series: WindowedSeries,
                  window: float) -> float | None:
        """How fast the window eats error budget (1.0 = exactly on
        target, 14.4 = the whole 30-day budget in ~2 days)."""
        ratio = self.bad_ratio(series, window)
        if ratio is None:
            return None
        return ratio / max(self.budget, 1e-9)

    def describe(self) -> str:
        if self.kind == "availability":
            detail = (f"{self.total_metric} good "
                      f"(bad: {self.bad_metric or 'none'})")
        else:
            detail = (f"{self.latency_metric} <= "
                      f"{self.threshold_s * 1000:g} ms")
        return (f"{self.target * 100:g}% of {detail} "
                f"over {int(self.window_s)}s")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "window_s": self.window_s,
            "objective": self.describe(),
            "description": self.description,
        }


@dataclass(frozen=True)
class BurnRatePair:
    """One multi-window burn-rate condition (long + short window).

    The rule trips only when *both* windows burn at ``factor`` or
    faster: the long window proves the problem is sustained, the short
    window proves it is still happening (and lets the alert resolve
    promptly once the bleeding stops).
    """

    long_s: float
    short_s: float
    factor: float
    severity: str  # "page" | "ticket"

    def as_dict(self) -> dict:
        return {
            "long_s": self.long_s,
            "short_s": self.short_s,
            "factor": self.factor,
            "severity": self.severity,
        }


#: SRE-workbook defaults: the fast pair pages on budget burning 14.4×
#: too fast (5 m / 1 h), the slow pair tickets smoulders (30 m / 6 h).
DEFAULT_PAIRS: tuple[BurnRatePair, ...] = (
    BurnRatePair(long_s=3600.0, short_s=300.0, factor=14.4,
                 severity="page"),
    BurnRatePair(long_s=21600.0, short_s=1800.0, factor=6.0,
                 severity="ticket"),
)

#: Consecutive burning ticks before pending becomes firing.
DEFAULT_FOR_TICKS = 2
#: Consecutive quiet ticks before firing resolves.
DEFAULT_CLEAR_TICKS = 2


class AlertRule:
    """The pending → firing → resolved state machine for one
    (SLO, window pair).

    Each evaluator tick calls :meth:`step`.  A tick is *burning* when
    both of the pair's windows burn at or past the factor; the first
    burning tick moves ok → pending, ``for_ticks`` consecutive ones
    move pending → firing, and ``clear_ticks`` consecutive quiet ticks
    move firing → ok (reported as *resolved*).  Window queries clip to
    the data actually retained, so a freshly started server can still
    fire — "error rate over the last hour" degrades to "over its whole
    lifetime so far".
    """

    def __init__(self, slo: SLO, pair: BurnRatePair,
                 for_ticks: int = DEFAULT_FOR_TICKS,
                 clear_ticks: int = DEFAULT_CLEAR_TICKS) -> None:
        self.slo = slo
        self.pair = pair
        self.for_ticks = max(int(for_ticks), 1)
        self.clear_ticks = max(int(clear_ticks), 1)
        self.state = "ok"  # "ok" | "pending" | "firing"
        self.since: float | None = None
        self.last_change: float | None = None
        self.short_burn: float | None = None
        self.long_burn: float | None = None
        self._burn_streak = 0
        self._quiet_streak = 0

    @property
    def name(self) -> str:
        return f"{self.slo.name}:{self.pair.severity}"

    def step(self, series: WindowedSeries,
             now: float) -> str | None:
        """Advance one tick; returns the transition that happened
        (``"pending"``/``"firing"``/``"resolved"``) or ``None``."""
        self.long_burn = self.slo.burn_rate(series, self.pair.long_s)
        self.short_burn = self.slo.burn_rate(series, self.pair.short_s)
        burning = (self.long_burn is not None
                   and self.short_burn is not None
                   and self.long_burn >= self.pair.factor
                   and self.short_burn >= self.pair.factor)
        transition: str | None = None
        if burning:
            self._burn_streak += 1
            self._quiet_streak = 0
            if self.state == "ok":
                self.state = "pending"
                self.since = now
                transition = "pending"
            if (self.state == "pending"
                    and self._burn_streak >= self.for_ticks):
                self.state = "firing"
                transition = "firing"
        else:
            self._burn_streak = 0
            if self.state == "pending":
                # A single quiet tick clears a pending alert — it
                # never notified anyone, no hysteresis needed.
                self.state = "ok"
                self.since = None
            elif self.state == "firing":
                self._quiet_streak += 1
                if self._quiet_streak >= self.clear_ticks:
                    self.state = "ok"
                    self.since = None
                    transition = "resolved"
            else:
                self._quiet_streak = 0
        if transition is not None:
            self.last_change = now
        return transition

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "slo": self.slo.name,
            "severity": self.pair.severity,
            "state": self.state,
            "factor": self.pair.factor,
            "long_window_s": self.pair.long_s,
            "short_window_s": self.pair.short_s,
            "long_burn": self.long_burn,
            "short_burn": self.short_burn,
            "since": self.since,
            "last_change": self.last_change,
        }


# -- the evaluator ------------------------------------------------------------


class SLOEvaluator:
    """Samples the registry and judges every objective each tick.

    One :meth:`evaluate` call, under one ``slo.evaluate`` span: sample
    the windowed series, refresh the per-SLO gauges (``slo.compliance``,
    ``slo.burn_rate`` and ``slo.budget_remaining``, labeled ``slo``),
    step every alert rule, note each transition as ``alert.*`` on the
    span, and set ``alerts_firing``.
    Ticks are driven either by the :class:`CanaryProber` (each probe
    ends with an evaluation) or by :meth:`start_background`.
    """

    def __init__(self, recorder, slos: list[SLO] | None = None,
                 step: float = DEFAULT_WINDOW_STEP,
                 retention: float | None = None,
                 pairs: tuple[BurnRatePair, ...] = DEFAULT_PAIRS,
                 for_ticks: int = DEFAULT_FOR_TICKS,
                 clear_ticks: int = DEFAULT_CLEAR_TICKS) -> None:
        self.recorder = recorder
        self.slos = list(slos if slos is not None else default_slos())
        if retention is None:
            # Retain enough history for the longest window asked for.
            longest = max([p.long_s for p in pairs]
                          + [s.window_s for s in self.slos] + [step])
            retention = longest + step
        self.series = WindowedSeries(recorder.metrics, step=step,
                                     retention=retention)
        self.rules = [AlertRule(slo, pair, for_ticks, clear_ticks)
                      for slo in self.slos for pair in pairs]
        self.pairs = pairs
        self.ticks = 0
        self.last_tick: float | None = None
        self._status: list[dict] = []
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -- one tick --------------------------------------------------------------

    def evaluate(self, now: float | None = None) -> list[dict]:
        """One tick: sample, judge, alert.  Returns per-SLO status."""
        if now is None:
            now = time.time()
        with self.recorder.span("slo.evaluate") as span, self._lock:
            first = not len(self.series)
            aligned = self.series.sample(now)
            if first:
                # Requests served before the first tick count too, as
                # they do when ``repro slo check`` judges a metrics dump.
                self.series.seed_zero(aligned - self.series.step)
            metrics = self.recorder.metrics
            status = []
            for slo in self.slos:
                ratio = slo.bad_ratio(self.series, slo.window_s)
                burn = (None if ratio is None
                        else ratio / max(slo.budget, 1e-9))
                compliance = None if ratio is None else 1.0 - ratio
                budget_left = None if burn is None else 1.0 - burn
                entry = slo.as_dict()
                entry.update(bad_ratio=ratio, compliance=compliance,
                             burn_rate=burn,
                             budget_remaining=budget_left,
                             violated=(burn is not None
                                       and burn >= VIOLATION_BURN))
                status.append(entry)
                if compliance is not None:
                    metrics.gauge("slo.compliance",
                                  slo=slo.name).set(compliance)
                    metrics.gauge("slo.burn_rate", slo=slo.name).set(burn)
                    metrics.gauge("slo.budget_remaining",
                                  slo=slo.name).set(budget_left)
            firing = 0
            for rule in self.rules:
                transition = rule.step(self.series, now)
                if rule.state == "firing":
                    firing += 1
                if transition is not None:
                    self._note(span, rule, transition)
            span.set(firing=firing)
            metrics.gauge("alerts_firing").set(firing)
            self.ticks += 1
            self.last_tick = now
            self._status = status
            return status

    @staticmethod
    def _note(span: Span, rule: AlertRule, transition: str) -> None:
        level = {"pending": "warning", "firing": "error",
                 "resolved": "info"}[transition]
        span.note(
            level, f"alert.{transition}",
            f"{rule.slo.describe()} [{rule.pair.severity}]",
            slo=rule.slo.name, severity=rule.pair.severity,
            factor=rule.pair.factor,
            long_window_s=rule.pair.long_s,
            short_window_s=rule.pair.short_s,
            long_burn=(round(rule.long_burn, 3)
                       if rule.long_burn is not None else None),
            short_burn=(round(rule.short_burn, 3)
                        if rule.short_burn is not None else None))

    # -- surfacing -------------------------------------------------------------

    def firing(self) -> list[AlertRule]:
        return [r for r in self.rules if r.state == "firing"]

    def worst(self) -> tuple[str, float] | None:
        """The worst-burning SLO over its own window, if any burns."""
        worst: tuple[str, float] | None = None
        for entry in self._status:
            burn = entry.get("burn_rate")
            if burn is None:
                continue
            if worst is None or burn > worst[1]:
                worst = (entry["name"], burn)
        return worst

    def snapshot(self) -> dict:
        """The full judgement state, for ``/debug/slo``,
        ``/debug/alerts`` and ``snapshot.json``."""
        with self._lock:
            return {
                "ticks": self.ticks,
                "last_tick": self.last_tick,
                "step_s": self.series.step,
                "coverage_s": self.series.coverage(),
                "slos": [dict(entry) for entry in self._status],
                "alerts": [rule.as_dict() for rule in self.rules],
                "firing": len([r for r in self.rules
                               if r.state == "firing"]),
            }

    # -- background loop -------------------------------------------------------

    def start_background(self, interval: float | None = None) -> None:
        """Evaluate every ``interval`` seconds (default: the sampling
        step) on a daemon thread until :meth:`stop`."""
        if self._thread is not None:
            return
        interval = interval if interval is not None else self.series.step
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(interval):
                self.evaluate()

        self._thread = threading.Thread(
            target=loop, name="slo-evaluator", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None


# -- the process-global evaluator ---------------------------------------------

_evaluator: SLOEvaluator | None = None


def get_slo_evaluator() -> SLOEvaluator | None:
    """The active evaluator, if ``repro serve`` installed one."""
    return _evaluator


def set_slo_evaluator(evaluator: SLOEvaluator | None) -> None:
    """Install (or clear, with ``None``) the global evaluator."""
    global _evaluator
    _evaluator = evaluator


# -- the canary ---------------------------------------------------------------


class CanaryProber:
    """A self-probing synthetic user on a daemon thread.

    Every ``interval`` seconds it requests the site's first root page
    through the full dynamic pipeline — URL resolution, lazy-graph
    materialisation, the site-definition query, template rendering —
    under a ``canary.probe`` span, then records ``canary.probes`` /
    ``canary.failures`` counters and the ``canary.probe_seconds``
    histogram (that span's duration) which the canary SLOs read.  A
    failed probe gets a ``canary.failed`` note on its span.  Each probe
    ends by ticking the evaluator, so alert latency is bounded by the
    probe interval even with zero organic traffic.
    """

    def __init__(self, site_server, recorder,
                 interval: float = 5.0,
                 evaluator: SLOEvaluator | None = None) -> None:
        self.site_server = site_server
        self.recorder = recorder
        self.interval = interval
        self.evaluator = evaluator
        self.probes = 0
        self.failures = 0
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    def probe(self) -> bool:
        """One end-to-end probe; returns whether it succeeded."""
        metrics = self.recorder.metrics
        roots = self.site_server.roots()
        with timed("canary.probe") as span:
            try:
                if not roots:
                    raise RuntimeError("site has no root pages")
                response = self.site_server.request(roots[0])
                ok = response.status == 200
                detail = f"status {response.status}"
            except Exception as exc:  # a broken probe is the signal
                ok, detail = False, str(exc)
            if not ok:
                span.note("warning", "canary.failed", detail)
        self.probes += 1
        metrics.counter("canary.probes").inc()
        metrics.histogram("canary.probe_seconds").observe(span.seconds)
        if not ok:
            self.failures += 1
            metrics.counter("canary.failures").inc()
        if self.evaluator is not None:
            self.evaluator.evaluate()
        return ok

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(self.interval):
                self.probe()

        self._thread = threading.Thread(
            target=loop, name="canary-prober", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def as_dict(self) -> dict:
        return {
            "interval_s": self.interval,
            "probes": self.probes,
            "failures": self.failures,
            "running": self._thread is not None,
        }


# -- stock objectives and configuration ---------------------------------------


def default_slos() -> list[SLO]:
    """The out-of-the-box objectives for ``repro serve``."""
    return [
        SLO(name="server-availability", kind="availability",
            target=0.99, window_s=3600.0,
            total_metric="server.requests", bad_metric="server.errors",
            description="99% of page requests succeed over 1 h"),
        SLO(name="server-latency", kind="latency",
            target=0.99, window_s=3600.0,
            latency_metric="server.request_seconds", threshold_s=0.25,
            description="99% of page requests under 250 ms over 1 h"),
        SLO(name="canary-availability", kind="availability",
            target=0.99, window_s=3600.0,
            total_metric="canary.probes", bad_metric="canary.failures",
            description="99% of canary probes succeed over 1 h"),
        SLO(name="canary-latency", kind="latency",
            target=0.99, window_s=3600.0,
            latency_metric="canary.probe_seconds", threshold_s=1.0,
            description="99% of canary probes under 1 s over 1 h"),
    ]


@dataclass
class SLOConfig:
    """Everything ``slo.toml`` can say (defaults when absent)."""

    slos: list[SLO] = field(default_factory=default_slos)
    step_s: float = DEFAULT_WINDOW_STEP
    for_ticks: int = DEFAULT_FOR_TICKS
    clear_ticks: int = DEFAULT_CLEAR_TICKS
    canary_interval_s: float = 5.0


def _slo_from_table(table: dict) -> SLO:
    kind = table.get("kind", "availability")
    threshold_s = float(table.get("threshold_ms", 0.0)) / 1000.0
    if "threshold_s" in table:
        threshold_s = float(table["threshold_s"])
    return SLO(
        name=str(table.get("name", "")) or "unnamed",
        kind=kind,
        target=float(table.get("target", 0.99)),
        window_s=float(table.get("window_s", 3600.0)),
        total_metric=str(table.get("total", "")),
        bad_metric=str(table.get("bad", "")),
        latency_metric=str(table.get("metric", "")),
        threshold_s=threshold_s,
        description=str(table.get("description", "")))


def load_slo_config(path: str) -> SLOConfig:
    """Parse an ``slo.toml``:

    .. code-block:: toml

        step_s = 5.0

        [alerts]
        for_ticks = 2
        clear_ticks = 2

        [canary]
        interval_s = 5.0

        [[slo]]
        name = "server-latency"
        kind = "latency"
        metric = "server.request_seconds"
        threshold_ms = 250
        target = 0.99
        window_s = 3600

        [[slo]]
        name = "server-availability"
        kind = "availability"
        total = "server.requests"
        bad = "server.errors"
        target = 0.99
    """
    if tomllib is None:  # pragma: no cover - py<3.11 only
        raise RuntimeError("slo.toml requires Python 3.11+ (tomllib)")
    with open(path, "rb") as handle:
        document = tomllib.load(handle)
    config = SLOConfig()
    if "step_s" in document:
        config.step_s = float(document["step_s"])
    alerts = document.get("alerts", {})
    config.for_ticks = int(alerts.get("for_ticks", config.for_ticks))
    config.clear_ticks = int(
        alerts.get("clear_ticks", config.clear_ticks))
    canary = document.get("canary", {})
    config.canary_interval_s = float(
        canary.get("interval_s", config.canary_interval_s))
    tables = document.get("slo", [])
    if tables:
        config.slos = [_slo_from_table(t) for t in tables]
    return config


# -- offline evaluation (repro slo check) -------------------------------------


def check_document(slos: list[SLO], document: dict,
                   window_s: float = 3600.0) -> list[dict]:
    """Judge ``slos`` against an exported cumulative metrics document
    (the ``metrics`` section of an obs export, or counters/histograms
    reconstructed from a Prometheus dump).

    The whole run is treated as one window.  Returns one status dict
    per objective; ``violated`` is True when the burn rate reaches
    :data:`VIOLATION_BURN` (the objective is missed outright).
    SLOs with no data are reported but never count as violations.
    """
    series = WindowedSeries.from_document(document, window_s)
    status = []
    for slo in slos:
        ratio = slo.bad_ratio(series, window_s)
        burn = None if ratio is None else ratio / max(slo.budget, 1e-9)
        entry = slo.as_dict()
        entry.update(
            bad_ratio=ratio,
            compliance=None if ratio is None else 1.0 - ratio,
            burn_rate=burn,
            budget_remaining=None if burn is None else 1.0 - burn,
            violated=burn is not None and burn >= VIOLATION_BURN)
        status.append(entry)
    return status

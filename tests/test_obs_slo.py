"""SLOs, burn-rate alerting and the canary (repro.obs.slo) plus the
windowed time-series substrate they read (WindowedSeries)."""

import math
import time

import pytest

from repro import obs
from repro.obs.metrics import (
    DEFAULT_WINDOW_RETENTION,
    DEFAULT_WINDOW_STEP,
    MetricsRegistry,
    WindowedSeries,
    family_total,
)
from repro.obs.slo import (
    DEFAULT_PAIRS,
    VIOLATION_BURN,
    AlertRule,
    BurnRatePair,
    CanaryProber,
    SLO,
    SLOEvaluator,
    check_document,
    default_slos,
    get_slo_evaluator,
    load_slo_config,
    set_slo_evaluator,
)
from repro.site import DynamicSiteServer
from repro.sites.homepage import FIG3_QUERY, fig2_data, fig7_templates


@pytest.fixture(autouse=True)
def _clean_globals():
    obs.disable()
    set_slo_evaluator(None)
    yield
    set_slo_evaluator(None)
    obs.disable()


#: A pair short enough that unit tests can walk through burn/recover
#: cycles with 1-second ticks.
FAST_PAIR = BurnRatePair(long_s=8.0, short_s=2.0, factor=10.0,
                         severity="page")


def availability_slo(**overrides) -> SLO:
    settings = dict(name="avail", kind="availability", target=0.99,
                    window_s=60.0, total_metric="req", bad_metric="err")
    settings.update(overrides)
    return SLO(**settings)


class TestWindowedSeries:
    def test_bucket_alignment_and_replacement(self):
        series = WindowedSeries(MetricsRegistry(), step=10.0,
                                retention=100.0)
        assert series.sample(now=105.0) == 100.0
        # A second sample inside the same bucket replaces, not appends.
        assert series.sample(now=107.0) == 100.0
        assert len(series) == 1
        assert series.sample(now=112.0) == 110.0
        assert len(series) == 2
        assert series.coverage() == 10.0

    def test_increase_sums_a_family(self):
        registry = MetricsRegistry()
        series = WindowedSeries(registry, step=1.0, retention=60.0)
        registry.counter("err", kind="a").inc(2)
        series.sample(now=100.0)
        registry.counter("err", kind="a").inc(3)
        registry.counter("err", kind="b").inc(4)
        registry.counter("error_budget").inc(100)  # another family
        series.sample(now=110.0)
        assert series.increase("err", 60.0) == 7
        assert series.increase("err_total", 60.0) is None

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WindowedSeries(MetricsRegistry(), step=0.0)
        with pytest.raises(ValueError):
            WindowedSeries(MetricsRegistry(), step=10.0, retention=5.0)

    def test_increase_and_rate(self):
        registry = MetricsRegistry()
        series = WindowedSeries(registry, step=1.0, retention=60.0)
        registry.counter("req").inc(5)
        series.sample(now=100.0)
        registry.counter("req").inc(7)
        series.sample(now=110.0)
        assert series.increase("req", 10.0) == 7
        assert series.rate("req", 10.0) == pytest.approx(0.7)

    def test_window_clips_to_retained_history(self):
        registry = MetricsRegistry()
        series = WindowedSeries(registry, step=1.0, retention=60.0)
        series.sample(now=100.0)
        registry.counter("req").inc(4)
        series.sample(now=105.0)
        # Asking for the last hour of a 5-second-old series answers
        # over the 5 seconds that exist.
        assert series.increase("req", 3600.0) == 4
        assert series.rate("req", 3600.0) == pytest.approx(0.8)

    def test_seed_zero_counts_what_came_before_the_first_sample(self):
        registry = MetricsRegistry()
        series = WindowedSeries(registry, step=1.0, retention=3.0)
        registry.counter("req").inc(4)
        series.sample(now=100.0)
        assert series.increase("req", 60.0) is None  # one sample: no data
        series.seed_zero(99.0)
        assert series.increase("req", 60.0) == 4
        assert series.increase("nope", 60.0) is None
        assert series.coverage() == 1.0
        registry.counter("req").inc(1)
        series.sample(now=100.5)  # replaces the real sample, not the zero
        assert series.increase("req", 60.0) == 5
        # A window inside the retained history differences samples.
        registry.counter("req").inc(2)
        series.sample(now=102.0)
        assert series.increase("req", 1.0) == 2
        with pytest.raises(ValueError):
            series.seed_zero(101.0)  # not before the oldest sample
        # Once the ring fills, the zero state leaves it like any sample.
        for now in (103.0, 104.0, 105.0):
            series.sample(now=now)
        assert series.increase("req", 60.0) == 0

    def test_under_two_samples_means_no_data(self):
        registry = MetricsRegistry()
        series = WindowedSeries(registry, step=1.0, retention=60.0)
        assert series.increase("req", 60.0) is None
        registry.counter("req").inc()
        series.sample(now=100.0)
        assert series.increase("req", 60.0) is None
        assert series.rate("req", 60.0) is None
        assert series.quantile("lat", 0.5, 60.0) is None
        assert series.fraction_below("lat", 0.25, 60.0) is None

    def test_unknown_metric_is_none(self):
        registry = MetricsRegistry()
        series = WindowedSeries(registry, step=1.0, retention=60.0)
        series.sample(now=100.0)
        series.sample(now=101.0)
        assert series.increase("nope", 60.0) is None

    def test_counter_reset_uses_newer_value(self):
        registry = MetricsRegistry()
        series = WindowedSeries(registry, step=1.0, retention=60.0)
        registry.counter("req").inc(100)
        series.sample(now=100.0)
        registry.counter("req").value = 3  # process restarted
        series.sample(now=101.0)
        assert series.increase("req", 60.0) == 3

    def test_histogram_increase_falls_back_to_count(self):
        registry = MetricsRegistry()
        series = WindowedSeries(registry, step=1.0, retention=60.0)
        series.sample(now=100.0)
        for _ in range(6):
            registry.histogram("lat").observe(0.01)
        series.sample(now=101.0)
        assert series.increase("lat", 60.0) == 6

    def test_windowed_quantile_ignores_older_observations(self):
        registry = MetricsRegistry()
        series = WindowedSeries(registry, step=1.0, retention=60.0)
        series.sample(now=100.0)
        # An early slow period...
        for _ in range(100):
            registry.histogram("lat").observe(2.0)
        series.sample(now=150.0)
        # ...then a fast recent one.
        for _ in range(100):
            registry.histogram("lat").observe(0.01)
        series.sample(now=151.0)
        p50 = series.quantile("lat", 0.5, 1.5)
        assert p50 is not None and p50 < 0.05
        # The lifetime window still sees the slow half.
        lifetime = series.quantile("lat", 0.9, 3600.0)
        assert lifetime is not None and lifetime > 1.0

    def test_fraction_below_interpolates(self):
        registry = MetricsRegistry()
        series = WindowedSeries(registry, step=1.0, retention=60.0)
        series.sample(now=100.0)
        for _ in range(99):
            registry.histogram("lat").observe(0.01)
        registry.histogram("lat").observe(5.0)
        series.sample(now=101.0)
        good, total = series.fraction_below("lat", 0.25, 60.0)
        assert total == 100
        assert good == pytest.approx(99.0)
        # Threshold at/past the last finite bound: everything is below.
        good, total = series.fraction_below("lat", 1e9, 60.0)
        assert (good, total) == (100.0, 100.0)
        # Non-positive threshold: nothing is.
        good, total = series.fraction_below("lat", 0.0, 60.0)
        assert (good, total) == (0.0, 100.0)

    def test_quantile_range_checked(self):
        series = WindowedSeries(MetricsRegistry(), step=1.0,
                                retention=60.0)
        with pytest.raises(ValueError):
            series.quantile("lat", 1.5, 60.0)
        with pytest.raises(ValueError):
            series.quantile("lat", -0.1, 60.0)

    def test_gauge_last(self):
        registry = MetricsRegistry()
        series = WindowedSeries(registry, step=1.0, retention=60.0)
        assert series.gauge_last("g") is None
        registry.gauge("g").set(7.5)
        series.sample(now=100.0)
        assert series.gauge_last("g") == 7.5

    def test_ring_is_bounded(self):
        registry = MetricsRegistry()
        series = WindowedSeries(registry, step=1.0, retention=10.0)
        for tick in range(100):
            series.sample(now=float(tick))
        assert len(series) == 11  # retention/step + 1
        assert series.coverage() == 10.0

    def test_from_document(self):
        document = {
            "counters": {"req": 200, "err": 10},
            "histograms": {"lat": {
                "count": 4, "sum": 0.08,
                "buckets": [[0.1, 4], ["+Inf", 4]],
            }},
        }
        series = WindowedSeries.from_document(document, 3600.0)
        assert series.increase("req", 3600.0) == 200
        assert series.increase("err", 3600.0) == 10
        good, total = series.fraction_below("lat", 0.25, 3600.0)
        assert (good, total) == (4.0, 4.0)
        with pytest.raises(ValueError):
            WindowedSeries.from_document(document, 0.0)

    def test_defaults_cover_the_slow_burn_window(self):
        assert DEFAULT_WINDOW_RETENTION >= 6 * 3600.0
        assert DEFAULT_WINDOW_STEP > 0


class TestSLO:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLO(name="x", kind="weird", target=0.99)
        with pytest.raises(ValueError):
            availability_slo(target=1.0)
        with pytest.raises(ValueError):
            SLO(name="x", kind="availability", target=0.99)
        with pytest.raises(ValueError):
            SLO(name="x", kind="latency", target=0.99,
                latency_metric="lat")  # threshold missing

    def test_budget_and_describe(self):
        slo = availability_slo()
        assert slo.budget == pytest.approx(0.01)
        assert "99% of req good" in slo.describe()
        lat = SLO(name="lat", kind="latency", target=0.999,
                  latency_metric="lat_s", threshold_s=0.25)
        assert "lat_s <= 250 ms" in lat.describe()
        assert lat.as_dict()["objective"] == lat.describe()

    def test_availability_bad_ratio(self):
        registry = MetricsRegistry()
        series = WindowedSeries(registry, step=1.0, retention=60.0)
        slo = availability_slo()
        series.sample(now=100.0)
        assert slo.bad_ratio(series, 60.0) is None  # one sample
        registry.counter("req").inc(100)
        registry.counter("err").inc(5)
        series.sample(now=101.0)
        assert slo.bad_ratio(series, 60.0) == pytest.approx(0.05)
        assert slo.burn_rate(series, 60.0) == pytest.approx(5.0)

    def test_missing_bad_counter_is_healthy(self):
        registry = MetricsRegistry()
        series = WindowedSeries(registry, step=1.0, retention=60.0)
        series.sample(now=100.0)
        registry.counter("req").inc(10)
        series.sample(now=101.0)
        assert availability_slo().bad_ratio(series, 60.0) == 0.0

    def test_latency_bad_ratio(self):
        registry = MetricsRegistry()
        series = WindowedSeries(registry, step=1.0, retention=60.0)
        slo = SLO(name="lat", kind="latency", target=0.99,
                  latency_metric="lat_s", threshold_s=0.25)
        series.sample(now=100.0)
        for _ in range(90):
            registry.histogram("lat_s").observe(0.01)
        for _ in range(10):
            registry.histogram("lat_s").observe(5.0)
        series.sample(now=101.0)
        assert slo.bad_ratio(series, 60.0) == pytest.approx(0.1)
        assert slo.burn_rate(series, 60.0) == pytest.approx(10.0)


class TestAlertRule:
    def _burning_tick(self, registry, series, rule, now,
                      good=10, bad=10):
        registry.counter("req").inc(good + bad)
        if bad:
            registry.counter("err").inc(bad)
        series.sample(now)
        return rule.step(series, now)

    def test_pending_then_firing_within_two_ticks(self):
        registry = MetricsRegistry()
        series = WindowedSeries(registry, step=1.0, retention=60.0)
        rule = AlertRule(availability_slo(), FAST_PAIR, for_ticks=2)
        series.sample(100.0)
        assert rule.step(series, 100.0) is None  # no data yet
        assert self._burning_tick(registry, series, rule,
                                  101.0) == "pending"
        assert rule.state == "pending"
        assert rule.since == 101.0
        assert self._burning_tick(registry, series, rule,
                                  102.0) == "firing"
        assert rule.state == "firing"
        # Staying bad: no fresh transition.
        assert self._burning_tick(registry, series, rule,
                                  103.0) is None
        assert rule.state == "firing"
        assert rule.short_burn >= FAST_PAIR.factor
        assert rule.long_burn >= FAST_PAIR.factor

    def test_pending_clears_on_one_quiet_tick(self):
        registry = MetricsRegistry()
        series = WindowedSeries(registry, step=1.0, retention=60.0)
        rule = AlertRule(availability_slo(), FAST_PAIR, for_ticks=3)
        series.sample(100.0)
        rule.step(series, 100.0)
        assert self._burning_tick(registry, series, rule,
                                  101.0) == "pending"
        # A blip that recovers before for_ticks never notifies; one
        # quiet short window is enough to forget it.
        for now in (102.0, 103.0, 104.0):
            transition = self._burning_tick(registry, series, rule,
                                            now, good=100, bad=0)
        assert transition is None
        assert rule.state == "ok"

    def test_firing_resolves_after_clear_ticks(self):
        registry = MetricsRegistry()
        series = WindowedSeries(registry, step=1.0, retention=60.0)
        rule = AlertRule(availability_slo(), FAST_PAIR,
                         for_ticks=2, clear_ticks=2)
        series.sample(100.0)
        rule.step(series, 100.0)
        now = 101.0
        while rule.state != "firing":
            self._burning_tick(registry, series, rule, now)
            now += 1.0
        # Recover long enough that both windows go quiet (the long
        # window clips forward past the bad period as time advances).
        transitions = []
        for _ in range(12):
            transitions.append(self._burning_tick(
                registry, series, rule, now, good=1000, bad=0))
            now += 1.0
        assert "resolved" in transitions
        assert rule.state == "ok"
        assert rule.since is None

    def test_requires_both_windows_burning(self):
        registry = MetricsRegistry()
        series = WindowedSeries(registry, step=1.0, retention=60.0)
        rule = AlertRule(availability_slo(), FAST_PAIR)
        series.sample(100.0)
        rule.step(series, 100.0)
        # One terrible tick...
        self._burning_tick(registry, series, rule, 101.0)
        # ...followed by clean traffic: the short window recovers and
        # the rule must not keep climbing toward firing.
        for now in (102.0, 103.0, 104.0):
            self._burning_tick(registry, series, rule, now,
                               good=10000, bad=0)
        assert rule.state == "ok"

    def test_as_dict_names_the_pair(self):
        rule = AlertRule(availability_slo(), FAST_PAIR)
        doc = rule.as_dict()
        assert doc["name"] == "avail:page"
        assert doc["state"] == "ok"
        assert doc["factor"] == FAST_PAIR.factor
        assert doc["long_window_s"] == FAST_PAIR.long_s


class TestSLOEvaluator:
    def _evaluator(self, recorder, **overrides):
        settings = dict(slos=[availability_slo(window_s=8.0)],
                        step=1.0, pairs=(FAST_PAIR,), for_ticks=2,
                        clear_ticks=2)
        settings.update(overrides)
        return SLOEvaluator(recorder, **settings)

    def test_full_alert_lifecycle(self):
        recorder = obs.TraceRecorder()
        evaluator = self._evaluator(recorder)
        metrics = recorder.metrics
        evaluator.evaluate(now=100.0)
        # One sample: no data, no gauges, nothing fires.
        assert evaluator.worst() is None
        assert metrics.gauge("alerts_firing").value == 0
        assert family_total(metrics.as_dict()["gauges"],
                                "slo.burn_rate") is None

        for now in (101.0, 102.0):
            metrics.counter("req").inc(20)
            metrics.counter("err").inc(10)
            evaluator.evaluate(now=now)
        assert [r.state for r in evaluator.rules] == ["firing"]
        assert metrics.gauge("alerts_firing").value == 1
        assert evaluator.firing()[0].name == "avail:page"
        name, burn = evaluator.worst()
        assert name == "avail" and burn >= FAST_PAIR.factor
        gauges = metrics.as_dict()["gauges"]
        assert gauges['slo.burn_rate{slo="avail"}'] == pytest.approx(50.0)
        assert gauges['slo.compliance{slo="avail"}'] == pytest.approx(0.5)
        notes = obs.flat_notes(recorder.roots)
        assert [(n["level"], n["name"]) for n in notes] == \
            [("warning", "alert.pending"), ("error", "alert.firing")]
        assert {n["span"] for n in notes} == {"slo.evaluate"}
        assert notes[1]["attributes"]["slo"] == "avail"
        assert notes[1]["message"] == \
            f"{evaluator.rules[0].slo.describe()} [page]"
        # One slo.evaluate span per tick, each holding its transitions.
        assert [r.name for r in recorder.roots] == ["slo.evaluate"] * 3
        assert recorder.roots[-1].attributes["firing"] == 1

        now = 103.0
        for _ in range(12):
            metrics.counter("req").inc(1000)
            evaluator.evaluate(now=now)
            now += 1.0
        assert evaluator.firing() == []
        assert metrics.gauge("alerts_firing").value == 0
        resolved = obs.flat_notes(recorder.roots)[-1]
        assert (resolved["level"], resolved["name"]) == \
            ("info", "alert.resolved")

    def test_snapshot_shape(self):
        recorder = obs.TraceRecorder()
        evaluator = self._evaluator(recorder)
        recorder.metrics.counter("req").inc(50)
        evaluator.evaluate(now=100.0)
        recorder.metrics.counter("req").inc(50)
        evaluator.evaluate(now=101.0)
        snapshot = evaluator.snapshot()
        assert snapshot["ticks"] == 2
        assert snapshot["last_tick"] == 101.0
        assert snapshot["step_s"] == 1.0
        assert snapshot["firing"] == 0
        (slo_entry,) = snapshot["slos"]
        assert slo_entry["name"] == "avail"
        assert slo_entry["violated"] is False
        assert slo_entry["compliance"] == pytest.approx(1.0)
        (alert,) = snapshot["alerts"]
        assert alert["state"] == "ok"

    @pytest.mark.parametrize("second_tick", [101.0, 200.0],
                             ids=["same-bucket", "next-bucket"])
    def test_requests_before_the_first_tick_count(self, second_tick):
        # A 404 served before the evaluator's first sample is judged
        # live as it is offline, whether the second tick's sample
        # replaces the first (same 5 s bucket) or follows it.
        server = DynamicSiteServer(FIG3_QUERY, fig2_data(),
                                   fig7_templates())
        with obs.recording() as recorder:
            evaluator = SLOEvaluator(recorder)
            assert server.request("nope.html").status == 404
            evaluator.evaluate(now=100.0)
            for _ in range(3):
                assert server.request(server.roots()[0]).status == 200
            status = evaluator.evaluate(now=second_tick)
        (live,) = [s for s in status if s["name"] == "server-availability"]
        (avail,) = [s for s in default_slos()
                    if s.name == "server-availability"]
        (offline,) = check_document([avail], recorder.metrics.as_dict())
        assert live["bad_ratio"] == pytest.approx(0.25)
        assert live["burn_rate"] > 0
        assert live["burn_rate"] == pytest.approx(offline["burn_rate"])
        assert evaluator.snapshot()["coverage_s"] > 0

    def test_retention_covers_longest_window(self):
        recorder = obs.TraceRecorder()
        evaluator = SLOEvaluator(recorder, slos=default_slos())
        longest = max(p.long_s for p in DEFAULT_PAIRS)
        assert evaluator.series.retention >= longest
        # 4 stock SLOs x 2 stock pairs.
        assert len(evaluator.rules) == 8

    def test_background_loop_ticks(self):
        recorder = obs.TraceRecorder()
        evaluator = self._evaluator(recorder)
        evaluator.start_background(interval=0.01)
        try:
            deadline = time.time() + 2.0
            while evaluator.ticks == 0 and time.time() < deadline:
                time.sleep(0.01)
        finally:
            evaluator.stop()
        assert evaluator.ticks > 0
        # stop() is idempotent and restartable.
        evaluator.stop()

    def test_global_install(self):
        assert get_slo_evaluator() is None
        evaluator = self._evaluator(obs.TraceRecorder())
        set_slo_evaluator(evaluator)
        assert get_slo_evaluator() is evaluator
        set_slo_evaluator(None)
        assert get_slo_evaluator() is None


class TestCanaryProber:
    def _server(self):
        return DynamicSiteServer(FIG3_QUERY, fig2_data(),
                                 fig7_templates())

    def test_successful_probe_feeds_canary_series(self):
        # The server instruments the *global* recorder, so probe under
        # a recording context to see server.* alongside canary.*.
        with obs.recording() as recorder:
            prober = CanaryProber(self._server(), recorder,
                                  interval=60.0)
            assert prober.probe() is True
        metrics = recorder.metrics.as_dict()
        assert metrics["counters"]["canary.probes"] == 1
        assert "canary.failures" not in metrics["counters"]
        assert metrics["histograms"]["canary.probe_seconds"]["count"] \
            == 1
        # The probe went through the real request path.
        assert metrics["counters"]["server.requests"] == 1
        assert prober.as_dict() == {
            "interval_s": 60.0, "probes": 1, "failures": 0,
            "running": False}

    def test_probe_ticks_the_evaluator(self):
        recorder = obs.TraceRecorder()
        evaluator = SLOEvaluator(recorder, slos=default_slos(),
                                 step=0.05)
        prober = CanaryProber(self._server(), recorder,
                              evaluator=evaluator)
        prober.probe()
        assert evaluator.ticks == 1

    def test_failed_probe_counts_and_emits(self):
        class Rootless:
            def roots(self):
                return []

        with obs.recording() as recorder:
            prober = CanaryProber(Rootless(), recorder)
            assert prober.probe() is False
        metrics = recorder.metrics.as_dict()
        assert metrics["counters"]["canary.probes"] == 1
        assert metrics["counters"]["canary.failures"] == 1
        [probe] = recorder.roots
        assert probe.name == "canary.probe"
        [record] = probe.notes
        assert (record["level"], record["name"]) == \
            ("warning", "canary.failed")
        assert "no root pages" in record["message"]
        assert metrics["histograms"]["canary.probe_seconds"]["sum"] == \
            pytest.approx(probe.seconds)

    def test_probe_timed_while_recording_is_off(self):
        class Rootless:
            def roots(self):
                return []

        recorder = obs.TraceRecorder()
        CanaryProber(Rootless(), recorder).probe()
        histogram = recorder.metrics.histogram("canary.probe_seconds")
        assert histogram.count == 1 and histogram.total > 0

    def test_background_start_stop(self):
        recorder = obs.TraceRecorder()
        prober = CanaryProber(self._server(), recorder, interval=0.02)
        prober.start()
        try:
            deadline = time.time() + 2.0
            while prober.probes == 0 and time.time() < deadline:
                time.sleep(0.01)
        finally:
            prober.stop()
        assert prober.probes > 0
        assert prober.failures == 0
        assert prober.as_dict()["running"] is False


class TestConfig:
    def test_defaults(self):
        slos = default_slos()
        assert [s.name for s in slos] == [
            "server-availability", "server-latency",
            "canary-availability", "canary-latency"]
        latency = slos[1]
        assert latency.threshold_s == 0.25
        assert latency.latency_metric == "server.request_seconds"

    def test_load_slo_config(self, tmp_path):
        config_path = tmp_path / "slo.toml"
        config_path.write_text("""
step_s = 0.5

[alerts]
for_ticks = 3
clear_ticks = 4

[canary]
interval_s = 1.5

[[slo]]
name = "lat"
kind = "latency"
metric = "server.request_seconds"
threshold_ms = 100
target = 0.95
window_s = 120

[[slo]]
name = "avail"
kind = "availability"
total = "server.requests"
bad = "server.errors"
target = 0.999
""")
        config = load_slo_config(str(config_path))
        assert config.step_s == 0.5
        assert config.for_ticks == 3
        assert config.clear_ticks == 4
        assert config.canary_interval_s == 1.5
        assert [s.name for s in config.slos] == ["lat", "avail"]
        lat, avail = config.slos
        assert lat.threshold_s == pytest.approx(0.1)
        assert lat.window_s == 120.0
        assert avail.target == 0.999
        assert avail.bad_metric == "server.errors"

    def test_empty_config_keeps_defaults(self, tmp_path):
        config_path = tmp_path / "slo.toml"
        config_path.write_text("")
        config = load_slo_config(str(config_path))
        assert [s.name for s in config.slos] == [
            s.name for s in default_slos()]
        assert config.step_s == DEFAULT_WINDOW_STEP

    def test_threshold_s_overrides_ms(self, tmp_path):
        config_path = tmp_path / "slo.toml"
        config_path.write_text("""
[[slo]]
name = "lat"
kind = "latency"
metric = "m"
threshold_ms = 100
threshold_s = 2.0
""")
        (slo,) = load_slo_config(str(config_path)).slos
        assert slo.threshold_s == 2.0

    def test_invalid_slo_table_raises(self, tmp_path):
        config_path = tmp_path / "slo.toml"
        config_path.write_text("""
[[slo]]
name = "broken"
kind = "latency"
""")
        with pytest.raises(ValueError):
            load_slo_config(str(config_path))


class TestCheckDocument:
    def test_violated_availability(self):
        document = {"counters": {"req": 100, "err": 5}}
        (status,) = check_document([availability_slo()], document)
        assert status["violated"] is True
        assert status["burn_rate"] == pytest.approx(5.0)
        assert status["compliance"] == pytest.approx(0.95)

    def test_healthy_latency(self):
        document = {"histograms": {"lat_s": {
            "count": 100, "sum": 1.0,
            "buckets": [[0.1, 100], ["+Inf", 100]],
        }}}
        slo = SLO(name="lat", kind="latency", target=0.99,
                  latency_metric="lat_s", threshold_s=0.25)
        (status,) = check_document([slo], document)
        assert status["violated"] is False
        assert status["burn_rate"] == pytest.approx(0.0)

    def test_labeled_errors_count_toward_availability(self):
        document = {"counters": {"req": 100, 'err{kind="not_found"}': 2,
                                 'err{kind="internal"}': 3}}
        (status,) = check_document([availability_slo()], document)
        assert status["bad_ratio"] == pytest.approx(0.05)

    def test_server_failures_counted_once_by_kind(self, monkeypatch):
        server = DynamicSiteServer(FIG3_QUERY, fig2_data(),
                                   fig7_templates())
        with obs.recording() as recorder:
            assert server.request("nope.html").status == 404
            server.invalidate()

            def explode(oid):
                raise ValueError("render blew up")

            monkeypatch.setattr(server.generator, "render", explode)
            assert server.request(server.roots()[0]).status == 500
        counters = recorder.metrics.as_dict()["counters"]
        assert counters['server.errors{kind="not_found"}'] == 1
        assert counters['server.errors{kind="internal"}'] == 1
        assert "server.errors" not in counters
        (avail,) = [s for s in default_slos()
                    if s.name == "server-availability"]
        (status,) = check_document([avail], {"counters": counters})
        assert status["bad_ratio"] == pytest.approx(1.0)

    def test_no_data_never_violates(self):
        (status,) = check_document([availability_slo()], {})
        assert status["violated"] is False
        assert status["burn_rate"] is None
        assert status["compliance"] is None

    def test_violation_threshold(self):
        # Past the budget (2% bad of a 99% target) violates...
        document = {"counters": {"req": 100, "err": 2}}
        (status,) = check_document([availability_slo()], document)
        assert status["burn_rate"] >= VIOLATION_BURN
        assert status["violated"] is True
        # ...comfortably under it does not.
        document = {"counters": {"req": 1000, "err": 1}}
        (status,) = check_document([availability_slo()], document)
        assert status["burn_rate"] < VIOLATION_BURN
        assert status["violated"] is False

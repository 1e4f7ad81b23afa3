"""Experiment A8 (extension): end-to-end scaling.

Not a paper table — evidence that the reproduction scales the way the
architecture promises: site-graph construction and HTML generation grow
near-linearly in data size, so the 400-person AT&T-scale site of T1 is
nowhere near a cliff.  The windowed-sampling overhead test rides along
here because it asks the same question of the SLO layer: does a
background :class:`~repro.obs.metrics.WindowedSeries` sampler (the
substrate burn-rate alerting reads) tax a full build measurably?
"""

import shutil
import time

import pytest

from repro import obs
from repro.datagen import build_org_mediator
from repro.obs.slo import SLOEvaluator
from repro.sites import build_org_site

EXPERIMENT = "A8 (extension): end-to-end scaling"

#: Rounds for the sampling-overhead comparison (interleaved off/on).
SLO_ROUNDS = 5
SLO_PEOPLE = 80

#: Generous in-test bar (the acceptance target is under 5%); a handful
#: of runs has to survive CI jitter.
MAX_SLO_OVERHEAD_FACTOR = 1.5


@pytest.mark.parametrize("people", [100, 400, 1000])
def test_org_site_scaling(benchmark, experiment, people, tmp_path):
    data = build_org_mediator(people=people,
                              projects=max(8, people // 20),
                              publications=people // 8).warehouse()

    def build_and_generate():
        site = build_org_site(data=data.copy("ORGDATA"))
        site.generate(str(tmp_path))
        return site

    site = benchmark.pedantic(build_and_generate, rounds=2,
                              warmup_rounds=0, iterations=1)
    metrics = site.metrics()
    experiment.row(people=people,
                   data_edges=metrics.data_edges,
                   site_edges=metrics.site_edges,
                   pages=metrics.pages)
    assert metrics.pages > people


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def test_windowed_sampling_overhead(experiment, tmp_path):
    """A tight-interval SLO evaluation loop (sampling every counter,
    gauge and histogram into the windowed ring each tick) must not tax
    a full site build measurably.

    Off and on rounds are interleaved so both p50s see the same machine
    state (acceptance bar: under 5%).  Both run under a live recorder,
    the one the evaluator samples.  The evaluator ticks every 20 ms
    here — 250x the production 5 s step — so the measured overhead is
    a hard upper bound on the real one.
    """

    def build(out_dir: str) -> None:
        shutil.rmtree(out_dir, ignore_errors=True)
        site = build_org_site(people=SLO_PEOPLE, seed=10)
        report = site.build_site(out_dir)
        assert report.pages_rendered > 0

    off_dir, on_dir = str(tmp_path / "off"), str(tmp_path / "on")
    build(off_dir)  # warm-up outside the timed spans

    off_seconds, on_seconds = [], []
    ticks = 0
    with obs.recording() as recorder:
        for _ in range(SLO_ROUNDS):
            start = time.perf_counter()
            build(off_dir)
            off_seconds.append(time.perf_counter() - start)

            evaluator = SLOEvaluator(recorder, step=0.02, retention=120.0)
            evaluator.start_background(interval=0.02)
            try:
                start = time.perf_counter()
                build(on_dir)
                on_seconds.append(time.perf_counter() - start)
            finally:
                evaluator.stop()
            ticks += evaluator.ticks

    assert ticks > 0, "the background evaluator never sampled"
    off_p50, on_p50 = _median(off_seconds), _median(on_seconds)
    overhead_pct = ((on_p50 - off_p50) / off_p50 * 100) if off_p50 \
        else 0.0
    assert on_p50 <= off_p50 * MAX_SLO_OVERHEAD_FACTOR, (
        f"build under sampling {on_p50:.3f}s vs {off_p50:.3f}s off")
    experiment.row(mode="sampling off", seconds=f"{off_p50:.3f}")
    experiment.row(mode="sampling on", seconds=f"{on_p50:.3f}",
                   note=f"{overhead_pct:+.1f}% ({ticks} ticks)")

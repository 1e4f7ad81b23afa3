"""Experiment A10 (extension): provenance recording overhead.

With recording on, the lineage index keeps, per query evaluation, which
block creates each Skolem function and which sources its input graph
reaches; per loaded source, which source each node came from; and one
page record per generated page carrying its template and its read set
(the build cache's own dependency record).  Skolem functions and
arguments are read from the oids and sources from the always-on fetch
log, so nothing is recorded per Skolem mint.  The disabled path is a
null object, so an unobserved build should cost the same as before the
feature existed; the enabled path buys ``repro why`` and the freshness
gauges for bounded bookkeeping.

This benchmark builds the org example site with lineage off and on,
interleaved, and reports the overhead of the on p50 over the off p50.
The acceptance bar is overhead within 10% — asserted loosely here
(cold-VM jitter).
"""

import shutil

from repro.obs.lineage import disable_lineage, lineage_recording
from repro.sites.org import build_org_site

EXPERIMENT = "A10 (extension): lineage recording overhead"

PEOPLE = 80
ROUNDS = 5

#: Generous in-test bar (the acceptance target is within 10%); a
#: handful of runs has to survive CI jitter.
MAX_OVERHEAD_FACTOR = 1.5


def _build(out_dir: str) -> None:
    shutil.rmtree(out_dir, ignore_errors=True)
    site = build_org_site(people=PEOPLE, seed=10)
    report = site.build_site(out_dir)
    assert report.pages_rendered > 0


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def test_lineage_overhead(experiment, tmp_path):
    """Building with lineage recording on stays within a small factor
    of the lineage-off build, and the recorded index actually resolves
    every generated page.

    Off and on rounds are interleaved (not two separate batches) so the
    two p50s see the same machine state.
    """
    import time

    off_dir, on_dir = str(tmp_path / "off"), str(tmp_path / "on")
    disable_lineage()  # make sure the off runs really are off

    # Warm-up both paths outside the timed spans (imports, template
    # compile, allocator growth).
    _build(off_dir)
    with lineage_recording():
        _build(on_dir)

    off_seconds, on_seconds = [], []
    lineage_len = 0
    for _ in range(ROUNDS):
        start = time.perf_counter()
        _build(off_dir)
        off_seconds.append(time.perf_counter() - start)

        with lineage_recording() as lineage:
            start = time.perf_counter()
            _build(on_dir)
            on_seconds.append(time.perf_counter() - start)
            # The rendered pages were recorded during the build; every
            # one must resolve to a non-empty derivation chain and read
            # set.
            lineage_len = len(lineage)
            pages = lineage.page_records()
            assert pages
            for page in pages:
                doc = lineage.why(page.url)
                assert doc and doc.get("derivation"), \
                    f"no derivation for {page.url}"
                assert doc["reads"], f"no read set for {page.url}"

    assert lineage_len > 0
    off_p50, on_p50 = _median(off_seconds), _median(on_seconds)
    overhead_pct = ((on_p50 - off_p50) / off_p50 * 100) if off_p50 else 0.0
    assert on_p50 <= off_p50 * MAX_OVERHEAD_FACTOR, (
        f"lineage build {on_p50:.3f}s vs {off_p50:.3f}s off")
    experiment.row(mode="lineage off", seconds=f"{off_p50:.3f}")
    experiment.row(mode="lineage on", seconds=f"{on_p50:.3f}",
                   note=f"{overhead_pct:+.1f}% (records={lineage_len})")

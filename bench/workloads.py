"""The four benchmark workloads.

All four are closed loops with one in-process client: the next
operation starts when the previous one returns.  Every input derives
from the seed; the program sees only the generated sources.

* ``org_build_cold`` — a full build of the section 5.1 org site with
  no build cache: mediation, query, templates and file writes all work.
* ``org_build_edit`` — the same site rebuilt through a ``BuildCache``
  after each one-edge data edit: the rebuild planner and query
  re-evaluation dominate, and only a few pages render.
* ``bib_serve_hot`` — click-time serving of the Fig 3 homepage site
  with every page already materialized: only routing, the body-view
  lookup and request accounting run.  Requests follow a Zipf law over
  the pages ranked by link depth from the root page.
* ``bib_serve_update`` — the same traffic with a data edit before every
  25th request, so invalidation and click-time recomputes interleave
  with reads; one operation is an edit and the 25 requests after it.

Each workload checks its own outputs: builds against the warm-up's
bytes or a cold build, served bodies against a fresh server over the
final data.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import time
import traceback
from array import array
from dataclasses import dataclass, field

from repro.datagen.bibtex import generate_bibtex
from repro.datagen.org import build_org_mediator
from repro.graph.values import Atom
from repro.site.builder import Website
from repro.site.server import DynamicSiteServer
from repro.sites.homepage import FIG3_QUERY, fig7_templates
from repro.sites.org import ORG_QUERY, org_templates
from repro.struql.matview import ChangeSummary
from repro.wrappers.bibtex import BibTexWrapper

perf = time.perf_counter

#: The section 5.1 AT&T-scale org site: 495 pages, ~4k data edges.
PEOPLE, PROJECTS, PUBLICATIONS = 400, 24, 60

#: The A3/A11 homepage size: 140 pages.
BIB_ENTRIES = 120

#: Request skew: the Zipf exponent over the URLs ranked by link depth
#: from the root page (see ``popularity_order``).  Zipf-like request
#: popularity is reported for web traffic (Breslau et al., "Web Caching
#: and Zipf-like Distributions", INFOCOM 1999), but this exponent is an
#: assumption, not fitted to any trace of a STRUDEL site.
ZIPF_S = 1.1

#: Length of the precomputed request sequence (cycled).
SEQUENCE_LENGTH = 1 << 16

#: ``bib_serve_update`` edits the data before every this many requests.
#: An assumption, not measured: one edit per 25 page views.
UPDATE_EVERY = 25


#: Most operation latencies one loop keeps (see ``Outcome.record``).
SAMPLE_CAPACITY = 1 << 16


@dataclass
class Outcome:
    """What one measured loop did."""

    #: Seconds per operation (a build, a request, or an edit cycle) of
    #: every ``stride``-th operation.
    latencies: array = field(default_factory=lambda: array("d"))
    stride: int = 1
    #: Operations run, and the seconds spent inside them.
    attempted: int = 0
    busy_seconds: float = 0.0
    #: Seconds per ``server.update`` call, inside the edit cycles.
    updates: array = field(default_factory=lambda: array("d"))
    #: Operations that raised, answered non-200 or failed their check.
    failed: int = 0

    def record(self, seconds: float) -> None:
        """Account one operation.

        Latencies are a systematic sample of the whole loop in bounded
        memory: when the sample fills, every other entry goes and the
        stride doubles.  So the benchmark's own memory, and with it
        ``peak_rss_mb``, does not grow with the number of requests a
        fast or slow host gets through.
        """
        self.attempted += 1
        self.busy_seconds += seconds
        if self.attempted % self.stride:
            return
        if len(self.latencies) == SAMPLE_CAPACITY:
            del self.latencies[::2]
            self.stride *= 2
            if self.attempted % self.stride:
                return
        self.latencies.append(seconds)


def dir_hash(path: str) -> str:
    """One digest over every file name and its bytes in ``path``."""
    digest = hashlib.sha1()
    for name in sorted(os.listdir(path)):
        digest.update(name.encode("utf-8") + b"\x00")
        with open(os.path.join(path, name), "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\x00")
    return digest.hexdigest()


def popularity_order(server: DynamicSiteServer, responses: list,
                     rng: random.Random) -> list[str]:
    """Crawled URLs, most popular first: by link depth from the root.

    ``responses`` is a breadth-first crawl, so the first link to reach
    a page gives its depth.  Pages at the same depth are in seeded
    random order.
    """
    pages = {response.oid for response in responses}
    depth = {responses[0].oid: 0}
    for response in responses:
        for edge in server.graph.out_edges(response.oid):
            if edge.target in pages:
                depth.setdefault(edge.target, depth[response.oid] + 1)
    urls = {server.generator.url_for(oid): d for oid, d in depth.items()}
    order = sorted(urls)
    rng.shuffle(order)
    order.sort(key=urls.__getitem__)
    return order


class Workload:
    """One seeded workload; :meth:`setup` may run more than once.

    A subclass supplies :meth:`prepare` (untimed inputs of the next
    operation), :meth:`operation` (the timed work) and :meth:`verify`
    (the operation's own output check).
    """

    name = ""
    #: The click-time server, for workloads that serve.
    server: DynamicSiteServer | None = None

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self._dirs = itertools.count()

    def setup(self) -> float:
        """Build the ready state; returns the seconds the program took."""
        raise NotImplementedError

    def prepare(self, outcome: Outcome) -> tuple:
        raise NotImplementedError

    def operation(self, *args):
        raise NotImplementedError

    def verify(self, result, *args) -> bool:
        raise NotImplementedError

    def run(self, seconds: float, tracer=None) -> Outcome:
        """Run operations until ``seconds`` have passed (at least one).

        Each operation is timed alone, under a ``bench.op`` root span
        when tracing.  One that raises counts as failed, and the first
        such traceback goes to stderr.
        """
        outcome = Outcome()
        # Looked up once, after any tracing wrappers are installed.
        operation = self.operation
        reported = False
        deadline = perf() + seconds
        while not outcome.attempted or perf() < deadline:
            args = self.prepare(outcome)
            node = tracer.open("bench.op") if tracer else None
            error = None
            start = perf()
            try:
                result = operation(*args)
            except Exception as exc:
                error = exc
            elapsed = perf() - start
            if node is not None:
                tracer.close(node, elapsed)
            outcome.record(elapsed)
            if error is not None:
                if not reported:
                    traceback.print_exception(error)
                    reported = True
                outcome.failed += 1
            elif not self.verify(result, *args):
                outcome.failed += 1
            # Nothing of this operation stays alive into the next one:
            # an org build's mediator and site would add ~8 MB to the
            # next build's peak memory.
            args = result = error = None
        return outcome

    def check(self) -> list[str]:
        """Problems found in the final outputs (empty when correct)."""
        return []

    def query_input(self):
        """The workload's site query and its current data graph."""
        raise NotImplementedError

    def stats(self) -> dict[str, float]:
        """The program's own cache counters, for per-layer ratios."""
        return {}

    def _new_dir(self, name: str) -> str:
        """A path no build has used yet.  Outputs are never deleted
        during a run: on a disk that discards freed blocks, deleting
        the last build's files slows the next build's writes."""
        return os.path.join(self.workdir, f"{name}-{next(self._dirs)}")


class OrgBuildCold(Workload):
    """Full org-site builds, no build cache, one thread."""

    name = "org_build_cold"

    def setup(self) -> float:
        self.data = None  # the previous set-up's graph is garbage
        start = perf()
        mediator, out = self.prepare(None)
        website, report = self.operation(mediator, out)
        seconds = perf() - start
        self.expected_pages = len(website.generator().pages())
        if report.pages_rendered != self.expected_pages:
            raise RuntimeError(
                f"warm-up build wrote {report.pages_rendered} of "
                f"{self.expected_pages} pages")
        self.expected_hash = dir_hash(out)
        self.data = website.data
        return seconds

    def prepare(self, outcome):
        # Generating the raw sources stands in for the external
        # sources; wrapping them (warehouse) is part of the build.
        return (build_org_mediator(PEOPLE, PROJECTS, PUBLICATIONS,
                                   self.seed),
                self._new_dir("site"))

    def operation(self, mediator, out: str):
        data = mediator.warehouse()
        data.name = "ORGDATA"
        website = Website(data, ORG_QUERY, org_templates())
        return website, website.build_site(out)

    def verify(self, result, mediator, out: str) -> bool:
        website, report = result
        self.data = website.data
        return report.pages_rendered == self.expected_pages \
            and dir_hash(out) == self.expected_hash

    def query_input(self):
        return ORG_QUERY, self.data


class OrgBuildEdit(Workload):
    """Cached org-site rebuilds, each after a one-edge edit: the data is
    the set-up's graph plus one ``note`` edge, a new one each time."""

    name = "org_build_edit"

    def setup(self) -> float:
        # The previous set-up's graphs are garbage before the rebuild.
        self.base = self.data = self.publications = None
        start = perf()
        mediator = build_org_mediator(PEOPLE, PROJECTS, PUBLICATIONS,
                                      self.seed)
        self.base = self.data = mediator.warehouse()
        self.base.name = "ORGDATA"
        self.out = self._new_dir("site")
        self.cache = self._new_dir("cache")
        report = self.operation()
        seconds = perf() - start
        self.pages = report.pages_rendered + report.pages_skipped
        self.publications = sorted(self.base.collection("Publications"),
                                   key=str)
        self.rng = random.Random(self.seed)
        self.notes = 0
        return seconds

    def prepare(self, outcome):
        # Edge edits only: every rebuild takes the diff planner path,
        # so the latency distribution has one mode.  Each edit replaces
        # the last, so the graph does not grow with the number of
        # rebuilds: a growing one crosses a table resize after ~13
        # edits, and peak memory would then depend on host speed.
        self.notes += 1
        self.data = None
        self.data = self.base.copy()
        self.data.add_edge(self.rng.choice(self.publications), "note",
                           Atom.string(f"note {self.notes}"))
        return ()

    def operation(self):
        return Website(self.data, ORG_QUERY, org_templates()) \
            .build_site(self.out, cache_dir=self.cache)

    def verify(self, report) -> bool:
        return 0 < report.pages_rendered < self.pages \
            and report.pages_rendered + report.pages_skipped == self.pages

    def check(self) -> list[str]:
        cold = self._new_dir("cold")
        Website(self.data, ORG_QUERY, org_templates()).build_site(cold)
        if dir_hash(cold) != dir_hash(self.out):
            return ["incremental build differs from a cold build"]
        return []

    def query_input(self):
        return ORG_QUERY, self.data


class BibServeHot(Workload):
    """Zipf-skewed requests against fully materialized page views."""

    name = "bib_serve_hot"

    def setup(self) -> float:
        self.server = None  # the previous set-up's server is garbage
        start = perf()
        data = BibTexWrapper().wrap(
            generate_bibtex(BIB_ENTRIES, seed=self.seed), "BIBTEX")
        server = DynamicSiteServer(FIG3_QUERY, data, fig7_templates())
        responses = server.crawl()
        seconds = perf() - start
        failed = [r for r in responses if r.status != 200]
        if failed:
            raise RuntimeError(f"warm crawl: {len(failed)} pages failed")
        self.server = server
        rng = random.Random(self.seed)
        urls = self.urls = popularity_order(server, responses, rng)
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(urls))]
        self.sequence = rng.choices(urls, weights=weights,
                                    k=SEQUENCE_LENGTH)
        return seconds

    def prepare(self, outcome):
        return (self.sequence[outcome.attempted % SEQUENCE_LENGTH],)

    @property
    def operation(self):
        # The server's own method, so no extra call lands in the
        # ~12 us being timed.
        return self.server.request

    def verify(self, response, url: str) -> bool:
        return response.status == 200

    def check(self) -> list[str]:
        """Every URL's body against a fresh server over the final data."""
        fresh = DynamicSiteServer(FIG3_QUERY, self.server.site.data,
                                  fig7_templates())
        expected = {fresh.generator.url_for(r.oid): r
                    for r in fresh.crawl()}
        problems = []
        if sorted(expected) != sorted(self.urls):
            problems.append("the fresh crawl reaches other pages")
        for url, reference in sorted(expected.items()):
            served = self.server.request(url)
            if reference.status != 200 or served.status != 200 \
                    or served.body != reference.body:
                problems.append(f"{url} differs from a fresh server")
        return problems

    def query_input(self):
        return FIG3_QUERY, self.server.site.data

    def stats(self) -> dict[str, float]:
        site = self.server.site.stats_snapshot()
        return {**{f"site.{k}": v for k, v in site.items()
                   if isinstance(v, int) and not isinstance(v, bool)},
                **{f"matview.{k}": v
                   for k, v in self.server.matviews.stats.items()}}


class BibServeUpdate(BibServeHot):
    """One data edit, then the next 25 requests of the hot mix.

    The operation is the whole cycle: timing single requests would mix
    view hits with recomputes and put the median on the cliff between
    the two.  Every edit drops every body view, so each distinct page
    requested in the cycle is recomputed once.
    """

    name = "bib_serve_update"

    def setup(self) -> float:
        seconds = super().setup()
        self.publications = sorted(
            self.server.site.data.collection("Publications"), key=str)
        self.rng = random.Random(self.seed)
        self.notes = 0
        return seconds

    def _mutate(self, graph) -> ChangeSummary:
        self.notes += 1
        graph.add_edge(self.rng.choice(self.publications), "note",
                       Atom.string(f"note {self.notes}"))
        return ChangeSummary.for_labels("note")

    def prepare(self, outcome):
        return outcome.attempted * UPDATE_EVERY, outcome.updates

    def operation(self, first: int, updates: array) -> int:
        """Edit, then serve; returns the number of non-200 answers."""
        start = perf()
        self.server.update(self._mutate)
        updates.append(perf() - start)
        request, sequence = self.server.request, self.sequence
        return sum(request(sequence[k % SEQUENCE_LENGTH]).status != 200
                   for k in range(first, first + UPDATE_EVERY))

    def verify(self, failed: int, first: int, updates: array) -> bool:
        return failed == 0


WORKLOADS = {cls.name: cls for cls in
             (OrgBuildCold, OrgBuildEdit, BibServeHot, BibServeUpdate)}

"""Per-layer tracing from outside the program.

The program's own recorder stays the default ``NullRecorder`` in every
run.  For the separate traced run, :func:`install` wraps the public
functions that form each layer's boundary and records a
:class:`repro.obs.trace.Span` tree; :meth:`Patches.restore` puts every
original back.  Self and cumulative times come from
:func:`repro.obs.trace.aggregate_profile`.

The tree is a calling-context tree: one node per (parent node, name),
re-entered and accumulated on every call, so a run of a million
requests keeps a few dozen nodes.  A node's ``start`` stays 0 and its
``end`` holds the accumulated seconds, so ``Span.seconds`` reads the
total.  StruQL operators are generators; each ``next()`` on one is a
separate entry, so an operator's time excludes its upstream operators
whether the plan materializes between operators or streams.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

from repro.obs.trace import Span, aggregate_profile

perf = time.perf_counter

#: The seven physical operator kinds of ``repro.struql.plan``.
OP_KINDS = ("MembershipOp", "EdgeStepOp", "PathOp", "ComparisonOp",
            "InOp", "NegationOp", "AggregateOp")

#: Span name -> the per-layer time metric its self time feeds.  Every
#: span the tracer records is listed, so the metrics partition the
#: traced end-to-end time; the ``bench.op`` roots are the benchmark's
#: timed operations, and their self time is work no layer claimed.
SPAN_METRICS = {
    "bench.op": "unattributed_s",
    "wrappers": "wrappers.self_s",
    "mediator": "mediator.self_s",
    "repository.index_build": "repository.index_build_s",
    "repository.stats_gather": "repository.stats_gather_s",
    "struql.parse": "struql.parse_s",
    "struql.optimize.order": "struql.optimize_s",
    "struql.optimize.annotate": "struql.optimize_s",
    "struql.plan": "struql.plan.self_s",
    **{f"struql.op.{kind}": f"struql.op.{kind}.self_s"
       for kind in OP_KINDS},
    "struql.evaluate": "struql.evaluate.self_s",
    "struql.construct": "struql.construct_s",
    "templates.parse": "templates.parse_s",
    "templates.render": "templates.render_s",
    "templates.generate_site": "templates.write_s",
    "builder.build_site": "builder.self_s",
    "builder.build": "builder.self_s",
    "builder.cached_generate": "builder.self_s",
    "buildcache.plan": "buildcache.plan_s",
    "buildcache.record": "buildcache.record_s",
    "incremental.get_page": "incremental.get_page_s",
    "incremental.ensure": "incremental.get_page_s",
    "incremental.invalidate": "incremental.invalidate_s",
    "incremental.unmaterialize": "incremental.invalidate_s",
    "matview.get": "matview.get_s",
    "matview.invalidate": "matview.invalidate_s",
    "server.request": "server.request.self_s",
    "server.resolve": "server.resolve_s",
    "server.update": "server.update_s",
    "server.invalidate": "server.update_s",
}

#: The time metrics, in a stable order.
TIME_METRICS = tuple(dict.fromkeys(SPAN_METRICS.values()))


class Tracer:
    """A calling-context tree of spans plus named counts."""

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self.counts: Counter = Counter()
        #: Open ``timed`` calls per span name (to find outermost calls).
        self.depth: Counter = Counter()
        self._stack: list[Span] = []
        self._nodes: dict[tuple[int, str], Span] = {}

    def open(self, name: str) -> Span:
        """Enter ``name`` under the innermost open node."""
        parent = self._stack[-1] if self._stack else None
        key = (id(parent), name)
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = Span(name, start=0.0, end=0.0)
            (parent.children if parent is not None
             else self.roots).append(node)
        self._stack.append(node)
        return node

    def close(self, node: Span, seconds: float) -> None:
        """Leave ``node`` (the innermost open one) after ``seconds``."""
        self._stack.pop()
        node.end += seconds

    def total_seconds(self) -> float:
        """Traced time of every root together."""
        return sum(root.seconds for root in self.roots)

    def time_metrics(self) -> dict[str, float]:
        """Self seconds per layer time metric (see SPAN_METRICS)."""
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for entry in aggregate_profile(self.roots):
            out[SPAN_METRICS[entry.name]] += entry.self_seconds
        return out


def timed(tracer: Tracer, name: str, fn, after=None):
    """``fn`` wrapped in a span; counts outermost calls as ``name.calls``.

    ``after(result, args)`` runs for outermost calls only, to take
    counts from the result.  The span covers the wrapper's own
    bookkeeping, so tracing cost lands in the traced layer rather than
    in its caller's self time.
    """
    depth = tracer.depth
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf()
        outermost = not depth[name]
        depth[name] += 1
        node = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
            if outermost and after is not None:
                after(result, args)
            return result
        finally:
            depth[name] -= 1
            if outermost:
                counts[name + ".calls"] += 1
            tracer.close(node, perf() - start)
    return wrapper


def _counted(rows, counts: Counter, key: str):
    for row in rows:
        counts[key] += 1
        yield row


def timed_extend(tracer: Tracer, name: str, fn):
    """An operator's ``extend`` timed inside each of its ``next()`` calls.

    Rows in and out are counted per call; a streamed (unsized) input is
    counted as it is pulled.
    """
    counts = tracer.counts

    @functools.wraps(fn)
    def extend(op, rows, ctx):
        if hasattr(rows, "__len__"):
            counts[name + ".rows_in"] += len(rows)
        else:
            rows = _counted(rows, counts, name + ".rows_in")
        inner = fn(op, rows, ctx)
        produced = 0
        try:
            while True:
                node = tracer.open(name)
                start = perf()
                try:
                    row = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(node, perf() - start)
                produced += 1
                yield row
        finally:
            counts[name + ".rows_out"] += produced
            inner.close()
    return extend


class Patches:
    """Attribute replacements that :meth:`restore` undoes, newest first."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def method(self, cls: type, name: str, make) -> None:
        """Replace ``cls.name`` (plain, class- or static method)."""
        raw = cls.__dict__[name]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        setattr(cls, name, new)
        self._undo.append((cls, name, raw))

    def function(self, module, name: str, make) -> None:
        """Replace a module function in every ``repro`` module bound to it."""
        original = getattr(module, name)
        new = make(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class LockTimer:
    """Stands in for ``DynamicSite.lock``: times outermost holds.

    Reentrant like the ``RLock`` it wraps; the benchmark is one thread,
    so the depth counter needs no lock of its own.
    """

    def __init__(self, lock) -> None:
        self.lock = lock
        self.acquires = 0
        self.held_seconds = 0.0
        self._depth = 0
        self._since = 0.0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if not self.lock.acquire(blocking, timeout):
            return False
        self.acquires += 1
        if self._depth == 0:
            self._since = perf()
        self._depth += 1
        return True

    def release(self) -> None:
        self._depth -= 1
        if self._depth == 0:
            self.held_seconds += perf() - self._since
        self.lock.release()

    def __enter__(self) -> "LockTimer":
        self.acquire()
        return self

    def __exit__(self, *exc) -> bool:
        self.release()
        return False


def install(tracer: Tracer) -> Patches:
    """Wrap every layer boundary; returns the patches to restore."""
    from repro.mediator.mediator import Mediator
    from repro.repository.indexes import GraphIndex
    from repro.repository.stats import GraphStatistics
    from repro.site import buildcache
    from repro.site.buildcache import BuildCache
    from repro.site.builder import Website
    from repro.site.incremental import DynamicSite, LazySiteGraph
    from repro.site.server import DynamicSiteServer
    from repro.struql import parser as struql_parser
    from repro.struql import plan
    from repro.struql.construction import GraphBuilder
    from repro.struql.evaluator import QueryEngine
    from repro.struql.matview import MatViewRegistry
    from repro.struql.optimizer import cost
    from repro.struql.optimizer.base import Optimizer
    from repro.struql.skolem import SkolemRegistry
    from repro.templates import parser as template_parser
    from repro.templates.generator import HtmlGenerator
    from repro.wrappers.base import Wrapper

    counts = tracer.counts
    patches = Patches()

    def span(name, after=None):
        return lambda fn: timed(tracer, name, fn, after)

    def subclasses(base: type) -> list[type]:
        found, pending = [], [base]
        while pending:
            cls = pending.pop()
            found.append(cls)
            pending.extend(cls.__subclasses__())
        return found

    for cls in subclasses(Wrapper):
        for name in ("wrap", "wrap_tables", "wrap_rows", "wrap_pages"):
            if name in cls.__dict__:
                patches.method(cls, name, span("wrappers"))
    patches.method(Mediator, "warehouse", span("mediator"))
    patches.method(GraphIndex, "build", span("repository.index_build"))
    patches.method(GraphStatistics, "gather",
                   span("repository.stats_gather"))

    patches.function(struql_parser, "parse_query", span("struql.parse"))
    for cls in subclasses(Optimizer):
        if "order" in cls.__dict__:
            patches.method(cls, "order", span("struql.optimize.order"))
    patches.function(cost, "annotate_plan",
                     span("struql.optimize.annotate"))
    patches.method(plan.Plan, "execute", span("struql.plan"))
    for kind in OP_KINDS:
        patches.method(getattr(plan, kind), "extend",
                       lambda fn, kind=kind: timed_extend(
                           tracer, f"struql.op.{kind}", fn))
    patches.method(QueryEngine, "evaluate", span("struql.evaluate"))
    patches.method(GraphBuilder, "apply_block_row",
                   span("struql.construct"))

    def count_mints(fn):
        # No span: an apply per construction term per row would cost
        # more in tracing than it does in work.  Its time stays in the
        # caller's layer (construction, or click-time page compute).
        @functools.wraps(fn)
        def apply(registry, name, args):
            before = len(registry)
            try:
                return fn(registry, name, args)
            finally:
                counts["struql.skolem_mints"] += len(registry) - before
        return apply
    patches.method(SkolemRegistry, "apply", count_mints)

    def count_bytes(html, args):
        counts["templates.bytes_out"] += len(html)

    def count_plan(build_plan, args):
        counts["buildcache.pages_rendered"] += len(build_plan.render)
        counts["buildcache.pages_skipped"] += len(build_plan.skipped)

    patches.function(template_parser, "parse_template",
                     span("templates.parse"))
    patches.method(HtmlGenerator, "render",
                   span("templates.render", count_bytes))
    patches.method(HtmlGenerator, "generate_site",
                   span("templates.generate_site"))
    patches.method(Website, "build_site", span("builder.build_site"))
    patches.method(Website, "build", span("builder.build"))
    patches.function(buildcache, "cached_generate",
                     span("builder.cached_generate"))
    patches.method(BuildCache, "plan", span("buildcache.plan", count_plan))
    patches.method(BuildCache, "record", span("buildcache.record"))

    patches.method(DynamicSite, "get_page", span("incremental.get_page"))
    patches.method(DynamicSite, "invalidate",
                   span("incremental.invalidate"))
    patches.method(LazySiteGraph, "ensure", span("incremental.ensure"))
    patches.method(LazySiteGraph, "unmaterialize",
                   span("incremental.unmaterialize"))
    patches.method(MatViewRegistry, "get_or_compute", span("matview.get"))
    patches.method(MatViewRegistry, "invalidate",
                   span("matview.invalidate"))
    patches.method(DynamicSiteServer, "request", span("server.request"))
    patches.method(DynamicSiteServer, "resolve_path",
                   span("server.resolve"))
    patches.method(DynamicSiteServer, "update", span("server.update"))
    patches.method(DynamicSiteServer, "invalidate",
                   span("server.invalidate"))
    return patches

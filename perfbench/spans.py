"""Span recorder for the benchmark's traced run.

Spans are recorded around calls into each layer by wrapping methods on
*instances* the benchmark built (plus the planner function the facade
imports); no source file of the program is edited and a plain run never
sees a wrapper.  Each span is ``(span_id, parent_id, name, start, end,
request_id)``; the parent is the innermost open span on the same thread,
so a layer's self time is its duration minus that of its children.
Spans stay in memory until :meth:`SpanRecorder.dump`.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

# The facade calls ``plan_queries`` by its module-global name, so the
# planner is wrapped on this module rather than on an instance.
import repro.system.locater as facade


class SpanRecorder:
    """In-memory spans plus counters, filled by instance wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.request = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, request=None):
        """Context manager recording one span; ``request`` (if given)
        becomes the request id of it and of every later span."""
        return _Span(self, name, request)

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``observe(args, result)`` runs after the call, outside the span,
        to update :attr:`counts`.  :meth:`unwrap_all` restores the
        original attribute.
        """
        inner = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = inner(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``, remembering how :meth:`unwrap_all` undoes it."""
        had_own = attr in getattr(owner, "__dict__", {})
        original = getattr(owner, attr) if had_own else None
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def unwrap_all(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def reset(self) -> None:
        """Forget spans and counts (wrappers stay in place)."""
        self.spans.clear()
        self.counts.clear()

    def record(self, name: str, start: float, end: float,
               request, parent: int = 0) -> int:
        """Append a span measured elsewhere (async code); returns its id."""
        span_id = next(self._ids)
        self.spans.append((span_id, parent, name, start, end, request))
        return span_id

    # ------------------------------------------------------------------
    def self_times(self) -> "dict[str, float]":
        """Seconds per span name, minus time covered by child spans."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for span_id, _, name, start, end, _ in self.spans:
            out[name] += end - start - child_time.get(span_id, 0.0)
        return dict(out)

    def dump(self, path) -> None:
        """Write every span as one JSON array per line (gzip)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps(
                ["span_id", "parent", "name", "start", "end", "request"])
                + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


class _Span:
    __slots__ = ("recorder", "name", "request", "span_id", "parent",
                 "start")

    def __init__(self, recorder: SpanRecorder, name: str, request) -> None:
        self.recorder = recorder
        self.name = name
        self.request = request

    def __enter__(self) -> "_Span":
        recorder = self.recorder
        if self.request is not None:
            recorder.request = self.request
        stack = recorder._stack()
        self.span_id = next(recorder._ids)
        self.parent = stack[-1] if stack else 0
        stack.append(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        recorder = self.recorder
        recorder._stack().pop()
        recorder.spans.append((self.span_id, self.parent, self.name,
                               self.start, end, recorder.request))


# ----------------------------------------------------------------------
# Instrumentation of one lone system (occupancy_grid, live_day)
# ----------------------------------------------------------------------
def _first_seen(recorder: SpanRecorder, counter: str, key_of):
    """Observer counting results not returned before for the same key.

    Trained models and neighbor snapshots are memoised by the program:
    a cache hit returns the very object it returned last time, a fresh
    computation a new one.  The last object per key is kept alive, so
    identities are never reused.
    """
    last: dict = {}

    def observe(args, result) -> None:
        key = key_of(args)
        if last.get(key) is not result:
            last[key] = result
            recorder.counts[counter] += 1

    return observe


def instrument_locater(recorder: SpanRecorder, locater,
                       engine=None, storage=None) -> None:
    """Wrap the layer entry points reachable from one ``Locater``.

    Call before a ``StreamingSession`` is built over ``locater``: the
    session takes its batch state from ``make_batch_state`` and
    subscribes to the engine, and both must already be wrapped.
    """
    counts = recorder.counts

    def planned(args, plan) -> None:
        counts["planner.queries"] += len(plan)
        counts["planner.groups"] += plan.group_count

    recorder.wrap(facade, "plan_queries", "planner", planned)

    coarse = locater.coarse
    recorder.wrap(coarse, "train_devices", "coarse.train")
    recorder.wrap(coarse, "models_for", "coarse.train",
                  _first_seen(recorder, "coarse.devices_trained",
                              lambda args: args[0]))

    def located(args, result) -> None:
        counts["coarse.calls"] += 1
        counts["coarse.event_hits"] += result.from_event
        counts["coarse.inside"] += result.inside

    recorder.wrap(coarse, "locate", "coarse.locate", located)

    def fined(args, result) -> None:
        counts["fine.calls"] += 1
        counts["fine.neighbors_total"] += result.neighbors_total
        counts["fine.neighbors_processed"] += result.neighbors_processed
        counts["fine.stopped_early"] += result.stopped_early

    recorder.wrap(locater.fine, "locate", "fine", fined)
    if locater.cache is not None:
        recorder.wrap(locater.cache, "prepare_neighbors", "cache.prepare")
        recorder.wrap(locater.cache, "record", "cache.record")

    make_state = locater.make_batch_state

    def traced_state(*args, **kwargs):
        state = make_state(*args, **kwargs)
        index = state.neighbors

        def found(args, result) -> None:
            counts["neighbors.calls"] += 1
            counts["neighbors.found"] += len(result)

        recorder.wrap(index, "neighbors_for", "neighbors", found)
        recorder.wrap(index, "snapshot", "neighbors",
                      _first_seen(recorder, "neighbors.snapshots",
                                  lambda args: args[0]))
        return state

    recorder.patch(locater, "make_batch_state", traced_state)

    def invalidated(args, summary) -> None:
        counts["invalidate.devices"] += len(summary.macs)
        counts["invalidate.full"] += summary.full

    recorder.wrap(locater, "on_ingest", "invalidate", invalidated)
    if engine is not None:
        def ingested(args, report) -> None:
            counts["ingest.events"] += report.count

        recorder.wrap(engine, "ingest", "ingest", ingested)
    if storage is not None:
        def looked_up(args, answer) -> None:
            counts["storage.lookups"] += 1
            counts["storage.hits"] += answer is not None

        recorder.wrap(storage, "find_answer", "storage", looked_up)
        recorder.wrap(storage, "store_answer", "storage")


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: Per-layer metric name → unit.  Every workload reports every metric;
#: a layer a workload never reaches reads 0.
LAYER_METRICS = {
    "serve.windows": "count",
    "serve.coalescing": "q/window",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p99_ms": "ms",
    "serve.pending_peak": "count",
    "serve.shed": "count",
    "cluster.dispatch_p50_ms": "ms",
    "cluster.dispatch_p99_ms": "ms",
    "cluster.dispatch_busy_frac": "fraction",
    "cluster.bytes_per_window": "B",
    "locater.busy_s": "s",
    "planner.busy_s": "s",
    "planner.queries_per_group": "q/group",
    "storage.busy_s": "s",
    "storage.lookups": "count",
    "storage.hit_ratio": "fraction",
    "ingest.busy_s": "s",
    "ingest.events": "count",
    "invalidate.busy_s": "s",
    "invalidate.devices": "count",
    "invalidate.full": "count",
    "coarse.train_busy_s": "s",
    "coarse.devices_trained": "count",
    "coarse.locate_busy_s": "s",
    "coarse.calls": "count",
    "coarse.event_hit_ratio": "fraction",
    "coarse.inside_ratio": "fraction",
    "neighbors.busy_s": "s",
    "neighbors.calls": "count",
    "neighbors.snapshots": "count",
    "neighbors.per_query": "count",
    "cache.prepare_busy_s": "s",
    "cache.record_busy_s": "s",
    "cache.hit_ratio": "fraction",
    "fine.busy_s": "s",
    "fine.calls": "count",
    "fine.neighbor_use_ratio": "fraction",
    "fine.stopped_early_ratio": "fraction",
    "trace_overhead": "ratio",
}

#: Self-time metric → the span name whose self time it reports.
BUSY_SPANS = {
    "locater.busy_s": "locater",
    "planner.busy_s": "planner",
    "storage.busy_s": "storage",
    "ingest.busy_s": "ingest",
    "invalidate.busy_s": "invalidate",
    "coarse.train_busy_s": "coarse.train",
    "coarse.locate_busy_s": "coarse.locate",
    "neighbors.busy_s": "neighbors",
    "cache.prepare_busy_s": "cache.prepare",
    "cache.record_busy_s": "cache.record",
    "fine.busy_s": "fine",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: SpanRecorder) -> "dict[str, float]":
    """Self times and counter ratios of the lone-system layers.

    Keys absent here (serve, cluster, cache.hit_ratio, trace_overhead)
    are filled in by the workload; any metric still absent reads 0.
    """
    selfs = recorder.self_times()
    counts = recorder.counts
    out = {metric: selfs.get(name, 0.0)
           for metric, name in BUSY_SPANS.items()}
    out.update({
        "planner.queries_per_group": _ratio(counts["planner.queries"],
                                            counts["planner.groups"]),
        "storage.lookups": counts["storage.lookups"],
        "storage.hit_ratio": _ratio(counts["storage.hits"],
                                    counts["storage.lookups"]),
        "ingest.events": counts["ingest.events"],
        "invalidate.devices": counts["invalidate.devices"],
        "invalidate.full": counts["invalidate.full"],
        "coarse.devices_trained": counts["coarse.devices_trained"],
        "coarse.calls": counts["coarse.calls"],
        "coarse.event_hit_ratio": _ratio(counts["coarse.event_hits"],
                                         counts["coarse.calls"]),
        "coarse.inside_ratio": _ratio(counts["coarse.inside"],
                                      counts["coarse.calls"]),
        "neighbors.calls": counts["neighbors.calls"],
        "neighbors.snapshots": counts["neighbors.snapshots"],
        "neighbors.per_query": _ratio(counts["neighbors.found"],
                                      counts["neighbors.calls"]),
        "fine.calls": counts["fine.calls"],
        "fine.neighbor_use_ratio": _ratio(
            counts["fine.neighbors_processed"],
            counts["fine.neighbors_total"]),
        "fine.stopped_early_ratio": _ratio(counts["fine.stopped_early"],
                                           counts["fine.calls"]),
    })
    return out

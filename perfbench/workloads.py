"""The three benchmark workloads, driven only through the public API.

Each workload generates its inputs from the seed with ``repro.sim`` (the
load generator, never timed) and computes the expected answers with an
independent oracle, which also warms the process up.  It then runs
*rounds*: a round sets a fresh system up from the generated events
(timed as set-up), runs the workload's timed phase on it, and checks the
answers against the oracle outside the timed region.  Rounds repeat
until their timed phases add up to the requested seconds.  With tracing
on, one untraced and one traced round are measured instead, and the
traced round yields the per-layer numbers.

Every figure (set-up time, throughput, a percentile, peak RSS) is
computed within one round, from that round's samples alone, and a run
reports each figure from its best round.  Load from other tenants of
the host only ever slows a round, by up to 2x for seconds at a time, so
the best round is the one it disturbed least.  A cost the program pays
on every tick or query is in every round, so the best round keeps it;
a rare stall (a collection, a pipe hiccup) may miss the best round, so
it shows only once it is frequent enough to hit most rounds.

``BENCHMARK.json`` gates ``live_day`` and ``gateway_open_loop``;
``occupancy_grid`` runs on request but is not gated.  See
``perfbench/README.md`` for why each workload exists and which end-to-
end metric each per-layer metric should move.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import multiprocessing
import pickle
import time
from dataclasses import dataclass, field

import numpy as np

from repro import (
    AsyncGateway,
    DeltaEstimator,
    EventTable,
    GatewayOverloadedError,
    InMemoryStorage,
    IngestionEngine,
    Locater,
    LocationQuery,
    ProcessShardExecutor,
    ScenarioSpec,
    SerialShardExecutor,
    ShardedLocater,
    Simulator,
    StreamingSession,
)
from repro.serve.gateway import IngestRecord, WindowRecord
from repro.sim.scenarios import open_loop_arrivals, streaming_day_workload
from repro.system.planner import plan_queries
from repro.system.streaming import MAX_SNAPSHOTS

from spans import SpanRecorder, instrument_locater, layer_metrics

#: World shared by every workload: a DBH-like building, 48 devices,
#: 14 simulated days.  The world is the deployment under test and stays
#: fixed; the workload seed drives the queries, bursts and arrivals
#: (worlds drawn per seed moved live-day throughput by up to 2x between
#: seeds, more than any bound could absorb).
POPULATION = 48
DAYS = 14
WORLD_SEED = 7
#: Fewest measured rounds of an untraced run, whatever ``--seconds`` says.
MIN_ROUNDS = 3


@dataclass
class Outcome:
    """What one run of a workload measured and checked."""

    metrics: dict = field(default_factory=dict)   # end-to-end, by name
    named: dict = field(default_factory=dict)     # name → (value, unit)
    layers: dict = field(default_factory=dict)    # per-layer, by name
    notes: list = field(default_factory=list)     # report lines
    recorder: "SpanRecorder | None" = None
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    shed: int = 0

    @property
    def error_rate(self) -> float:
        return (self.failed + self.shed + self.wrong) / max(self.attempted, 1)


def make_world():
    """The simulated deployment (fixed; see ``WORLD_SEED``)."""
    spec = ScenarioSpec.dbh_like(seed=WORLD_SEED, population=POPULATION)
    return Simulator(spec).run(days=DAYS)


def event_stream(world) -> list:
    """Every generated event, in time order (what the program receives)."""
    table = world.table
    return sorted((event for mac in table.macs()
                   for event in table.events_of(mac)),
                  key=lambda e: (e.timestamp, e.mac, e.ap_id))


def build_table(events) -> EventTable:
    """Table build plus δ fit over generated events (part of set-up)."""
    table = EventTable.from_events(events)
    DeltaEstimator().fit_table(table)
    return table


def settle() -> None:
    """Collect garbage and freeze what survives (inputs, oracle answers),
    so the collector never rescans it during a timed phase."""
    gc.collect()
    gc.freeze()


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; nearest-above when a sample is
    infinite (a shed or failed query), so infinities never become NaN."""
    values = np.asarray(values, dtype=float)
    method = "linear" if np.isfinite(values).all() else "higher"
    return float(np.percentile(values, q, method=method))


def best_of(rounds, key: str, higher: bool = False) -> float:
    """A run's figure: its best round's, the lowest (highest if
    ``higher``) of the rounds' figures."""
    values = [r[key] for r in rounds]
    return max(values) if higher else min(values)


def round_figures(rounds, keys) -> str:
    """Report line listing each measured round's figures, in order."""
    return "per round: " + json.dumps(
        {key: [round(r[key], 6) for r in rounds] for key in keys})


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS mark (Linux ``clear_refs``), so
    the next :func:`peak_rss_mb` sees only what the round used, not the
    oracles or replays that ran before it."""
    with open("/proc/self/clear_refs", "w") as refs:
        refs.write("5")


def peak_rss_mb(pid="self") -> float:
    """Peak RSS (``VmHWM``) of a live process since its last reset."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def private_mb(pid) -> float:
    """Memory a live process holds privately now (``Private_Clean`` plus
    ``Private_Dirty``): for a forked shard, what it allocated itself,
    without the pages it still shares with the parent."""
    total = 0
    with open(f"/proc/{pid}/smaps_rollup") as rollup:
        for line in rollup:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                total += int(line.split()[1])
    return total / 1024.0


def measure(run_round, seconds: float, trace: bool) -> list:
    """Measured rounds: one when tracing, else until ``seconds``."""
    rounds: list = []
    while not rounds or (not trace and (
            len(rounds) < MIN_ROUNDS or
            sum(r["timed"] for r in rounds) < seconds)):
        gc.collect()
        rounds.append(run_round())
    return rounds


def in_child(function, *args):
    """``function(*args)`` run in a forked child process; returns its
    result.  Whatever the child allocates stays out of this process's
    heap, so it cannot raise the resident set later rounds start from.
    Called between rounds, when the gateway's thread pool has shut down
    and no other thread runs, so forking is safe."""
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=lambda: send.send(function(*args)))
    child.start()
    send.close()
    try:
        return receive.recv()
    finally:
        receive.close()
        child.join()


def mismatches(answers, expected) -> int:
    return sum(a != b for a, b in zip(answers, expected)) + \
        abs(len(answers) - len(expected))


def hit_ratio(before, after) -> float:
    """Cache hit ratio between two ``stats()`` snapshots."""
    if not after:
        return 0.0
    hits = after["hits"] - (before["hits"] if before else 0)
    misses = after["misses"] - (before["misses"] if before else 0)
    return hits / (hits + misses) if hits + misses else 0.0


# ----------------------------------------------------------------------
# occupancy_grid: one locate_batch over every device at every slot
# ----------------------------------------------------------------------
class OccupancyGrid:
    """Analytics: the whole occupancy grid in one ``locate_batch`` call."""

    name = "occupancy_grid"
    SLOTS = 416

    def __init__(self, seed: int) -> None:
        world = make_world()
        self.building, self.metadata = world.building, world.metadata
        self.events = event_stream(world)
        span = world.span
        width = span.duration / self.SLOTS
        phase = float(np.random.default_rng(seed).uniform(0.0, 1.0))
        self.queries = [
            LocationQuery(mac=mac,
                          timestamp=span.start + (slot + phase) * width)
            for slot in range(self.SLOTS) for mac in world.macs()]
        self.expected: list = []
        self.expected_cache: dict = {}

    def _locater(self) -> Locater:
        return Locater(self.building, self.metadata,
                       build_table(self.events))

    def _sequential(self) -> None:
        """Oracle: ``locate`` one query at a time, in plan order, on a
        fresh system that trains lazily."""
        locater = self._locater()
        answers = [None] * len(self.queries)
        for planned in plan_queries(self.queries).ordered():
            answers[planned.index] = locater.locate(
                planned.query.mac, planned.query.timestamp)
        self.expected, self.expected_cache = answers, locater.cache.stats()

    def _round(self, recorder: "SpanRecorder | None" = None) -> dict:
        reset_peak_rss()
        begin = time.perf_counter()
        locater = self._locater()
        if recorder is not None:
            # Wrapped before training, so the model counter knows which
            # models set-up already built.
            instrument_locater(recorder, locater)
        locater.coarse.train_devices(locater.table.macs())
        if recorder is not None:
            recorder.reset()
        ready = time.perf_counter()
        if recorder is None:
            answers = locater.locate_batch(self.queries)
        else:
            with recorder.span("locater", request=0):
                answers = locater.locate_batch(self.queries)
            recorder.unwrap_all()
        done = time.perf_counter()
        rss = peak_rss_mb()
        cache = locater.cache.stats()
        return {"setup": ready - begin, "timed": done - ready,
                "qps": len(self.queries) / (done - ready), "rss": rss,
                "cache": cache,
                "wrong": mismatches(answers, self.expected)
                + (cache != self.expected_cache)}

    def run(self, seconds: float, trace: bool) -> Outcome:
        out = Outcome()
        self._sequential()
        settle()
        rounds = measure(self._round, seconds, trace)
        calls = [r["timed"] for r in rounds]
        call = best_of(rounds, "timed")
        qps = best_of(rounds, "qps", higher=True)
        out.metrics = {
            "setup_s": best_of(rounds, "setup"),
            "qps": qps,
            "p50_ms": 1000.0 * call,
            # One call per round: no percentile has ten samples beyond
            # it, so the tail is the same call.
            "tail_ms": 1000.0 * call,
            "peak_rss_mb": best_of(rounds, "rss"),
        }
        out.named = {"grid_qps": (qps, "1/s"), "grid_call_s": (call, "s")}
        out.notes.append(round_figures(rounds, ("setup", "timed", "qps",
                                                "rss")))
        out.notes.append(
            f"grid: {self.SLOTS} slots x {POPULATION} devices = "
            f"{len(self.queries)} queries per locate_batch call; "
            f"{len(rounds)} measured round(s), one call each: "
            + ", ".join(f"{c:.3f}" for c in calls) + " s")
        if trace:
            out.recorder = SpanRecorder()
            traced = self._round(out.recorder)
            rounds.append(traced)
            out.layers = layer_metrics(out.recorder)
            out.layers["cache.hit_ratio"] = hit_ratio(None, traced["cache"])
            out.layers["trace_overhead"] = traced["timed"] / call
        out.attempted = len(rounds) * len(self.queries)
        out.wrong = sum(r["wrong"] for r in rounds)
        return out


# ----------------------------------------------------------------------
# live_day: one day replayed as 1440 ingest ticks, each + an 8-query burst
# ----------------------------------------------------------------------
class LiveDay:
    """Writes beside reads: ingest ticks interleaved with query bursts."""

    name = "live_day"
    TICKS = 1440
    BURST = 8

    def __init__(self, seed: int) -> None:
        world = make_world()
        self.building, self.metadata = world.building, world.metadata
        self.day = streaming_day_workload(
            world, batches=self.TICKS, queries_per_burst=self.BURST,
            seed=seed)
        self.queries = sum(len(b.queries) for b in self.day.batches)
        self.expected: list = []
        self.expected_cache: dict = {}

    def _warm_system(self):
        """Table over the warm-up history, storage, engine, locater."""
        table = EventTable()
        storage = InMemoryStorage()
        engine = IngestionEngine(table, storage=storage)
        engine.ingest(self.day.warmup)
        locater = Locater(self.building, self.metadata, table,
                          storage=storage)
        return locater, engine, storage

    def _replay(self) -> None:
        """Oracle: the same ticks on a system with no session state.

        The locater is subscribed to the engine directly and every burst
        is a plain ``locate_batch`` with a fresh batch state, so neither
        the session's persistent memos nor its pruning take part; the
        cache and storage history is replayed tick by tick.
        """
        locater, engine, _ = self._warm_system()
        engine.subscribe(locater.on_ingest)
        answers = []
        for batch in self.day.batches:
            engine.ingest(batch.ingest)
            answers.append(locater.locate_batch(batch.queries))
        self.expected, self.expected_cache = answers, locater.cache.stats()

    def _round(self, recorder: "SpanRecorder | None" = None) -> dict:
        reset_peak_rss()
        begin = time.perf_counter()
        locater, engine, storage = self._warm_system()
        if recorder is not None:
            instrument_locater(recorder, locater, engine=engine,
                               storage=storage)
        session = StreamingSession(locater, engine)
        locater.coarse.train_devices(locater.table.macs())
        if recorder is not None:
            recorder.reset()
        ready = time.perf_counter()
        ticks: list[float] = []
        answers: list = []
        for batch in self.day.batches:
            start = time.perf_counter()
            if recorder is None:
                session.ingest(batch.ingest)
                burst = session.query(batch.queries)
            else:
                with recorder.span("locater", request=batch.index):
                    session.ingest(batch.ingest)
                    burst = session.query(batch.queries)
            ticks.append(time.perf_counter() - start)
            answers.append(burst)
        done = time.perf_counter()
        rss = peak_rss_mb()
        if recorder is not None:
            recorder.unwrap_all()
        session.close()
        cache = locater.cache.stats()
        return {"setup": ready - begin, "timed": done - ready,
                "qps": self.queries / (done - ready),
                "p50": percentile(ticks, 50), "p99": percentile(ticks, 99),
                "rss": rss, "cache": cache,
                "wrong": sum(mismatches(a, b) for a, b
                             in zip(answers, self.expected))
                + (cache != self.expected_cache)}

    def run(self, seconds: float, trace: bool) -> Outcome:
        out = Outcome()
        self._replay()
        settle()
        rounds = measure(self._round, seconds, trace)
        day = best_of(rounds, "timed")
        p50 = 1000.0 * best_of(rounds, "p50")
        p99 = 1000.0 * best_of(rounds, "p99")
        out.metrics = {
            "setup_s": best_of(rounds, "setup"),
            "qps": best_of(rounds, "qps", higher=True),
            "p50_ms": p50,
            "tail_ms": p99,
            "peak_rss_mb": best_of(rounds, "rss"),
        }
        out.named = {"live_day_s": (day, "s"),
                     "live_tick_p50_ms": (p50, "ms"),
                     "live_tick_p99_ms": (p99, "ms")}
        out.notes.append(round_figures(rounds, ("setup", "timed", "qps",
                                                "p50", "p99", "rss")))
        out.notes.append(
            f"live day: {len(self.day.warmup)} warm-up events, "
            f"{self.TICKS} ticks x {self.BURST} queries, "
            f"{sum(len(b.ingest) for b in self.day.batches)} events "
            f"ingested; {len(rounds)} measured day(s): "
            + ", ".join(f"{r['timed']:.3f}" for r in rounds)
            + " s; each figure is the best day's")
        if trace:
            out.recorder = SpanRecorder()
            traced = self._round(out.recorder)
            rounds.append(traced)
            out.layers = layer_metrics(out.recorder)
            out.layers["cache.hit_ratio"] = hit_ratio(None, traced["cache"])
            out.layers["trace_overhead"] = traced["timed"] / day
        out.attempted = len(rounds) * self.queries
        out.wrong = sum(r["wrong"] for r in rounds)
        return out


# ----------------------------------------------------------------------
# gateway_open_loop: Poisson arrivals into AsyncGateway over 2 shards
# ----------------------------------------------------------------------
@dataclass
class Offered:
    """What one open-loop schedule measured."""

    latencies: list          # seconds from due time; inf if shed/failed
    lateness: list           # generator lateness per submission
    shed: int
    failed: int
    drain: float             # seconds from the last due time to the end

    @property
    def score(self) -> float:
        """max(p99, drain); infinite if a query was shed or failed."""
        if self.shed or self.failed:
            return math.inf
        return max(percentile(self.latencies, 99), self.drain)


async def offer(gateway: AsyncGateway, schedule) -> Offered:
    """Submit ``schedule`` open loop; time each query from its due time."""
    count = len(schedule.queries)
    latencies = [math.inf] * count
    lateness = [0.0] * count
    outcome = {"shed": 0, "failed": 0}

    async def one(index: int, due: float, query) -> None:
        try:
            await gateway.locate_query(query)
        except GatewayOverloadedError:
            outcome["shed"] += 1
            return
        except Exception:  # counted as a failed query, never raised
            outcome["failed"] += 1
            return
        latencies[index] = time.perf_counter() - due

    tasks = []
    start = time.perf_counter() + 0.001
    for index, (offset, query) in enumerate(zip(schedule.offsets,
                                                schedule.queries)):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness[index] = max(0.0, time.perf_counter() - due)
        tasks.append(asyncio.create_task(one(index, due, query)))
    await asyncio.gather(*tasks)
    drain = time.perf_counter() - (start + schedule.offsets[-1])
    return Offered(latencies, lateness, outcome["shed"], outcome["failed"],
                   drain)


def max_rate(rates, scores, limit: float) -> float:
    """Highest offered rate whose score meets ``limit``, from one round.

    ``rates[0]`` is the nominal rate and ``scores[0]`` its score; the
    rest are the ladder's rungs, low to high, as far as the round ran
    them (it stops after the first rung over the limit).  The estimate
    interpolates log score linearly in rate between the last rate under
    the limit and the first over it, so it is not quantised to the
    ladder.
    """
    for i in range(1, len(scores)):
        if scores[i] > limit:
            low, high = scores[i - 1], scores[i]
            if not math.isfinite(high):
                high = 10.0 * max(limit, low)
            share = (math.log(limit) - math.log(low)) / \
                (math.log(high) - math.log(low)) if high > low else 0.0
            share = min(max(share, 0.0), 1.0)
            return rates[i - 1] + share * (rates[i] - rates[i - 1])
    return rates[len(scores) - 1]


class GatewayOpenLoop:
    """Independent users: Poisson arrivals into the async gateway."""

    name = "gateway_open_loop"
    SHARDS = 2
    WINDOW = {"max_wait": 0.0, "max_batch": 64, "max_pending": 1024}
    # Nominal offered rate.  At 1000/s the shards are about half busy and
    # queueing doubles p50 whenever the host slows a little; at 500/s the
    # same host drift moved p50 half as much (interleaved runs).
    RATE = 500.0           # queries/s
    # Queries per round (p99 has 10 beyond it).  Short rounds: a stall of
    # 20-60 ms delays ~1% of a round, so p99 is quiet only in a round
    # without one, and the more rounds a run holds, the likelier one is.
    NOMINAL = 1000
    LIMIT_S = 0.050        # p99 latency limit of the rate search
    LADDER = tuple(1000.0 * 1.25 ** k for k in range(3, 11))  # 1953..9313/s
    PROBE_SECONDS = 0.6    # schedule length of one rung (>= 1000 queries)
    WARMUP_TIMES = 8       # warm-up queries per device

    def __init__(self, seed: int) -> None:
        self.world = world = make_world()
        self.building, self.metadata = world.building, world.metadata
        self.events = event_stream(world)
        span = world.span
        self.warmup = [
            LocationQuery(mac=mac, timestamp=span.start + (k + 0.5)
                          * span.duration / self.WARMUP_TIMES)
            for mac in world.macs() for k in range(self.WARMUP_TIMES)]
        self.seed = seed
        self.rounds_run = 0

    def _schedules(self) -> tuple:
        """The next round's nominal schedule and ladder rungs.

        Each round draws its own arrivals (from the seed and the round's
        index), so a run's figures do not rest on how bursty one
        schedule happens to be.
        """
        base = (self.seed * 1000 + self.rounds_run) * (len(self.LADDER) + 1)
        self.rounds_run += 1
        nominal = open_loop_arrivals(
            self.world, rate_per_second=self.RATE, count=self.NOMINAL,
            seed=base)
        rungs = [
            open_loop_arrivals(
                self.world, rate_per_second=rate,
                count=max(1000, int(rate * self.PROBE_SECONDS)),
                seed=base + rung)
            for rung, rate in enumerate(self.LADDER, start=1)]
        return nominal, rungs

    def _cluster(self, executor=None) -> "tuple[ShardedLocater, EventTable]":
        table = build_table(self.events)
        if executor is None:
            executor = ProcessShardExecutor()
        cluster = ShardedLocater(
            self.building, self.metadata, table, shard_count=self.SHARDS,
            executor=executor, shared_memory=not executor.in_process)
        return cluster, table

    def _round(self, ladder: bool,
               recorder: "SpanRecorder | None" = None) -> dict:
        nominal, rungs = self._schedules()
        reset_peak_rss()
        begin = time.perf_counter()
        # The round owns its table: the cluster is closed before the
        # table, so no attached view outlives the shared segments.
        cluster, table = self._cluster()
        try:
            gateway = AsyncGateway(cluster, journal=True, **self.WINDOW)
            result = asyncio.run(self._serve(
                gateway, cluster, begin, nominal, rungs if ladder else (),
                recorder))
            cache = cluster.cache_stats().total
            result["cache"] = cache
            # The parent's peak plus what each shard holds privately,
            # read before the shards exit.
            result["rss"] = peak_rss_mb() + sum(
                private_mb(child.pid)
                for child in multiprocessing.active_children())
        finally:
            cluster.close()
            table.close()
        result["wrong"] = in_child(self._replay, gateway.journal, cache)
        return result

    async def _serve(self, gateway, cluster, begin, nominal, rungs,
                     recorder) -> dict:
        await gateway.start()
        await asyncio.gather(*(gateway.locate_query(q) for q in self.warmup))
        ready = time.perf_counter()
        traced = None
        if recorder is not None:
            traced = _instrument_gateway(recorder, gateway, cluster)
        phase_start = time.perf_counter()
        offered = await offer(gateway, nominal)
        phase = time.perf_counter() - phase_start
        if recorder is not None:
            recorder.unwrap_all()
        probed = []
        for schedule in rungs:
            probed.append(await offer(gateway, schedule))
            if probed[-1].score > self.LIMIT_S:
                break
        done = time.perf_counter()
        stats = gateway.stats()
        await gateway.close()
        scores = [offered.score] + [probe.score for probe in probed]
        # Figures only: the round's samples are not kept.
        return {"setup": ready - begin, "timed": done - ready,
                "phase": phase, "queries": len(offered.latencies),
                "shed": offered.shed,
                "failed": offered.failed + sum(p.failed for p in probed),
                "lateness_p99": percentile(offered.lateness, 99),
                "lateness_max": max(offered.lateness),
                "p50": percentile(offered.latencies, 50),
                "p99": percentile(offered.latencies, 99),
                "scores": scores,
                "max_qps": max_rate((self.RATE, *self.LADDER), scores,
                                    self.LIMIT_S),
                "stats": stats, "traced": traced}

    def _replay(self, journal, expected_cache) -> int:
        """Oracle: the journal through plain ``locate_batch`` calls on a
        cluster with the same router, shards and config; returns the
        number of mismatches.

        The replay cluster runs its shards in-process: answers and cache
        counters are bitwise independent of the executor (the cluster
        equivalence contract), and a pipe round trip per window would
        make the replay cost more than the round it checks.
        """
        wrong = 0
        cluster, table = self._cluster(SerialShardExecutor())
        try:
            # Process shards keep warm memos worker-side; in-process
            # shards get the equivalent persistent state threaded through.
            state = cluster.make_batch_state(max_snapshots=MAX_SNAPSHOTS)
            for record in journal:
                if isinstance(record, IngestRecord):
                    cluster.ingest(record.events)
                elif isinstance(record, WindowRecord):
                    wrong += mismatches(
                        list(record.answers),
                        cluster.locate_batch(list(record.queries),
                                             state=state))
            wrong += cluster.cache_stats().total != expected_cache
        finally:
            cluster.close()
            table.close()
        return wrong

    def run(self, seconds: float, trace: bool) -> Outcome:
        out = Outcome()
        settle()
        rounds = measure(lambda: self._round(not trace), seconds, trace)
        p50 = 1000.0 * best_of(rounds, "p50")
        p99 = 1000.0 * best_of(rounds, "p99")
        max_qps = math.nan if trace else best_of(rounds, "max_qps",
                                                 higher=True)
        out.metrics = {
            "setup_s": best_of(rounds, "setup"),
            "qps": max_qps,
            "p50_ms": p50,
            "tail_ms": p99,
            "peak_rss_mb": best_of(rounds, "rss"),
        }
        out.named = {"gw_p50_ms": (p50, "ms"), "gw_p99_ms": (p99, "ms"),
                     "gw_max_qps": (max_qps, "1/s")}
        out.notes.append(
            f"gateway: {self.SHARDS} process shards on shared memory, "
            f"drain window (max_wait=0, max_batch=64, max_pending=1024); "
            f"{len(rounds)} round(s) x {self.NOMINAL} Poisson queries at "
            f"{self.RATE:.0f}/s; generator lateness p99 up to "
            f"{1000 * max(r['lateness_p99'] for r in rounds):.2f} ms, max "
            f"{1000 * max(r['lateness_max'] for r in rounds):.2f} ms")
        out.notes.append(
            f"rate ladder: limit {1000 * self.LIMIT_S:.0f} ms on "
            "max(p99, drain)")
        out.notes.append(round_figures(
            rounds, ("setup", "p50", "p99", "rss")
            + (() if trace else ("max_qps",))))
        if trace:
            out.recorder = SpanRecorder()
            gc.collect()
            traced = self._round(False, out.recorder)
            rounds.append(traced)
            out.layers = gateway_layers(out.recorder, traced, self.SHARDS)
            out.layers["trace_overhead"] = traced["p50"] / (p50 / 1000.0)
        # Nominal-rate and warm-up queries are the workload; a probe past
        # the knee is meant to overload, so its typed sheds are a probe
        # result, not an error.  Every answered query, probes included,
        # is checked by the journal replay.
        for result in rounds:
            out.attempted += result["queries"] + len(self.warmup)
            out.shed += result["shed"]
            out.failed += result["failed"]
            out.wrong += result["wrong"]
        return out


def _instrument_gateway(recorder: SpanRecorder, gateway: AsyncGateway,
                        cluster: ShardedLocater) -> dict:
    """Wrap ``ShardedLocater.locate_slice`` and ``AsyncGateway.locate_query``.

    Dispatch spans run on the gateway's pool threads; query spans are
    recorded by the event loop.  The pickled size of each window's
    queries and answers is computed here, in the traced run only.
    Returns the traced round's bookkeeping: the window that answered
    each query (by ``id``), and counters taken before the phase.
    """
    counts = recorder.counts
    windows = iter(range(1, 1 << 62))
    window_of: dict = {}
    dispatch = cluster.locate_slice

    def locate_slice(shard_id, queries, *args, **kwargs):
        window = next(windows)
        start = time.perf_counter()
        answers = dispatch(shard_id, queries, *args, **kwargs)
        end = time.perf_counter()
        recorder.record("cluster.dispatch", start, end, window)
        window_of.update((id(query), window) for query in queries)
        counts["cluster.bytes"] += len(pickle.dumps(list(queries))) + \
            len(pickle.dumps(answers))
        counts["cluster.windows"] += 1
        return answers

    recorder.patch(cluster, "locate_slice", locate_slice)
    inner = gateway.locate_query

    async def locate_query(query):
        start = time.perf_counter()
        counts["serve.pending_peak"] = max(counts["serve.pending_peak"],
                                           gateway.pending + 1)
        try:
            return await inner(query)
        finally:
            recorder.record("serve.query", start, time.perf_counter(),
                            id(query))

    recorder.patch(gateway, "locate_query", locate_query)
    return {"window_of": window_of, "shed": gateway.stats().shed,
            "cache": cluster.cache_stats().total}


def gateway_layers(recorder: SpanRecorder, traced: dict,
                   shards: int) -> dict:
    """serve.*, cluster.* and cache.hit_ratio of one traced round."""
    counts = recorder.counts
    before = traced["traced"]
    window_span = {request: end - start
                   for _, _, name, start, end, request in recorder.spans
                   if name == "cluster.dispatch"}
    window_of = before["window_of"]
    waits = [end - start - window_span[window_of[request]]
             for _, _, name, start, end, request in recorder.spans
             if name == "serve.query" and request in window_of]
    dispatch = list(window_span.values())
    windows = counts["cluster.windows"]
    return {
        "serve.windows": windows,
        "serve.coalescing": len(waits) / windows if windows else 0.0,
        "serve.queue_wait_p50_ms": 1000.0 * percentile(waits, 50),
        "serve.queue_wait_p99_ms": 1000.0 * percentile(waits, 99),
        "serve.pending_peak": counts["serve.pending_peak"],
        "serve.shed": traced["stats"].shed - before["shed"],
        "cluster.dispatch_p50_ms": 1000.0 * percentile(dispatch, 50),
        "cluster.dispatch_p99_ms": 1000.0 * percentile(dispatch, 99),
        "cluster.dispatch_busy_frac": sum(dispatch)
        / (traced["phase"] * shards),
        "cluster.bytes_per_window": counts["cluster.bytes"] / windows
        if windows else 0.0,
        "cache.hit_ratio": hit_ratio(before["cache"], traced["cache"]),
    }


WORKLOADS = {cls.name: cls for cls in (OccupancyGrid, LiveDay,
                                       GatewayOpenLoop)}

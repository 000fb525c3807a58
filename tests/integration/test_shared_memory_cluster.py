"""Shared-memory cluster equivalence: attached views ≡ lone.

Extends ``test_cluster_equivalence.py`` to the details of the only
process-shard wiring: the table's hot columns live in named
shared-memory segments (``ShardedLocater(..., shared_memory=True)``),
process shard workers *attach* by segment name under fork and spawn
alike, and ingests fan out as :class:`~repro.events.table.TableSync`
payloads.  The invariant is unchanged — bitwise-identical answers —
plus the accounting claim the wiring exists for: N shards cost ~1× the
table's column bytes, not N×.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.cluster import ProcessShardExecutor, SerialShardExecutor, ShardedLocater
from repro.errors import ConfigurationError, EventTableError
from repro.eval.queries import generated_query_set, labeled_query_set
from repro.events.columns import SharedMemoryColumnStore
from repro.events.table import EventTable
from repro.events.validity import DeltaEstimator
from repro.sim.scenarios import ScenarioSpec, streaming_day_workload
from repro.sim.simulator import Simulator
from repro.system.config import LocaterConfig
from repro.system.locater import Locater

CONFIG = LocaterConfig(use_caching=False)

START_METHODS = [
    pytest.param(method, marks=pytest.mark.skipif(
        method not in multiprocessing.get_all_start_methods(),
        reason=f"{method} unavailable"))
    for method in ("fork", "spawn")]


@pytest.fixture(scope="module")
def world():
    """A module-private dataset: tests migrate (and finally unlink) its
    table's column store, so it must not be the shared session fixture."""
    dataset = Simulator(ScenarioSpec.dbh_like(seed=29, population=10)).run(days=4)
    queries = labeled_query_set(dataset, per_device=2, seed=2)
    queries += generated_query_set(dataset, count=20, seed=3)
    yield dataset, queries
    dataset.table.close()


@pytest.fixture(scope="module")
def lone_answers(world):
    """Computed before any migration: heap-era ground truth."""
    dataset, queries = world
    lone = Locater(dataset.building, dataset.metadata, dataset.table,
                   config=CONFIG)
    return lone.locate_batch(queries)


def _warm_table(workload) -> EventTable:
    table = EventTable.from_events(workload.warmup)
    DeltaEstimator().fit_table(table)
    return table


class TestAttachedBatchEquivalence:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_fork_attached_identical_to_lone(self, world, lone_answers,
                                             shards):
        dataset, queries = world
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=shards,
                            executor=ProcessShardExecutor(),
                            config=CONFIG, shared_memory=True) as cluster:
            assert cluster.locate_batch(queries) == lone_answers

    def test_spawn_attached_identical_to_lone(self, world, lone_answers):
        dataset, queries = world
        # Spawned workers import the world from scratch: keep it small.
        subset = queries[:8]
        with ShardedLocater(
                dataset.building, dataset.metadata, dataset.table,
                shard_count=2,
                executor=ProcessShardExecutor(start_method="spawn"),
                config=CONFIG, shared_memory=True) as cluster:
            assert cluster.locate_batch(subset) == lone_answers[:8]

    def test_in_process_over_shared_store_identical(self, world,
                                                    lone_answers):
        # shared_memory with an in-process executor is legal (the store
        # migrates; shards read the same table object as always).
        dataset, queries = world
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=3,
                            executor=SerialShardExecutor(),
                            config=CONFIG, shared_memory=True) as cluster:
            assert cluster.locate_batch(queries) == lone_answers

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_process_without_shared_store_rejected(self, world,
                                                   start_method):
        # No process shard runs over a heap table, and the cluster
        # never migrates the caller's table on its own.
        dataset, _ = world
        workload = streaming_day_workload(dataset, batches=1,
                                          queries_per_burst=1, seed=3)
        heap_table = _warm_table(workload)
        try:
            with pytest.raises(ConfigurationError,
                               match="shared_memory=True"):
                ShardedLocater(
                    dataset.building, dataset.metadata, heap_table,
                    shard_count=2,
                    executor=ProcessShardExecutor(
                        start_method=start_method),
                    config=CONFIG)
            assert not heap_table.store.is_shared
        finally:
            heap_table.close()


class TestMemoryAccounting:
    def test_attached_shards_cost_one_copy(self, world):
        dataset, queries = world
        with ShardedLocater(dataset.building, dataset.metadata,
                            dataset.table, shard_count=4,
                            executor=ProcessShardExecutor(),
                            config=CONFIG, shared_memory=True) as cluster:
            cluster.locate_batch(queries[:6])  # force workers to map logs
            memory = cluster.table_memory()
            parent_bytes = memory["parent"]["column_bytes"]
            assert parent_bytes > 0
            # The cluster-wide total counts the shared segments once: 1×
            # regardless of shard count.
            assert memory["total_column_bytes"] == parent_bytes
            for shard in memory["shards"]:
                assert shard["kind"] == "shared-attached"
                assert shard["column_bytes"] == parent_bytes


class TestAttachedStreaming:
    def test_sync_fanout_matches_cold_rebuild(self, world):
        dataset, _ = world
        workload = streaming_day_workload(dataset, batches=3,
                                          queries_per_burst=5, seed=3)
        table = _warm_table(workload)
        try:
            with ShardedLocater(dataset.building, dataset.metadata,
                                table, shard_count=4,
                                executor=ProcessShardExecutor(),
                                config=CONFIG,
                                shared_memory=True) as cluster:
                for batch in workload.batches:
                    report = cluster.ingest(batch.ingest)
                    assert report.count == len(batch.ingest)
                    cold_table = EventTable.from_events(
                        workload.events_through(batch.index))
                    DeltaEstimator().fit_table(cold_table)
                    cold = Locater(dataset.building, dataset.metadata,
                                   cold_table, config=CONFIG)
                    assert cluster.locate_batch(batch.queries) == \
                        cold.locate_batch(batch.queries)
                # Worker-side sessions observed every sync, and the
                # attached views track the authoritative table exactly.
                for stats in cluster.shard_stats():
                    assert stats["ingests"] == len(workload.batches)
                    assert stats["events"] == len(table)
        finally:
            table.close()


class TestAttachedTableViews:
    @pytest.fixture()
    def owner(self, world):
        dataset, _ = world
        workload = streaming_day_workload(dataset, batches=2,
                                          queries_per_burst=1, seed=7)
        table = EventTable.from_events(workload.warmup,
                                       store=SharedMemoryColumnStore())
        DeltaEstimator().fit_table(table)
        yield table, workload
        table.close()

    def test_attached_view_reads_identical_and_is_read_only(self, owner):
        table, workload = owner
        view = EventTable.attach(table.describe())
        try:
            assert view.macs() == table.macs()
            for mac in table.macs():
                mine, theirs = view.log(mac), table.log(mac)
                assert mine.times.tobytes() == theirs.times.tobytes()
                assert mine.ap_indices.tobytes() == \
                    theirs.ap_indices.tobytes()
            with pytest.raises(EventTableError):
                view.append(workload.batches[0].ingest[0])
        finally:
            view.close()

    def test_apply_sync_rejects_generation_divergence(self, owner):
        table, workload = owner
        view = EventTable.attach(table.describe())
        try:
            base = table.generation
            table.extend(workload.batches[0].ingest)
            table.freeze()
            table.extend(workload.batches[1].ingest)
            table.freeze()
            # A view that missed the first sync must not apply the
            # second: its base generation no longer matches.
            stale = table.sync_payload(table.generation - 1)
            with pytest.raises(EventTableError):
                view.apply_sync(stale)
            # The full catch-up sync (from the view's actual base) works.
            view.apply_sync(table.sync_payload(base))
            assert view.generation == table.generation
            assert len(view) == len(table)
        finally:
            view.close()

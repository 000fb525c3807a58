"""Shared plumbing for the experiment modules.

Datasets are memoized per parameter tuple so an experiment sweep (or a
benchmark session touching several experiments) simulates each world only
once.  Clusters are built over a private copy of the dataset's table
(:func:`owned_cluster`), so no experiment ever migrates a memoized
table into shared memory.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from functools import lru_cache

from repro.cluster.executor import ShardExecutor
from repro.cluster.sharded import ShardedLocater
from repro.sim.dataset import Dataset
from repro.sim.scenarios import ScenarioSpec
from repro.sim.simulator import Simulator


@lru_cache(maxsize=8)
def dbh_dataset(days: int = 14, population: int = 24,
                seed: int = 7) -> Dataset:
    """The DBH-like evaluation dataset (memoized)."""
    spec = ScenarioSpec.dbh_like(seed=seed, population=population)
    return Simulator(spec).run(days=days)


@lru_cache(maxsize=8)
def scenario_dataset(name: str, days: int = 10, seed: int = 11,
                     population_scale: float = 0.5) -> Dataset:
    """One of the paper's four simulated scenarios (memoized)."""
    spec = ScenarioSpec.by_name(name, seed=seed).scaled(population_scale)
    return Simulator(spec).run(days=days)


@lru_cache(maxsize=4)
def campus_dataset(days: int = 6, population: int = 48,
                   buildings: int = 3, seed: int = 17) -> Dataset:
    """The multi-building campus workload (memoized, deterministic)."""
    spec = ScenarioSpec.campus(seed=seed, population=population,
                               buildings=buildings)
    return Simulator(spec).run(days=days)


def clear_caches() -> None:
    """Drop memoized datasets (tests use this to control memory)."""
    dbh_dataset.cache_clear()
    scenario_dataset.cache_clear()
    campus_dataset.cache_clear()


@contextmanager
def owned_cluster(dataset: Dataset, executor: ShardExecutor,
                  **kwargs) -> Iterator[ShardedLocater]:
    """A ``ShardedLocater`` over a private copy of ``dataset.table``.

    Process executors attach the copy's shared-memory segments, and
    the copy is closed after the cluster, so no segment outlives the
    run.  ``kwargs`` go to :class:`ShardedLocater` (``shard_count``,
    ``router``, ``config``, ``recovery``...).
    """
    table = dataset.table.restrict(dataset.table.span())
    try:
        with ShardedLocater(dataset.building, dataset.metadata, table,
                            executor=executor,
                            shared_memory=not executor.in_process,
                            **kwargs) as cluster:
            yield cluster
    finally:
        table.close()

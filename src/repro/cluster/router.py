"""Shard routing: which shard owns which device.

A :class:`~repro.cluster.sharded.ShardedLocater` lets every shard read
the whole event log (cleaning couples devices through co-location, so
a shard answering queries from a partial log would change answers) and
partitions *serving ownership*: each device's queries, trained coarse
models, cleaned-answer storage and cache warm state live on exactly one
shard.  The router decides that assignment.

Routers must be **deterministic and ingest-bound**: ``shard_of`` may
never depend on query order, process identity or Python's salted
``hash`` — assignment state changes only through the observe hooks,
which run during ingests, never during queries.  Routes may *upgrade*
at those ingest boundaries: a device the affinity router has not yet
bound serves from its hash-fallback shard until its first observation
at a mapped AP binds it, and a component router re-binds whole device
groups when their components merge.  Every upgrade is accounted for —
``observe_table`` returns the set of devices whose route changed, and
the cluster migrates what a move would otherwise strand: stored
answers are cleared from the old shard's namespace (so a re-query can
never serve a stale namespaced answer) and recorded cache edges are
exchanged to the new owning shard (so its affinity reads stay exactly
what a lone deployment would see).  Trained models and memos are pure
functions of the shared log and need no migration — the old shard
merely keeps warm state it will no longer use.  Three routers ship:

* :class:`HashRouter` — a stable CRC32 of the MAC, modulo the shard
  count.  Uniform, metadata-free, the right default.
* :class:`BuildingAffinityRouter` — for multi-building campuses whose
  AP ids map to buildings: a device is assigned to the shard of the
  building where it was *first observed* (sticky thereafter), so
  co-located populations land on the same shard and the shard's
  shared-computation memos (neighbor snapshots, pair affinities) hit
  across its whole query stream.  Devices never observed at a mapped AP
  fall back to the hash route.
* :class:`ComponentAffinityRouter` — routes by connected component of
  the *potential co-presence graph* (two devices couple if the rooms
  their observed APs cover intersect — the precondition for ever being
  neighbors, and hence for ever sharing an affinity edge).  Every
  device of a component lands on one shard, which is what makes
  per-shard §5 caching **exact**: see
  :mod:`repro.cache.components` and the cluster package docstring.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from collections.abc import Iterable, Mapping, Sequence
from typing import TypeVar

import numpy as np

from repro.cache.components import AffinityComponents
from repro.errors import ConfigurationError
from repro.events.event import ConnectivityEvent
from repro.events.table import EventTable
from repro.space.building import Building

T = TypeVar("T")


def stable_hash(mac: str) -> int:
    """A process-independent, salt-free hash of a device id."""
    return zlib.crc32(mac.encode("utf-8"))


class ShardRouter(ABC):
    """Maps a device id to the shard that owns it."""

    @abstractmethod
    def shard_of(self, mac: str, shard_count: int) -> int:
        """The owning shard of ``mac``, in ``range(shard_count)``.

        Must be a pure function of (mac, shard_count) and the
        assignment state accumulated through the observe hooks — which
        only ever run during ingests — never of query order (see the
        module docstring for the one-time bind upgrade this allows).
        """

    def observe(self, events: Iterable[ConnectivityEvent]) -> None:
        """Feed routing-relevant events (default: routers are stateless).

        Assignment-learning routers (building affinity) bind first-seen
        devices here.  Implementations must keep already-assigned
        devices where they are.
        """

    def observe_table(self, table: EventTable,
                      macs: Iterable[str]) -> frozenset[str]:
        """Bind ``macs`` from their merged logs (default: stateless).

        The cluster calls this on *every* ingest path — including
        ``on_ingest``, which carries only a change report, no events —
        so devices are bound no matter which entry point their first
        events arrived through.  Binding reads each device's log in
        chronological order.

        Returns:
            The devices whose route may have changed (a superset is
            fine — the cluster's migration of a device that did not
            actually move is a no-op).  A component router may return
            devices *outside* ``macs``: a merge triggered by one
            device's new events can re-key a whole component.
        """
        return frozenset()

    def partition(self, items: Sequence[T], macs: Sequence[str],
                  shard_count: int) -> "list[list[T]]":
        """Split ``items`` (with parallel ``macs``) into per-shard lists.

        Order within each shard preserves input order — which is what
        keeps duplicate (mac, timestamp) queries short-circuiting
        through storage exactly as the single-system path does.
        """
        if len(items) != len(macs):
            raise ConfigurationError(
                f"items and macs must align, got {len(items)} vs "
                f"{len(macs)}")
        out: "list[list[T]]" = [[] for _ in range(shard_count)]
        for item, mac in zip(items, macs):
            out[self.shard_of(mac, shard_count)].append(item)
        return out


class HashRouter(ShardRouter):
    """Uniform device-hash routing (stable CRC32, no metadata needed)."""

    def shard_of(self, mac: str, shard_count: int) -> int:
        return stable_hash(mac) % shard_count

    def __repr__(self) -> str:
        return "HashRouter()"


class BuildingAffinityRouter(ShardRouter):
    """Route by the building a device was first observed in.

    Args:
        ap_buildings: AP id → building key (e.g. from
            :func:`repro.space.blueprints.campus_ap_buildings`).  APs
            absent from the map contribute nothing to assignment.
        fallback: Router consulted for devices with no building
            assignment (never observed, or only at unmapped APs).

    Buildings are mapped to shards round-robin over the sorted distinct
    building keys, so a 3-building campus on 4 shards uses 3 of them
    and a 6-building campus doubles buildings up deterministically.
    Assignments are *sticky*: commuter devices that later roam to other
    buildings keep their first shard, because moving them would strand
    trained models and stored answers.  Until a device is bound it
    serves from its fallback (hash) shard; the binding upgrade happens
    at most once, at its first mapped-AP observation during an ingest
    (see the module docstring for why this beats pinning the fallback).
    """

    def __init__(self, ap_buildings: Mapping[str, str],
                 fallback: "ShardRouter | None" = None) -> None:
        if not ap_buildings:
            raise ConfigurationError(
                "building-affinity routing needs at least one AP→building "
                "mapping")
        self._ap_buildings = dict(ap_buildings)
        self._building_index = {
            building: index for index, building in
            enumerate(sorted(set(self._ap_buildings.values())))}
        self._assigned: dict[str, int] = {}
        self._fallback = fallback if fallback is not None else HashRouter()

    @classmethod
    def from_table(cls, table: EventTable,
                   ap_buildings: Mapping[str, str],
                   fallback: "ShardRouter | None" = None
                   ) -> "BuildingAffinityRouter":
        """Bind every device already in ``table`` to its first-seen building.

        The scan is chronological per device (each log is sorted), so
        the assignment equals what observing the original stream would
        have produced.
        """
        router = cls(ap_buildings, fallback=fallback)
        router.observe_table(table, table.macs())
        return router

    def _assign(self, mac: str, ap_id: str) -> bool:
        """Bind ``mac`` to ``ap_id``'s building; True when now assigned."""
        if mac in self._assigned:
            return True
        building = self._ap_buildings.get(ap_id)
        if building is None:
            return False
        self._assigned[mac] = self._building_index[building]
        return True

    def observe(self, events: Iterable[ConnectivityEvent]) -> None:
        """Bind devices appearing in ``events`` to their first mapped AP."""
        for event in events:
            self._assign(event.mac, event.ap_id)

    def observe_table(self, table: EventTable,
                      macs: Iterable[str]) -> frozenset[str]:
        """Bind each unassigned device from its merged, sorted log.

        A full chronological scan per still-unassigned device: merges
        may insert late-arriving rows anywhere in the log, so a resume
        offset could skip a mapped AP.  The scan usually stops at the
        first event; only devices that never touch a mapped AP pay the
        full log length, and only while they stay unassigned.

        Returns the devices bound by *this* call — each just upgraded
        off its hash-fallback shard, so the cluster clears their
        answers from the fallback namespace (see the module docstring).
        """
        bound: set[str] = set()
        for mac in sorted(set(macs)):
            if mac in self._assigned or mac not in table.registry:
                continue
            log = table.log(mac)
            for position in range(len(log)):
                if self._assign(mac, log.ap_at(position)):
                    bound.add(mac)
                    break
        return frozenset(bound)

    def building_of(self, mac: str) -> "str | None":
        """The building key ``mac`` is bound to, or None (fallback route)."""
        index = self._assigned.get(mac)
        if index is None:
            return None
        for building, candidate in self._building_index.items():
            if candidate == index:
                return building
        return None

    def shard_of(self, mac: str, shard_count: int) -> int:
        index = self._assigned.get(mac)
        if index is None:
            return self._fallback.shard_of(mac, shard_count)
        return index % shard_count

    def __repr__(self) -> str:
        return (f"BuildingAffinityRouter({len(self._building_index)} "
                f"buildings, {len(self._assigned)} devices bound)")


#: Node tags of the router's bipartite device↔room union-find.  Devices
#: sort before rooms, so a component's minimum member is always a device
#: node and the routing representative is the smallest device MAC.
_DEVICE_TAG = "0:"
_ROOM_TAG = "1:"


class ComponentAffinityRouter(ShardRouter):
    """Route by connected component of the potential co-presence graph.

    Two devices can ever become fine-inference neighbors — and hence
    ever share a §5 affinity edge — only if the rooms covered by their
    observed APs' regions intersect.  This router maintains exactly
    that reachability as a bipartite device↔room union-find: observing
    a device at an AP unions the device with every room of the AP's
    region, so two devices share a component iff their room sets are
    connected (possibly transitively, through other devices).  Every
    device of a component routes to ``stable_hash(representative) %
    shard_count`` with the representative the component's smallest
    device MAC — a pure function of the component's member set,
    invariant to event order.

    Because the query path only ever touches affinity edges between a
    queried device and its neighbors, co-locating whole components
    makes each shard's cache **exact**: it performs the same edge reads
    and writes, in the same order, as a lone deployment (see
    :mod:`repro.cache.components`).  A singleton component hashes to
    the device's own MAC — identical to the :class:`HashRouter`
    fallback used before the device is first bound, so binding a
    loner never moves it.

    Components merge as logs grow; a merge re-keys the smaller-MAC
    side's devices, and :meth:`observe_table` reports every re-keyed
    device so the cluster can migrate its cache edges and clear its
    stale namespaced answers (see the module docstring).

    Args:
        building: The space model (a single building or merged campus);
            only its AP → region-rooms covering map is retained.
        fallback: Router for devices never observed at a known AP
            (default :class:`HashRouter` — keep it: the component
            route deliberately degenerates to the same hash).
    """

    def __init__(self, building: Building,
                 fallback: "ShardRouter | None" = None) -> None:
        self._rooms_of_ap: dict[str, frozenset[str]] = {
            region.ap_id: region.rooms for region in building.regions}
        if not self._rooms_of_ap:
            raise ConfigurationError(
                "component-affinity routing needs a building with at "
                "least one AP region")
        self._components = AffinityComponents()
        self._seen_aps: dict[str, set[str]] = {}
        self._fallback = fallback if fallback is not None else HashRouter()
        self._hash_fallback = isinstance(self._fallback, HashRouter)

    @classmethod
    def from_table(cls, table: EventTable, building: Building,
                   fallback: "ShardRouter | None" = None
                   ) -> "ComponentAffinityRouter":
        """Bind every device already in ``table`` to its component."""
        router = cls(building, fallback=fallback)
        router.observe_table(table, table.macs())
        return router

    # ------------------------------------------------------------------
    def observe(self, events: Iterable[ConnectivityEvent]) -> None:
        """Absorb routing-relevant events directly (no table needed)."""
        moved: set[str] = set()
        for event in events:
            self._absorb(event.mac, (event.ap_id,), moved)

    def observe_table(self, table: EventTable,
                      macs: Iterable[str]) -> frozenset[str]:
        """Union each changed device with its newly observed APs' rooms.

        Scans only the *distinct* APs of each device's log (a vectorized
        unique over its AP index column), skipping APs already
        absorbed, so repeated observation of a busy device costs one
        ``np.unique`` plus O(new APs) union work.

        Returns every device whose routing key changed: devices whose
        component merged into one with a smaller representative —
        including devices far outside ``macs`` — plus, under a
        non-hash fallback, devices bound for the first time.
        """
        moved: set[str] = set()
        for mac in sorted(set(macs)):
            if mac not in table.registry:
                continue
            log = table.log(mac)
            distinct = (log.resolve_ap(int(index))
                        for index in np.unique(log.ap_indices))
            self._absorb(mac, distinct, moved)
        return frozenset(moved)

    def _absorb(self, mac: str, ap_ids: Iterable[str],
                moved: "set[str]") -> None:
        """Union ``mac`` with the rooms of its not-yet-seen APs.

        Collects into ``moved`` the device MACs whose component
        representative changed: on every merge, the member devices of
        the side whose representative lost (the larger one).
        """
        seen = self._seen_aps.setdefault(mac, set())
        node = _DEVICE_TAG + mac
        was_bound = node in self._components
        for ap_id in ap_ids:
            if ap_id in seen:
                continue
            seen.add(ap_id)
            rooms = self._rooms_of_ap.get(ap_id)
            if rooms is None:
                continue
            self._components.add_node(node)
            for room in sorted(rooms):
                room_node = _ROOM_TAG + room
                self._components.add_node(room_node)
                rep_device = self._components.representative(node)
                rep_room = self._components.representative(room_node)
                if rep_device == rep_room:
                    continue
                loser = max(rep_device, rep_room)
                moved.update(
                    member[len(_DEVICE_TAG):]
                    for member in self._components.component(loser)
                    if member.startswith(_DEVICE_TAG))
                self._components.add_edge(node, room_node)
        if not was_bound and node in self._components \
                and not self._hash_fallback:
            # First binding flips the route off a non-hash fallback even
            # when the component hash alone would not move the device.
            moved.add(mac)

    # ------------------------------------------------------------------
    def representative(self, mac: str) -> "str | None":
        """The routing key of ``mac``'s component, or None (unbound)."""
        node = _DEVICE_TAG + mac
        if node not in self._components:
            return None
        return self._components.representative(node)[len(_DEVICE_TAG):]

    def component_of(self, mac: str) -> frozenset[str]:
        """The device MACs sharing ``mac``'s component (empty: unbound)."""
        node = _DEVICE_TAG + mac
        if node not in self._components:
            return frozenset()
        return frozenset(
            member[len(_DEVICE_TAG):]
            for member in self._components.component(node)
            if member.startswith(_DEVICE_TAG))

    def shard_of(self, mac: str, shard_count: int) -> int:
        representative = self.representative(mac)
        if representative is None:
            return self._fallback.shard_of(mac, shard_count)
        return stable_hash(representative) % shard_count

    def __repr__(self) -> str:
        return (f"ComponentAffinityRouter({len(self._seen_aps)} devices "
                f"observed, {self._components.component_count} components)")


def partition_events(events: Sequence[ConnectivityEvent],
                     router: ShardRouter,
                     shard_count: int) -> "list[list[ConnectivityEvent]]":
    """Split an event batch into per-shard sub-batches by owner device.

    The union of the partitions is the input batch exactly once — the
    split a cluster uses to persist each shard's slice of the dirty
    stream to its storage namespace without duplicating rows.
    """
    return router.partition(events, [e.mac for e in events], shard_count)

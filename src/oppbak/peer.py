"""Backup-peer replica store: admission, usefulness notices, eviction, merging.

A peer grants the backup service a fixed byte quota. Incoming fragments
are admitted only into space left free by the last purge of replicas
that expired or were flagged useless. Under pressure, live
replicas are scored and deleted oldest/over-provisioned/bulkiest first,
but never while a replica is pinned (an old version still protecting a
newer one that has not reached the server). Union-mergeable append logs
from one logical stream can be squashed into a single replica to free
space without losing entries.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional

from .dispersal import HEADER_SIZE, chunk_size
from .model import Fragment, UsageError, VersionKey, merged_lifetime, reachable

ReplicaKey = tuple[str, str, int, int]  # (owner, item id, version, fragment index)


class ReplicaState(Enum):
    LIVE = "live"
    CONFIRMED_SAVED = "confirmed_saved"
    OUTDATED = "outdated"


class NoticeSource(Enum):
    SAVE_BY_ME = "save_by_me"
    OWNER_NOTICE = "owner_notice"
    SERVER_NOTICE = "server_notice"


class EvictionShortfall(RuntimeError):
    """A sweep could not free the requested bytes; only pinned data remains."""

    def __init__(self, needed: int, freed: int, deleted: list[ReplicaKey]) -> None:
        super().__init__(f"freed {freed} of {needed} needed bytes")
        self.needed = needed
        self.freed = freed
        self.deleted = deleted


@dataclass(frozen=True)
class ReplicaMetadata:
    """Owner-declared facts accompanying a saved fragment."""

    owner: str
    priority: float
    declared_success: float
    lifetime: Optional[float] = None
    temporal_deps: tuple[VersionKey, ...] = ()
    mergeable: bool = False
    stream: Optional[str] = None


@dataclass
class Replica:
    """One held fragment, the owner's metadata for it, and its lifecycle state."""

    fragment: Fragment
    meta: ReplicaMetadata
    received_at: float
    state: ReplicaState = ReplicaState.LIVE
    sources: frozenset[tuple[str, str, int]] = frozenset()

    @property
    def key(self) -> ReplicaKey:
        f = self.fragment
        return (self.meta.owner, f.item_id, f.version, f.index)

    @property
    def version_key(self) -> VersionKey:
        return (self.fragment.item_id, self.fragment.version)

    @property
    def size_bytes(self) -> int:
        return _stored_size(self.fragment)

    def expired(self, now: float) -> bool:
        return self.meta.lifetime is not None and now >= self.meta.lifetime


def _stored_size(f: Fragment) -> int:
    if f.payload is not None:
        return HEADER_SIZE + len(f.payload)
    return HEADER_SIZE + chunk_size(f.original_size, f.k)


PinCheck = Callable[[str, int], bool]
DeleteHook = Callable[[Replica, str], None]


class ReplicaStore:
    """Replica set of one backup terminal, with exact byte accounting.

    `pin_check(item_id, version)` answers whether an old version must be
    retained; by default nothing is pinned. `on_delete(replica, reason)`
    fires for every removal so callers can mirror placement state.

    Besides the replicas, the store keeps four indexes up to date on
    every insertion and deletion: a heap of (lifetime, key) for expiry,
    the set of keys no longer live, the keys held per item id, and per
    owner the number of replicas held per item id. A purge therefore
    costs O(due + non-live) rather than a sort of the whole store, and
    nothing when nothing is due or non-live; a notice touches only the
    named item's replicas; and an owner's items are listed without
    visiting anyone else's. A replica's `state` changes only through
    `notify`, and its frozen `meta` not at all, while it is held.
    """

    def __init__(
        self,
        terminal_id: str,
        quota_bytes: int,
        *,
        w_age: float = 1.0,
        w_res: float = 1.0,
        w_size: float = 1.0,
        per_owner_cap: float = 1.0,
        pin_check: Optional[PinCheck] = None,
        on_delete: Optional[DeleteHook] = None,
    ) -> None:
        if quota_bytes < 0:
            raise UsageError(f"quota must be >= 0, got {quota_bytes}")
        if not 0.0 < per_owner_cap <= 1.0:
            raise UsageError(f"per-owner cap must be in (0, 1], got {per_owner_cap}")
        self.terminal_id = terminal_id
        self.quota_bytes = quota_bytes
        self.w_age = w_age
        self.w_res = w_res
        self.w_size = w_size
        self.per_owner_cap = per_owner_cap
        self._pin_check = pin_check or (lambda item_id, version: False)
        self._on_delete = on_delete
        self._replicas: dict[ReplicaKey, Replica] = {}
        self._expiry: list[tuple[float, ReplicaKey]] = []  # may hold stale entries
        self._not_live: set[ReplicaKey] = set()
        self._by_item: dict[str, set[ReplicaKey]] = {}
        self._by_owner: dict[str, dict[str, int]] = {}  # owner -> {item id: replicas}
        self._used = 0
        self._used_by_owner: dict[str, int] = {}
        self._merge_counter = 0

    # -- accounting -----------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used

    def used_bytes_of(self, owner: str) -> int:
        return self._used_by_owner.get(owner, 0)

    def free_bytes(self, now: float) -> int:
        """Advertised admission space: quota minus usage after a purge.

        Costs one purge, so O(due + non-live) at the current time, and
        nothing when nothing is due or non-live.
        """
        self.purge(now)
        return self.quota_bytes - self._used

    def __len__(self) -> int:
        return len(self._replicas)

    def __contains__(self, key: ReplicaKey) -> bool:
        return key in self._replicas

    def get(self, key: ReplicaKey) -> Replica:
        return self._replicas[key]

    def replicas(self) -> list[Replica]:
        return [self._replicas[k] for k in sorted(self._replicas)]

    def item_ids(self) -> list[str]:
        """Ids of the items held, sorted: a sort of the items, not of the store."""
        return sorted(self._by_item)

    def item_ids_of(self, owner: str) -> list[str]:
        """Ids of the items held for one owner, sorted: a sort of that owner's items only."""
        return sorted(self._by_owner.get(owner, ()))

    def keys_of(self, item_id: str) -> frozenset[ReplicaKey]:
        """Keys of the replicas held for one item."""
        return frozenset(self._by_item.get(item_id, ()))

    def _pinned(self, replica: Replica) -> bool:
        return self._pin_check(replica.fragment.item_id, replica.fragment.version)

    def _delete(self, key: ReplicaKey, reason: str) -> None:
        replica = self._replicas.pop(key)
        self._not_live.discard(key)
        owner, item_id = key[0], key[1]
        same_item = self._by_item[item_id]
        same_item.discard(key)
        if not same_item:
            del self._by_item[item_id]
        owner_items = self._by_owner[owner]
        remaining = owner_items.pop(item_id) - 1
        if remaining:
            owner_items[item_id] = remaining
        elif not owner_items:
            del self._by_owner[owner]
        size = replica.size_bytes
        self._used -= size
        owner_used = self._used_by_owner[owner] - size
        if owner_used:
            self._used_by_owner[owner] = owner_used
        else:
            del self._used_by_owner[owner]
        if self._on_delete is not None:
            self._on_delete(replica, reason)

    def _insert(self, replica: Replica) -> None:
        key = replica.key
        self._replicas[key] = replica
        if replica.meta.lifetime is not None:
            heapq.heappush(self._expiry, (replica.meta.lifetime, key))
        if replica.state is not ReplicaState.LIVE:
            self._not_live.add(key)
        owner, item_id = key[0], key[1]
        self._by_item.setdefault(item_id, set()).add(key)
        owner_items = self._by_owner.setdefault(owner, {})
        owner_items[item_id] = owner_items.get(item_id, 0) + 1
        size = replica.size_bytes
        self._used += size
        self._used_by_owner[owner] = self._used_by_owner.get(owner, 0) + size

    # -- lifecycle ------------------------------------------------------

    def purge(self, now: float) -> list[ReplicaKey]:
        """Delete expired replicas and unpinned useless ones. Idempotent.

        Deletions happen in key order, and a replica both expired and
        useless goes as expired; pinned useless replicas stay. Only the
        replicas due to expire by `now` and those no longer live are
        looked at, so the cost is O(due + non-live), not O(store), and
        nothing when nothing is due or non-live.
        """
        expiry = self._expiry
        if not self._not_live and not (expiry and expiry[0][0] <= now):
            return []
        due: set[ReplicaKey] = set()
        while expiry and expiry[0][0] <= now:
            lifetime, key = heapq.heappop(expiry)
            replica = self._replicas.get(key)
            if replica is not None and replica.meta.lifetime == lifetime:
                due.add(key)
        deleted: list[ReplicaKey] = []
        for key in sorted(due | self._not_live):
            if key in due:
                self._delete(key, "expired")
            elif self._pinned(self._replicas[key]):
                continue
            else:
                self._delete(key, "useless")
            deleted.append(key)
        return deleted

    def accept(self, fragment: Fragment, meta: ReplicaMetadata, now: float) -> bool:
        """Admit a fragment if free space allows; never displaces live data.

        Admission uses the space left by the last purge: it does not purge
        itself, so callers read `free_bytes(now)` first, as the save loop
        does. Duplicates of an already-held (owner, item, version, index)
        are rejected, as are fragments that would push the owner past its
        fairness cap or the store past its quota.
        """
        owner = meta.owner
        if (owner, fragment.item_id, fragment.version, fragment.index) in self._replicas:
            return False
        size = _stored_size(fragment)
        if self._used + size > self.quota_bytes:
            return False
        owner_cap = int(self.per_owner_cap * self.quota_bytes)
        if self._used_by_owner.get(owner, 0) + size > owner_cap:
            return False
        self._insert(Replica(
            fragment=fragment,
            meta=meta,
            received_at=now,
            sources=frozenset({(owner, fragment.item_id, fragment.version)}),
        ))
        return True

    def notify(self, source: NoticeSource, item_id: str, version: int) -> int:
        """Apply a usefulness notice; returns how many replicas changed state.

        Server-side saves (whether uploaded by this terminal or reported
        by the server) confirm every held replica of the item up to and
        including the named version. An owner notice names the owner's
        new current version and outdates everything strictly older.
        Notices for unheld items are silently ignored, and a replica
        leaves the live state at most once. Only the named item's
        replicas are visited.
        """
        owner_notice = source is NoticeSource.OWNER_NOTICE
        new_state = ReplicaState.OUTDATED if owner_notice else ReplicaState.CONFIRMED_SAVED
        changed = 0
        for key in self._by_item.get(item_id, ()):
            replica = self._replicas[key]
            if replica.state is not ReplicaState.LIVE:
                continue
            held = key[2]
            if held < version or (held == version and not owner_notice):
                replica.state = new_state
                self._not_live.add(key)
                changed += 1
        return changed

    # -- eviction ---------------------------------------------------------

    def _dependency_bulk(self, targets: list[Replica]) -> list[int]:
        """Bytes of co-held same-owner replicas transitively depending on each target.

        Edges and sizes per (owner, version) are built once for all targets.
        """
        edges: dict[tuple[str, VersionKey], set[tuple[str, VersionKey]]] = {}
        sizes: dict[tuple[str, VersionKey], int] = {}
        for replica in self._replicas.values():
            node = (replica.meta.owner, replica.version_key)
            sizes[node] = sizes.get(node, 0) + replica.size_bytes
            for dep in replica.meta.temporal_deps:
                edges.setdefault((node[0], dep), set()).add(node)
        bulk: dict[tuple[str, VersionKey], int] = {}
        for node in {(r.meta.owner, r.version_key) for r in targets}:
            dependents = reachable(edges.get(node, ()), lambda n: edges.get(n, ()))
            bulk[node] = sum(sizes[d] for d in dependents)
        return [bulk[(r.meta.owner, r.version_key)] for r in targets]

    def evict(self, needed_bytes: int, now: float) -> list[ReplicaKey]:
        """Free at least `needed_bytes`, cheapest casualties first.

        Purges first; live replicas then go in order of a weighted score
        of normalized age, resilience overshoot above declared priority,
        and normalized size including dependent bulk, grouping equal
        scores by owner. Pinned replicas are untouchable; if the sweep
        still falls short, the partial deletions stand and
        `EvictionShortfall` is raised.
        """
        if needed_bytes <= 0:
            raise UsageError(f"needed_bytes must be > 0, got {needed_bytes}")
        deleted = self.purge(now)
        free = self.quota_bytes - self._used
        if free >= needed_bytes:
            return deleted
        candidates = [
            r for r in self.replicas()
            if r.state is ReplicaState.LIVE and not self._pinned(r)
        ]
        ages = [now - r.received_at for r in candidates]
        bulks = [r.size_bytes + b for r, b in zip(candidates, self._dependency_bulk(candidates))]
        scored = []
        for replica, age, bulk in zip(candidates, ages, bulks):
            score = (
                self.w_age * _minmax(age, ages)
                + self.w_res * max(0.0, replica.meta.declared_success - replica.meta.priority)
                + self.w_size * _minmax(bulk, bulks)
            )
            scored.append((-score, replica.meta.owner, replica.key))
        for _, _, key in sorted(scored):
            if key not in self._replicas:
                continue
            self._delete(key, "evicted")
            deleted.append(key)
            free = self.quota_bytes - self._used
            if free >= needed_bytes:
                return deleted
        raise EvictionShortfall(needed_bytes, free, deleted)

    # -- merging ------------------------------------------------------------

    def merge(self, keys: Iterable[ReplicaKey], now: float) -> ReplicaKey:
        """Squash same-stream mergeable whole-copy replicas into one.

        The merged payload is the deduplicated union of the inputs'
        newline-separated entries; a single input is returned untouched.
        """
        key_list = list(keys)
        if not key_list:
            raise UsageError("merge needs at least one replica")
        replicas = []
        for key in key_list:
            if key not in self._replicas:
                raise UsageError(f"replica {key} is not held")
            replicas.append(self._replicas[key])
        if len(replicas) == 1:
            return replicas[0].key
        for replica in replicas:
            f = replica.fragment
            if not replica.meta.mergeable:
                raise UsageError(f"replica {replica.key} is not mergeable")
            if f.n != 1 or f.k != 1:
                raise UsageError(f"replica {replica.key} is fragmented, not a whole copy")
            if f.payload is None:
                raise UsageError(f"replica {replica.key} carries no payload to merge")
        streams = {r.meta.stream for r in replicas}
        if len(streams) != 1 or None in streams:
            raise UsageError(f"replicas belong to different streams: {sorted(map(str, streams))}")
        entries: set[bytes] = set()
        for replica in replicas:
            entries.update(e for e in replica.fragment.payload.split(b"\n") if e)
        payload = b"\n".join(sorted(entries))
        self._merge_counter += 1
        merged_fragment = Fragment(
            item_id=f"merged-{self.terminal_id}-{self._merge_counter}",
            version=max(r.fragment.version for r in replicas),
            index=0,
            n=1,
            k=1,
            original_size=len(payload),
            payload=payload,
        )
        merged = Replica(
            fragment=merged_fragment,
            meta=ReplicaMetadata(
                owner=min(r.meta.owner for r in replicas),
                priority=max(r.meta.priority for r in replicas),
                declared_success=max(r.meta.declared_success for r in replicas),
                lifetime=merged_lifetime(r.meta.lifetime for r in replicas),
                temporal_deps=tuple(sorted({d for r in replicas for d in r.meta.temporal_deps})),
                mergeable=True,
                stream=streams.pop(),
            ),
            received_at=min(r.received_at for r in replicas),
            sources=frozenset().union(*(r.sources for r in replicas)),
        )
        for replica in replicas:
            self._delete(replica.key, "merged")
        self._insert(merged)
        return merged.key

    # -- queries -------------------------------------------------------------

    def restore_query(self, item_id: str) -> dict[int, set[int]]:
        """Inventory of held fragment indices per version of one item."""
        inventory: dict[int, set[int]] = {}
        for replica in self._replicas.values():
            f = replica.fragment
            if f.item_id == item_id:
                inventory.setdefault(f.version, set()).add(f.index)
            else:
                for _, src_id, src_version in replica.sources:
                    if src_id == item_id:
                        inventory.setdefault(src_version, set()).add(f.index)
        return inventory

    def recomputed_used_bytes(self) -> int:
        """Ground-truth sum for accounting checks."""
        return sum(r.size_bytes for r in self._replicas.values())


def _minmax(value: float, population: list) -> float:
    lo, hi = min(population), max(population)
    if hi == lo:
        return 0.0
    return (value - lo) / (hi - lo)


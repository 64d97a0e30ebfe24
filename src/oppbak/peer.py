"""Backup-peer replica store: admission, usefulness notices, eviction, and
reads of one ascending key list: the whole store, one owner's run of it,
or the run of one owner's item that a notice names.

A peer grants the backup service a fixed byte quota, shared among owners:
a fragment is admitted only into the space left free by the last purge of
replicas that expired or were flagged useless. Under pressure, live replicas
go in order of one unweighted score: oldest/over-provisioned/largest first,
but never while a replica is pinned (an old version still protecting a
newer one that has not reached the server). A replica is held under its
owner, item id, version and fragment index as sent, and keeps its owner's
`DataItem`, the description an owner sends with every fragment.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Callable, Optional

from .dispersal import chunk_size, fragment_wire_size
from .model import DataItem, Fragment, UsageError

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


@dataclass(slots=True)
class Replica:
    """One held fragment, its owner's `DataItem` as saved, and its lifecycle state.

    `declared_success`: the restore probability the owner declared with it.
    `fate`: can the owner reach this holder to restore it? A simulator draws
    it at the save; None (never drawn) reads as unreachable.
    """

    fragment: Fragment
    item: DataItem
    declared_success: float
    received_at: float
    size_bytes: int  # the fragment's `fragment_wire_size`, computed once at admission
    state: ReplicaState = ReplicaState.LIVE
    fate: Optional[bool] = None

    @property
    def key(self) -> ReplicaKey:
        f = self.fragment
        return (self.item.owner, f.item_id, f.version, f.index)

    def expired(self, now: float) -> bool:
        return self.item.expired(now)


PinCheck = Callable[[str, int], bool]
DeleteHook = Callable[[Replica, str], None]


class ReplicaStore:
    """Replica set of one terminal: exact byte accounting, admission into the
    free space, unweighted eviction.

    `pin_check(item_id, version)` answers whether an old version must be
    retained; by default nothing is pinned. `on_delete(replica, reason)`
    fires for every removal so callers can follow occupancy and log it.

    Besides the replicas, the store keeps three indexes up to date on
    every insertion and deletion: every held key in one ascending list, a
    heap of (lifetime, key) for expiry, and the set of keys no longer
    live. A purge therefore costs O(due + non-live) rather than a sort of
    the whole store; and `replicas()`, `replicas_of`, `held_items` and
    `notify` read the key list, whole or the run of one owner or of one
    owner's item, without sorting.
    A replica's `state` changes only through `notify`, and its frozen
    `item` not at all, while it is held: a raised priority in the owner's
    index replaces the index's `DataItem` and leaves the replica's as saved.
    """

    def __init__(
        self,
        terminal_id: str,
        quota_bytes: int,
        *,
        pin_check: Optional[PinCheck] = None,
        on_delete: Optional[DeleteHook] = None,
    ) -> None:
        if quota_bytes < 0:
            raise UsageError(f"quota must be >= 0, got {quota_bytes}")
        self.terminal_id = terminal_id
        self.quota_bytes = quota_bytes
        self._pin_check = pin_check or (lambda item_id, version: False)
        self._on_delete = on_delete
        self._replicas: dict[ReplicaKey, Replica] = {}
        self._keys: list[ReplicaKey] = []  # every held key, ascending
        self._expiry: list[tuple[float, ReplicaKey]] = []  # may hold stale entries
        self._not_live: set[ReplicaKey] = set()
        self._used = 0

    # -- accounting -----------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used

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
        return [self._replicas[k] for k in self._keys]

    def held_items(self) -> list[tuple[str, str]]:
        """(owner, item id) of each item held, in key order: one pass, no sort."""
        return list(dict.fromkeys(key[:2] for key in self._keys))

    def replicas_of(self, owner: str) -> list[Replica]:
        """The replicas held for one owner, in key order: the owner's run of
        the key list, found by bisection, so only its replicas are visited."""
        found = []
        for key in islice(self._keys, bisect_left(self._keys, (owner,)), None):
            if key[0] != owner:
                break
            found.append(self._replicas[key])
        return found

    def _pinned(self, replica: Replica) -> bool:
        return self._pin_check(replica.fragment.item_id, replica.fragment.version)

    def _delete(self, key: ReplicaKey, reason: str) -> None:
        replica = self._replicas.pop(key)
        del self._keys[bisect_left(self._keys, key)]
        self._not_live.discard(key)
        self._used -= replica.size_bytes
        if self._on_delete is not None:
            self._on_delete(replica, reason)

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
            if replica is not None and replica.item.lifetime == lifetime:
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

    def accept(
        self, fragment: Fragment, item: DataItem, declared_success: float, now: float
    ) -> Optional[Replica]:
        """Admit a fragment if it fits the free space; never displaces live data.

        Returns the stored replica, or None if the fragment is a duplicate
        of an already-held (owner, item, version, index) or is larger than
        the free space, the one admission rule. Admission uses the space
        left by the last purge: it does not purge itself, so callers read
        `free_bytes(now)` first, as the save loop does. A fragment is charged
        its `fragment_wire_size`. It must match `item`'s key, n, k and size,
        and a payload must be one chunk long: else UsageError.
        """
        plan = (fragment.key, fragment.n, fragment.k, fragment.original_size)
        if plan != (item.key, item.n, item.k, item.size_bytes):
            raise UsageError(f"fragment (key, n, k, size) {plan} is not one of {item}")
        chunk = chunk_size(fragment.original_size, fragment.k)
        if fragment.payload is not None and len(fragment.payload) != chunk:
            raise UsageError(f"payload of {len(fragment.payload)} B, chunk size is {chunk}")
        key = (item.owner, fragment.item_id, fragment.version, fragment.index)
        if key in self._replicas:
            return None
        size = fragment_wire_size(fragment.original_size, fragment.k)
        if size > self.quota_bytes - self._used:
            return None
        replica = Replica(fragment, item, declared_success, received_at=now, size_bytes=size)
        self._replicas[key] = replica
        insort(self._keys, key)
        if item.lifetime is not None:
            heapq.heappush(self._expiry, (item.lifetime, key))
        self._used += size
        return replica

    def notify(self, source: NoticeSource, owner: str, item_id: str, version: int) -> int:
        """Apply a usefulness notice about one owner's item; returns how many
        replicas changed state.

        Server-side saves (whether uploaded by this terminal or reported
        by the server) confirm every held replica of the owner's item up
        to and including the named version. An owner notice names the
        owner's new current version and outdates everything strictly
        older. Another owner's replicas of the same item id are left as
        they are, notices for unheld items are silently ignored, and a
        replica leaves the live state at most once. Only the item's run
        of the key list, found by bisection, is visited.
        """
        owner_notice = source is NoticeSource.OWNER_NOTICE
        new_state = ReplicaState.OUTDATED if owner_notice else ReplicaState.CONFIRMED_SAVED
        changed = 0
        for key in islice(self._keys, bisect_left(self._keys, (owner, item_id)), None):
            if key[0] != owner or key[1] != item_id:
                break
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

    def evict(self, needed_bytes: int, now: float) -> list[ReplicaKey]:
        """Free at least `needed_bytes`, cheapest casualties first.

        Purges first; live replicas then go in order of the plain sum of
        normalized age, resilience overshoot above declared priority, and
        normalized size, grouping equal scores by owner. Dependencies are
        the pin check's: a pinned replica is untouchable, and no other
        term reads them. If the sweep still falls short, the partial
        deletions stand and `EvictionShortfall` is raised.
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
        ages = _minmax([now - r.received_at for r in candidates])
        sizes = _minmax([r.size_bytes for r in candidates])
        scored = []
        for replica, age, size in zip(candidates, ages, sizes):
            score = age + max(0.0, replica.declared_success - replica.item.priority) + size
            scored.append((-score, replica.item.owner, replica.key))
        for _, _, key in sorted(scored):
            if key not in self._replicas:
                continue
            self._delete(key, "evicted")
            deleted.append(key)
            free = self.quota_bytes - self._used
            if free >= needed_bytes:
                return deleted
        raise EvictionShortfall(needed_bytes, free, deleted)

    # -- queries -------------------------------------------------------------

    def recomputed_used_bytes(self) -> int:
        """Ground-truth sum for accounting checks, from the fragments themselves."""
        return sum(fragment_wire_size(r.fragment.original_size, r.fragment.k)
                   for r in self._replicas.values())


def _minmax(values: list) -> list[float]:
    """Each value scaled to [0, 1] by the list's min and max; all 0.0 if they are equal."""
    lo, hi = min(values, default=0), max(values, default=0)
    return [0.0 if hi == lo else (v - lo) / (hi - lo) for v in values]


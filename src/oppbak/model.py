"""Data items, fragments, and the version/dependency graph.

Every other layer builds on the types here: an owner's data is a set of
versioned items connected by temporal dependency edges, each version is
backed up on its own under an (n, k) fragmentation plan, and a
``VersionIndex`` tracks which versions have reached the server, which
answers pinning. The index owns every dependency closure: a version's
closure, fixed when it registers, is the union of its dependencies'
stored closures, and every later question (closures, dependents,
pinning) reads what it stored; nothing walks the graph.
Which peers hold a version is the peers' own record; a conflict check is
handed it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping, Optional

VersionKey = tuple[str, int]


class UsageError(ValueError):
    """The caller violated an operation's contract."""


class IntegrityError(RuntimeError):
    """Cross-referenced state is inconsistent (dangling or missing data)."""


class UnknownItemError(KeyError):
    """Lookup of an item id or version that was never registered."""


@dataclass(frozen=True, slots=True)
class DataItem:
    """One version of one unit of user data, as its owner describes it to peers.

    ``priority`` is the owner's target restore probability in [0, 1].
    ``lifetime`` is the time at which the version expires; None never does.
    ``temporal_deps`` lists (item id, version) pairs this version is
    useless without; the referenced versions must predate this one.
    ``key``, built once, is the (id, version) tuple that every map of
    versions shares.
    """

    id: str
    owner: str
    size_bytes: int
    priority: float
    n: int = 1
    k: int = 1
    version: int = 1
    lifetime: Optional[float] = None
    temporal_deps: tuple[VersionKey, ...] = ()
    key: VersionKey = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise UsageError(f"size_bytes must be >= 0, got {self.size_bytes}")
        if not 0.0 <= self.priority <= 1.0:
            raise UsageError(f"priority must be in [0, 1], got {self.priority}")
        if not 1 <= self.k <= self.n:
            raise UsageError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.version < 1:
            raise UsageError(f"version must be >= 1, got {self.version}")
        object.__setattr__(self, "key", (self.id, self.version))

    def expired(self, now: float) -> bool:
        return self.lifetime is not None and now >= self.lifetime


@dataclass(frozen=True, slots=True)
class Fragment:
    """One of n coded pieces of an item version.

    ``payload`` is None when running in metadata mode (sizes are tracked
    but no bytes are materialized).
    """

    item_id: str
    version: int
    index: int
    n: int
    k: int
    original_size: int
    payload: Optional[bytes] = None

    def __post_init__(self) -> None:
        if not 0 <= self.index < self.n:
            raise UsageError(f"fragment index {self.index} outside 0..{self.n - 1}")
        if not 1 <= self.k <= self.n:
            raise UsageError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")

    @property
    def key(self) -> VersionKey:
        return (self.item_id, self.version)


class Location(Enum):
    SERVER = "server"
    PEER = "peer"


@dataclass(frozen=True)
class VersionRecord:
    """Snapshot of where one version currently lives: the server, and the peers holding it."""

    item_id: str
    version: int
    on_server: bool
    holders: tuple[str, ...]


@dataclass(frozen=True)
class ConflictReport:
    """A restore picked one version while a strictly newer one sits elsewhere."""

    item_id: str
    restored_version: int
    restored_from: Location
    newer_version: int
    newer_location: Location
    newer_peers: tuple[str, ...] = ()


class VersionIndex:
    """Single-writer registry of item versions, dependencies, and server placement.

    Registration order doubles as creation order: a version may only
    depend on versions that are already present, which keeps the
    dependency graph acyclic by construction, and fixes each version's
    closure: `register` stores the union of its dependencies' closures.
    """

    def __init__(self) -> None:
        self._items: dict[VersionKey, DataItem] = {}
        # a version with dependencies -> itself and all it depends on, sorted
        self._closures: dict[VersionKey, tuple[VersionKey, ...]] = {}
        # a version something depends on -> every version depending on it, directly or not
        self._dependents: dict[VersionKey, set[VersionKey]] = {}
        self._versions: dict[str, list[int]] = {}  # ascending, per item id
        self._on_server: set[VersionKey] = set()

    # -- registration and lookup -------------------------------------

    def register(self, item: DataItem) -> None:
        key = item.key
        if key in self._items:
            raise UsageError(f"version {key} already registered")
        versions = self._versions.get(item.id)
        if versions and item.version <= versions[-1]:
            raise UsageError(
                f"version {item.version} of {item.id!r} does not increase on {versions[-1]}"
            )
        ancestors: set[VersionKey] = set()
        for dep in item.temporal_deps:
            if dep not in self._items:
                raise IntegrityError(f"dependency {dep} of {key} is not registered")
            ancestors.update(self._closures.get(dep, (dep,)))
        self._items[key] = item
        self._versions.setdefault(item.id, []).append(item.version)
        if ancestors:
            self._closures[key] = tuple(sorted(ancestors | {key}))
            for ancestor in ancestors:
                self._dependents.setdefault(ancestor, set()).add(key)

    def get(self, key: VersionKey) -> DataItem:
        try:
            return self._items[key]
        except KeyError:
            raise UnknownItemError(f"unknown item version {key}") from None

    def __contains__(self, key: VersionKey) -> bool:
        return key in self._items

    def __len__(self) -> int:
        return len(self._items)

    def keys(self) -> Iterable[VersionKey]:
        return self._items.keys()

    def _versions_of(self, item_id: str) -> list[int]:
        try:
            return self._versions[item_id]
        except KeyError:
            raise UnknownItemError(f"unknown item id {item_id!r}") from None

    def latest_version(self, item_id: str) -> int:
        return self._versions_of(item_id)[-1]

    def versions_of(self, item_id: str) -> list[int]:
        return list(self._versions_of(item_id))

    def latest_on_server(self, item_id: str) -> Optional[int]:
        """Newest version of an item that has reached the server; None if none has."""
        versions = reversed(self._versions.get(item_id, ()))
        return next((v for v in versions if (item_id, v) in self._on_server), None)

    def set_priority(self, key: VersionKey, priority: float) -> None:
        self._items[key] = replace(self.get(key), priority=priority)

    # -- placement ----------------------------------------------------

    def mark_on_server(self, key: VersionKey) -> None:
        self.get(key)
        self._on_server.add(key)

    def is_on_server(self, key: VersionKey) -> bool:
        return key in self._on_server

    # -- dependency queries --------------------------------------------

    def closure_of(self, key: VersionKey) -> tuple[VersionKey, ...]:
        """`key` and every version it depends on, sorted; stored at `register`."""
        closure = self._closures.get(key)
        if closure is None:
            self.get(key)
            closure = (key,)
        return closure

    def dependency_closure(self, roots: Iterable[VersionKey]) -> set[VersionKey]:
        """`roots` and every version they depend on; an unregistered one raises IntegrityError."""
        closure: set[VersionKey] = set()
        for root in roots:
            if root not in self._items:
                raise IntegrityError(f"dependency {root} is not registered")
            closure.update(self._closures.get(root, (root,)))
        return closure

    def transitive_deps(self, key: VersionKey) -> set[VersionKey]:
        return set(self.closure_of(key)).difference((key,))

    def has_dependents(self, key: VersionKey) -> bool:
        """True if some registered version depends on `key`."""
        return key in self._dependents

    def transitive_dependents(self, key: VersionKey) -> set[VersionKey]:
        """Every version that depends on `key`, directly or not."""
        return set(self._dependents.get(key, ()))

    def pinned(self, key: VersionKey) -> bool:
        """True while some dependent newer version is not yet on the server.

        A version that has itself reached the server is never pinned:
        its replicas no longer protect anything.
        """
        self.get(key)
        if key in self._on_server:
            return False
        return not self._on_server.issuperset(self._dependents.get(key, ()))

    def records_for(
        self, item_id: str, holders: Mapping[VersionKey, Iterable[str]]
    ) -> list[VersionRecord]:
        """Every version of an item, oldest first; `holders` names each one's peers."""
        return [
            VersionRecord(item_id, v, (item_id, v) in self._on_server,
                          tuple(holders.get((item_id, v), ())))
            for v in self.versions_of(item_id)
        ]


def propagate_priority(
    index: VersionIndex, new_item: DataItem
) -> dict[VersionKey, float]:
    """Raise every transitive dependency to at least the new item's priority.

    Returns the versions whose priority actually changed, with their new
    value. Applying the operation twice is a no-op.
    """
    raised: dict[VersionKey, float] = {}
    for dep in sorted(index.dependency_closure(new_item.temporal_deps)):
        current = index.get(dep).priority
        if new_item.priority > current:
            index.set_priority(dep, new_item.priority)
            raised[dep] = new_item.priority
    return raised


def detect_conflict(
    records: Iterable[VersionRecord],
    restored_from: Location,
    current_version: int,
) -> Optional[ConflictReport]:
    """Check a completed restore against the global placement picture.

    A conflict exists when a strictly newer version than the one restored
    sits at the opposite location kind (restored from the server while a
    newer version is held by a peer, or the reverse). Detection only; the
    report names both versions.
    """
    recs = list(records)
    if not recs:
        raise UnknownItemError("no version records supplied")
    item_ids = {r.item_id for r in recs}
    if len(item_ids) != 1:
        raise UsageError(f"records span multiple item ids: {sorted(item_ids)}")
    newer = [r for r in recs if r.version > current_version]
    if restored_from is Location.SERVER:
        hits = [r for r in newer if r.holders]
        where = Location.PEER
    else:
        hits = [r for r in newer if r.on_server]
        where = Location.SERVER
    if not hits:
        return None
    top = max(hits, key=lambda r: r.version)
    return ConflictReport(
        item_id=top.item_id,
        restored_version=current_version,
        restored_from=restored_from,
        newer_version=top.version,
        newer_location=where,
        newer_peers=tuple(sorted(top.holders)),
    )

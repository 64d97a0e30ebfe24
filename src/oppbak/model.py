"""Data items, fragments, and the version/dependency graph.

Every other layer builds on the types here: an owner's data is a set of
versioned items connected by temporal dependency edges, each item carries
an (n, k) fragmentation plan, and a ``VersionIndex`` tracks where every
version currently lives (peers, server) so that pinning and conflict
checks can be answered from one place.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Hashable, Iterable, Mapping, Optional, TypeVar

VersionKey = tuple[str, int]
Node = TypeVar("Node", bound=Hashable)


class UsageError(ValueError):
    """The caller violated an operation's contract."""


class IntegrityError(RuntimeError):
    """Cross-referenced state is inconsistent (dangling or missing data)."""


class UnknownItemError(KeyError):
    """Lookup of an item id or version that was never registered."""


class Production(Enum):
    CREATE_ONLY = "create_only"
    READ_WRITE = "read_write"
    APPEND_ONLY = "append_only"


@dataclass(frozen=True)
class DataItem:
    """One version of one unit of user data.

    ``priority`` is the owner's target restore probability in [0, 1].
    ``temporal_deps`` lists (item id, version) pairs this version is
    useless without; the referenced versions must predate this one.
    ``stream`` tags union-mergeable append logs so stores can merge
    replicas that belong to the same logical sequence.
    """

    id: str
    owner: str
    size_bytes: int
    priority: float
    n: int = 1
    k: int = 1
    version: int = 1
    production: Production = Production.CREATE_ONLY
    lifetime: Optional[float] = None
    temporal_deps: tuple[VersionKey, ...] = ()
    mergeable: bool = False
    stream: Optional[str] = None

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise UsageError(f"size_bytes must be >= 0, got {self.size_bytes}")
        if not 0.0 <= self.priority <= 1.0:
            raise UsageError(f"priority must be in [0, 1], got {self.priority}")
        if not 1 <= self.k <= self.n:
            raise UsageError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.version < 1:
            raise UsageError(f"version must be >= 1, got {self.version}")

    @property
    def key(self) -> VersionKey:
        return (self.id, self.version)

    def expired(self, now: float) -> bool:
        return self.lifetime is not None and now >= self.lifetime


@dataclass(frozen=True)
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
    """Snapshot of where one version currently lives."""

    item_id: str
    version: int
    on_server: bool
    peer_holdings: Mapping[str, frozenset[int]]


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
    """Single-writer registry of item versions, dependencies, and placement.

    Registration order doubles as creation order: a version may only
    depend on versions that are already present, which keeps the
    dependency graph acyclic by construction (and `assert_acyclic`
    re-checks it independently).
    """

    def __init__(self) -> None:
        self._items: dict[VersionKey, DataItem] = {}
        self._rdeps: dict[VersionKey, set[VersionKey]] = {}
        self._versions: dict[str, list[int]] = {}  # ascending, per item id
        self._on_server: set[VersionKey] = set()
        self._holdings: dict[VersionKey, dict[str, set[int]]] = {}

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
        for dep in item.temporal_deps:
            if dep not in self._items:
                raise IntegrityError(f"dependency {dep} of {key} is not registered")
        self._items[key] = item
        self._versions.setdefault(item.id, []).append(item.version)
        for dep in item.temporal_deps:
            self._rdeps.setdefault(dep, set()).add(key)

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

    def record_peer_holding(self, key: VersionKey, terminal: str, index: int) -> None:
        self.get(key)
        self._holdings.setdefault(key, {}).setdefault(terminal, set()).add(index)

    def drop_peer_holding(
        self, key: VersionKey, terminal: str, index: Optional[int] = None
    ) -> None:
        per_terminal = self._holdings.get(key)
        if per_terminal is None or terminal not in per_terminal:
            return
        if index is None:
            del per_terminal[terminal]
        else:
            per_terminal[terminal].discard(index)
            if not per_terminal[terminal]:
                del per_terminal[terminal]

    def peer_holdings(self, key: VersionKey) -> dict[str, frozenset[int]]:
        return {
            t: frozenset(idxs) for t, idxs in self._holdings.get(key, {}).items() if idxs
        }

    # -- dependency queries --------------------------------------------

    def _deps_of(self, key: VersionKey) -> tuple[VersionKey, ...]:
        item = self._items.get(key)
        if item is None:
            raise IntegrityError(f"dependency {key} is not registered")
        return item.temporal_deps

    def dependency_closure(self, roots: Iterable[VersionKey]) -> set[VersionKey]:
        """`roots` and every version they depend on; an unregistered one raises IntegrityError."""
        return reachable(roots, self._deps_of)

    def transitive_deps(self, key: VersionKey) -> set[VersionKey]:
        return self.dependency_closure(self.get(key).temporal_deps)

    def has_dependents(self, key: VersionKey) -> bool:
        """True if some registered version depends on `key` directly."""
        return key in self._rdeps

    def transitive_dependents(self, key: VersionKey) -> set[VersionKey]:
        """Every version that depends on `key`, directly or not."""
        return reachable(self._rdeps.get(key, ()), lambda k: self._rdeps.get(k, ()))

    def pinned(self, key: VersionKey) -> bool:
        """True while some dependent newer version is not yet on the server.

        A version that has itself reached the server is never pinned:
        its replicas no longer protect anything.
        """
        self.get(key)
        if key in self._on_server:
            return False
        return not self.transitive_dependents(key) <= self._on_server

    def snapshot_record(
        self, key: VersionKey, alive: Optional[Iterable[str]] = None
    ) -> VersionRecord:
        item_id, version = key
        self.get(key)
        holdings = self.peer_holdings(key)
        if alive is not None:
            keep = set(alive)
            holdings = {t: idxs for t, idxs in holdings.items() if t in keep}
        return VersionRecord(
            item_id=item_id,
            version=version,
            on_server=self.is_on_server(key),
            peer_holdings=holdings,
        )

    def records_for(
        self, item_id: str, alive: Optional[Iterable[str]] = None
    ) -> list[VersionRecord]:
        return [
            self.snapshot_record((item_id, v), alive) for v in self.versions_of(item_id)
        ]

    def assert_acyclic(self) -> None:
        """Kahn topological sort over dependency edges; raises on any cycle."""
        indeg = {key: len(self.get(key).temporal_deps) for key in self._items}
        ready = [key for key, d in indeg.items() if d == 0]
        visited = 0
        while ready:
            key = ready.pop()
            visited += 1
            for dependent in self._rdeps.get(key, ()):
                indeg[dependent] -= 1
                if indeg[dependent] == 0:
                    ready.append(dependent)
        if visited != len(self._items):
            raise IntegrityError("dependency graph contains a cycle")


def reachable(roots: Iterable[Node], step: Callable[[Node], Iterable[Node]]) -> set[Node]:
    """Every node reachable from `roots` along `step` edges, roots included.

    The one dependency walk. Its result is a set: callers sort or sum it.
    """
    seen: set[Node] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(step(node))
    return seen


def merged_lifetime(lifetimes: Iterable[Optional[float]]) -> Optional[float]:
    """Lifetime of a unit fused from parts: the longest, unbounded if any is."""
    values = list(lifetimes)
    if any(v is None for v in values):
        return None
    return max(values)  # type: ignore[type-var, arg-type]


def agglomerate(items: list[DataItem]) -> DataItem:
    """Fuse mutually dependent items into one unit that is backed up whole.

    The result carries the sum of sizes, the highest priority, the union
    of outside temporal dependencies, and the longest lifetime. A single
    item is returned unchanged.
    """
    if not items:
        raise UsageError("agglomerate needs at least one item")
    if len(items) == 1:
        return items[0]
    owners = {it.owner for it in items}
    if len(owners) != 1:
        raise UsageError(f"cannot agglomerate items of different owners: {sorted(owners)}")
    member_keys = {it.key for it in items}
    deps = sorted(
        {d for it in items for d in it.temporal_deps if d not in member_keys}
    )
    streams = {it.stream for it in items}
    order = [Production.CREATE_ONLY, Production.APPEND_ONLY, Production.READ_WRITE]
    return DataItem(
        id="+".join(sorted({it.id for it in items})),
        owner=items[0].owner,
        size_bytes=sum(it.size_bytes for it in items),
        priority=max(it.priority for it in items),
        n=max(it.n for it in items),
        k=max(it.k for it in items),
        version=max(it.version for it in items),
        production=max((it.production for it in items), key=order.index),
        lifetime=merged_lifetime(it.lifetime for it in items),
        temporal_deps=tuple(deps),
        mergeable=all(it.mergeable for it in items),
        stream=streams.pop() if len(streams) == 1 else None,
    )


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
        hits = [r for r in newer if r.peer_holdings]
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
        newer_peers=tuple(sorted(top.peer_holdings)),
    )

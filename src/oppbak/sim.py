"""Deterministic discrete-event simulator wiring all the pieces together.

A run turns a ``ScenarioConfig`` into a timeline of data productions,
pairwise encounters, infrastructure windows, terminal failures, and
restore attempts, processed in (time, sequence) order. Owners replicate
onto encountered peers through the deficit scheduler, peers manage
replica lifetime and space, and the run ends with every produced version
classified as safe on the server, recoverable without its owner, or
lost.

Determinism: one master seed feeds separate named generators for
mobility, workload, infrastructure, failures, and channel fate draws, so
the same config always yields byte-identical reports and traces.

Channel honesty: the estimate handed to schedulers is
``terminals.base_reliability``; whether a saved batch is actually
retrievable later is an independent draw at ``terminals.true_retrieval``
(defaulting to the estimate). Fragments of one item saved on one
terminal within one session share a single draw, which is exactly the
correlation the estimator's batch update assumes, so with honest config
the predicted restore probabilities are calibrated against realized
outcomes.

Fragment fate: a failed draw means the owner cannot reach the holder; the
holder keeps the fragment. Restores skip it on the peer, but the holder
still uploads it to the server in its own windows, a peer-to-server path
the restore-probability estimate ignores. A fate lives as long as its
replica.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import math
import random
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from typing import Any, Callable, Iterator, Optional, Union

import numpy as np

from .dispersal import FragmentSet, reconstruct, split
from .model import (
    DataItem,
    Fragment,
    IntegrityError,
    Location,
    Production,
    UsageError,
    VersionIndex,
    VersionKey,
    detect_conflict,
    propagate_priority,
)
from .peer import NoticeSource, ReplicaMetadata, ReplicaState, ReplicaStore
from .reliability import ChannelEstimate, ReliabilityTable, composite_success
# not called here: benchmarks/spans.py counts calls under the name oppbak.sim.config_from_dict
from .scenario import ConfigError, ScenarioConfig, config_from_dict  # noqa: F401
from .scheduler import BackupQueue, LinkSession, Scheduler

TraceSink = Callable[[str], None]

OUTCOME_SAFE = "safe_on_server"
OUTCOME_RECOVERABLE = "recoverable_from_peers"
OUTCOME_LOST = "lost"

_BANDS = ((0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0))


# -- events ------------------------------------------------------------------


@dataclass(frozen=True)
class EncounterEvent:
    time: float
    a: str
    b: str
    duration: float
    bandwidth: float


@dataclass(frozen=True)
class InternetWindowEvent:
    time: float
    terminal: str
    duration: float
    bandwidth: float


@dataclass(frozen=True)
class DataProducedEvent:
    time: float
    owner: str
    item: DataItem


@dataclass(frozen=True)
class TerminalFailureEvent:
    time: float
    terminal: str


@dataclass(frozen=True)
class RestoreAttemptEvent:
    time: float
    owner: str


Event = Union[
    EncounterEvent,
    InternetWindowEvent,
    DataProducedEvent,
    TerminalFailureEvent,
    RestoreAttemptEvent,
]


def _stream(seed: int, name: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _payload_for(key: VersionKey, size: int, twister: np.random.MT19937) -> bytes:
    seed = int.from_bytes(hashlib.sha256(f"payload:{key[0]}@{key[1]}".encode()).digest()[:8], "big")
    return _randbytes(seed, size, twister)


def _randbytes(seed: int, size: int, twister: np.random.MT19937) -> bytes:
    """`random.Random(seed).randbytes(size)` (size >= 1), drawn by `twister`.

    Both are the same Mersenne Twister, so `twister` takes the seeded state
    (all of it: earlier draws leave no trace) and emits the same 32-bit
    words, written little-endian with the last partial word shifted right to
    keep its high bits, as CPython's `getrandbits` does.
    """
    state = random.Random(seed).getstate()[1]
    # a tuple key: numpy copies it word by word, far faster than from an array
    twister.state = {"bit_generator": "MT19937", "state": {"key": state[:624], "pos": state[624]}}
    words = twister.random_raw(-(-size // 4)).astype("<u4")
    words[-1] >>= 32 * len(words) - 8 * size
    return words.view(np.uint8)[:size].tobytes()


# -- reports -----------------------------------------------------------------


class _Report:
    """JSON form of a report dataclass; `json.dumps` writes its tuples as arrays."""

    def to_json_dict(self) -> dict[str, Any]:
        return asdict(self)

    def json_bytes(self) -> bytes:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")).encode()


@dataclass(frozen=True)
class MetricsReport(_Report):
    """Everything measured by one run; JSON-faithful by construction."""

    seed: int
    horizon_s: float
    items_produced: int
    items_measured: int
    outcomes: dict[str, str]
    loss_ratio: float
    loss_ratio_by_band: dict[str, float]
    fragments_saved: int
    mean_fragments_per_item: float
    bytes_to_peers: int
    bytes_to_server: int
    conflict_count: int
    conflicts: tuple[dict[str, Any], ...]
    calibration_episodes: tuple[tuple[float, int], ...]
    occupancy: dict[str, tuple[tuple[float, int], ...]]

    scalar_metrics = (
        "items_produced",
        "items_measured",
        "loss_ratio",
        "fragments_saved",
        "mean_fragments_per_item",
        "bytes_to_peers",
        "bytes_to_server",
        "conflict_count",
    )


@dataclass(frozen=True)
class BatchReport(_Report):
    """Replicated-run aggregate: per-metric mean and 95% Student-t interval."""

    seed: int
    replications: int
    metrics: dict[str, dict[str, float]]
    calibration_episodes: tuple[tuple[float, int], ...]


@dataclass(frozen=True)
class CalibrationBin:
    lo: float
    hi: float
    count: int
    mean_predicted: float
    realized_rate: float


@dataclass(frozen=True)
class CalibrationResult:
    episodes: int
    bins: tuple[CalibrationBin, ...]
    empty: bool


def calibration_check(
    report: Union[MetricsReport, BatchReport], bins: int = 10
) -> CalibrationResult:
    """Compare predicted restore probability against realized frequency.

    Episodes are binned by prediction; each occupied bin reports its mean
    prediction and the fraction of episodes that actually restored. The
    check measures the gap, it never corrects it.
    """
    if bins < 1:
        raise UsageError(f"bins must be >= 1, got {bins}")
    episodes = report.calibration_episodes
    if not episodes:
        return CalibrationResult(episodes=0, bins=(), empty=True)
    buckets: dict[int, list[tuple[float, int]]] = {}
    for predicted, realized in episodes:
        b = min(int(predicted * bins), bins - 1)
        buckets.setdefault(b, []).append((predicted, realized))
    out = []
    for b in sorted(buckets):
        members = buckets[b]
        out.append(
            CalibrationBin(
                lo=b / bins,
                hi=(b + 1) / bins,
                count=len(members),
                mean_predicted=sum(p for p, _ in members) / len(members),
                realized_rate=sum(r for _, r in members) / len(members),
            )
        )
    return CalibrationResult(episodes=len(episodes), bins=tuple(out), empty=False)


# -- event generation ---------------------------------------------------------


def _terminal_names(count: int) -> list[str]:
    width = max(2, len(str(count - 1)))
    return [f"t{i:0{width}d}" for i in range(count)]


def _arrivals(rng: random.Random, rate_per_hour: float, horizon: float) -> Iterator[float]:
    """Arrival times of a Poisson process before `horizon`, each gap drawn when needed.

    Draws nothing at a rate of zero; otherwise the gap that passes the
    horizon is the last draw.
    """
    if rate_per_hour <= 0:
        return
    t = rng.expovariate(rate_per_hour / 3600.0)
    while t < horizon:
        yield t
        t += rng.expovariate(rate_per_hour / 3600.0)


def generate_events(config: ScenarioConfig) -> list[Event]:
    """Pre-draw the full event timeline for a config. Deterministic."""
    names = _terminal_names(config.terminals.count)
    producers = names[: config.terminals.producers]
    horizon = config.horizon_s
    events: list[Event] = []

    w = config.workload
    rng = _stream(config.seed, "workload")
    for owner in producers:
        counter = 0
        history: list[tuple[str, int]] = []  # (id, latest version) in creation order
        for t in _arrivals(rng, w.items_per_hour, horizon):
            size = int(round(math.exp(rng.uniform(math.log(w.size_min_bytes),
                                                  math.log(w.size_max_bytes)))))
            size = min(max(size, w.size_min_bytes), w.size_max_bytes)
            priority = rng.uniform(w.priority_min, w.priority_max)
            update = bool(history) and rng.random() < w.update_fraction
            chain = (not update) and bool(history) and rng.random() < w.chain_fraction
            if update:
                slot = rng.randrange(len(history))
                item_id, prev_version = history[slot]
                version = prev_version + 1
                deps: tuple[VersionKey, ...] = ((item_id, prev_version),)
                history[slot] = (item_id, version)
                production = Production.READ_WRITE
            else:
                item_id = f"{owner}/d{counter:04d}"
                counter += 1
                version = 1
                production = Production.CREATE_ONLY
                deps = ()
                if chain:
                    dep_id, dep_version = history[rng.randrange(len(history))]
                    deps = ((dep_id, dep_version),)
                history.append((item_id, version))
            events.append(
                DataProducedEvent(
                    time=t,
                    owner=owner,
                    item=DataItem(
                        id=item_id,
                        owner=owner,
                        size_bytes=size,
                        priority=priority,
                        n=w.n,
                        k=w.k,
                        version=version,
                        production=production,
                        lifetime=(t + w.lifetime_s) if w.lifetime_s else None,
                        temporal_deps=deps,
                    ),
                )
            )

    m = config.mobility
    rng = _stream(config.seed, "mobility")
    for t in _arrivals(rng, m.encounter_rate_per_hour, horizon):
        a, b = sorted(rng.sample(names, 2))
        duration = rng.expovariate(1.0 / m.contact_duration_mean_s)
        events.append(EncounterEvent(t, a, b, duration, m.bandwidth_bytes_per_s))

    i = config.infrastructure
    rng = _stream(config.seed, "infrastructure")
    for terminal in names:
        for t in _arrivals(rng, i.window_rate_per_hour, horizon):
            duration = rng.expovariate(1.0 / i.window_duration_mean_s)
            events.append(InternetWindowEvent(t, terminal, duration, i.bandwidth_bytes_per_s))

    f = config.failures
    rng = _stream(config.seed, "failures")
    for terminal in producers if f.targets == "producers" else names:
        # a terminal fails at most once: at its process's first arrival
        for t in itertools.islice(_arrivals(rng, f.rate_per_hour, horizon), 1):
            events.append(TerminalFailureEvent(time=t, terminal=terminal))

    events.sort(key=lambda e: (e.time, _KIND_RANK[type(e)]))
    return events


# -- the simulation -----------------------------------------------------------


class _Tables(dict):
    """Reliability table per version, plus the composite success memo.

    `success` maps a version to its memoised `composite_success`, which
    reads the tables and server status of the version and its dependency
    closure. Replacing a table forgets the memo, as must a version
    reaching the server (`forget`). Forgetting covers the version's full
    reverse-dependency closure: a dependent can be memoised while its
    dependency is not, so the walk cannot stop at the first gap; a
    version nothing depends on forgets only its own entry. Each entry
    forgotten is noticed to its owner's queue, which cached a deficit
    from it. With no reference to the simulation, the map adds no cycle.
    """

    def __init__(self, index: VersionIndex, queues: dict[str, BackupQueue]) -> None:
        super().__init__()
        self.index = index
        self.queues = queues
        self.success: dict[VersionKey, float] = {}

    def __setitem__(self, key: VersionKey, table: ReliabilityTable) -> None:
        super().__setitem__(key, table)
        self.forget(key)

    def forget(self, key: VersionKey) -> None:
        if not self.success:
            return
        index = self.index
        keys = (key, *index.transitive_dependents(key)) if index.has_dependents(key) else (key,)
        for forgotten in keys:
            if self.success.pop(forgotten, None) is not None:
                self.queues[index.get(forgotten).owner].notice(forgotten)


class Simulation:
    """Mutable world state for one run. Use `run(config)` unless poking at it."""

    def __init__(self, config: ScenarioConfig, trace: Optional[TraceSink] = None) -> None:
        config.validate()
        self.config = config
        self.trace_sink = trace
        self.names = _terminal_names(config.terminals.count)
        self.producers = self.names[: config.terminals.producers]
        self.alive: dict[str, bool] = {t: True for t in self.names}
        self.index = VersionIndex()
        queues = {owner: BackupQueue() for owner in self.producers}
        self.tables = _Tables(self.index, queues)
        self.fragment_sets: dict[VersionKey, FragmentSet] = {}
        self.owned_ids: dict[str, list[str]] = {t: [] for t in self.producers}
        self.server_fragments: dict[VersionKey, dict[int, Fragment]] = {}
        self.fates: dict[tuple[str, str, int, int], bool] = {}
        self.bytes_to_peers = 0
        self.bytes_to_server = 0
        self.fragments_saved = 0
        self.conflicts: list[dict[str, Any]] = []
        self.episodes: list[tuple[float, int]] = []
        self.pending_restores: dict[str, list[tuple[VersionKey, float]]] = {}
        self.occupancy: dict[str, list[tuple[float, int]]] = {t: [(0.0, 0)] for t in self.names}
        self.now = 0.0
        self._channels = _stream(config.seed, "channels")

        estimate = config.terminals.base_reliability
        self.channel_estimate = ChannelEstimate(estimate)
        true_p = config.terminals.true_retrieval
        self.true_retrieval = estimate if true_p is None else true_p

        self.stores: dict[str, ReplicaStore] = {}
        for terminal in self.names:
            self.stores[terminal] = ReplicaStore(
                terminal,
                config.terminals.quota_bytes,
                w_age=config.eviction.w_age,
                w_res=config.eviction.w_res,
                w_size=config.eviction.w_size,
                per_owner_cap=config.eviction.per_owner_cap,
                pin_check=self._pin_check,
                on_delete=self._deletion_hook(terminal),
            )
        self.schedulers: dict[str, Scheduler] = {
            owner: Scheduler(
                owner=owner,
                index=self.index,
                tables=self.tables,
                success_of=self.success_of,
                fragment_for=self._fragment_for if config.payload_mode else None,
                queue=queues[owner],
            )
            for owner in self.producers
        }

    @cached_property
    def _twister(self) -> np.random.MT19937:
        """Payload generator, built once per run (numpy's seeding is slow) and
        given a fresh state for each payload by `_randbytes`."""
        return np.random.MT19937(0)

    # -- shared helpers ------------------------------------------------

    def _trace(self, kind: str, nbytes: int = 0, /, **fields: Any) -> None:
        """Emit `{now:.6f} KIND name=value ... bytes=N` to the sink, if any.

        Fields keep call order; a tuple value is joined with `@` and a
        trailing `_` is dropped from a name (`from_=` writes `from=`).
        Without a sink nothing is formatted.
        """
        if self.trace_sink is None:
            return
        parts = [f"{self.now:.6f} {kind}"]
        for name, value in fields.items():
            if isinstance(value, tuple):
                value = "@".join(map(str, value))
            parts.append(f"{name.removesuffix('_')}={value}")
        parts.append(f"bytes={nbytes}")
        self.trace_sink(" ".join(parts))

    def _pin_check(self, item_id: str, version: int) -> bool:
        key = (item_id, version)
        return key in self.index and self.index.pinned(key)

    def _deletion_hook(self, terminal: str):
        def hook(replica, reason: str) -> None:
            key, index = replica.version_key, replica.fragment.index
            self.index.drop_peer_holding(key, terminal, index)
            del self.fates[(terminal, *key, index)]
            self._record_occupancy(terminal)
            self._trace("DELETE", terminal=terminal, item=key, frag=index, reason=reason)
        return hook

    def _record_occupancy(self, terminal: str) -> None:
        points = self.occupancy[terminal]
        used = self.stores[terminal].used_bytes
        if points[-1][1] != used:
            points.append((self.now, used))

    def success_of(self, key: VersionKey) -> float:
        """Composite restore probability of a version, memoised per version."""
        memo = self.tables.success
        value = memo.get(key)
        if value is None:
            value = memo[key] = composite_success(self.index.get(key), self.tables, self.index)
        return value

    def _fragment_for(self, key: VersionKey, i: int):
        return self.fragment_sets[key].fragment(i)

    # -- event handlers --------------------------------------------------

    def _on_produced(self, event: DataProducedEvent) -> None:
        owner = event.owner
        if not self.alive[owner]:
            return
        item = event.item
        self.index.register(item)
        if item.version == 1:
            self.owned_ids[owner].append(item.id)
        raised = propagate_priority(self.index, item)
        self.tables[item.key] = ReliabilityTable.fresh(item.k)
        if self.config.payload_mode:
            payload = _payload_for(item.key, item.size_bytes, self._twister)
            self.fragment_sets[item.key] = split(
                payload, item.n, item.k, item_id=item.id, version=item.version
            )
        scheduler = self.schedulers[owner]
        scheduler.enqueue(item, self.success_of(item.key))
        # a raised dependency may fall short of its new target again
        for dep_key in sorted(raised):
            dep = self.index.get(dep_key)
            self.schedulers[dep.owner].queue.notice(dep_key)  # its deficit grew
            if dep.owner == owner and dep_key not in scheduler.queue:
                if not self.index.is_on_server(dep_key):
                    scheduler.enqueue(dep, self.success_of(dep_key))
        self._trace("PRODUCE", item.size_bytes, owner=owner, item=item.key)

    def _send_owner_notices(self, owner: str, peer: str) -> None:
        """The owner tells a peer which of its held versions are superseded.

        Only the items the peer holds for this owner are visited, in id
        order, through the store's per-owner index.
        """
        store = self.stores[peer]
        for item_id in store.item_ids_of(owner):
            held = [version for who, _, version, _ in store.keys_of(item_id)
                    if who == owner and (item_id, version) in self.index]
            if not held or max(held) >= (latest := self.index.latest_version(item_id)):
                continue
            if store.notify(NoticeSource.OWNER_NOTICE, item_id, latest):
                self._trace("NOTICE", kind="owner", from_=owner, to=peer, item=(item_id, latest))

    def _on_encounter(self, event: EncounterEvent) -> None:
        a, b = event.a, event.b
        if not (self.alive[a] and self.alive[b]):
            return
        budget = int(event.duration * event.bandwidth)
        self._trace("ENCOUNTER", budget, a=a, b=b)
        if budget <= 0:
            return
        for owner, peer in ((a, b), (b, a)):
            if owner in self.schedulers:
                self._send_owner_notices(owner, peer)
        if not self.config.peer_backup:
            return
        link = LinkSession(budget)
        for owner, peer in ((a, b), (b, a)):
            scheduler = self.schedulers.get(owner)
            if scheduler is None or not link.reachable:
                continue
            if self.config.terminals.backup_peers == "nonproducers" and peer in self.schedulers:
                continue
            terminal = _PeerTerminal(self, peer)
            outcomes = scheduler.on_meeting(terminal, link, now=self.now)
            session_fate: dict[VersionKey, bool] = {}
            for outcome in outcomes:
                if not outcome.saved:
                    continue
                key = outcome.key
                if key not in session_fate:
                    session_fate[key] = self._channels.random() < self.true_retrieval
                self.fates[(peer, *key, outcome.fragment_index)] = session_fate[key]
                self.index.record_peer_holding(key, peer, outcome.fragment_index)
                self.bytes_to_peers += outcome.bytes_transferred
                self.fragments_saved += 1
                self._record_occupancy(peer)
                self._trace("SAVE", outcome.bytes_transferred, from_=owner, to=peer,
                            item=key, frag=outcome.fragment_index)

    def _mark_served(self, key: VersionKey) -> None:
        self.index.mark_on_server(key)
        self.tables.forget(key)

    def _on_window(self, event: InternetWindowEvent) -> None:
        terminal = event.terminal
        if not self.alive[terminal]:
            return
        budget = int(event.duration * event.bandwidth)
        self._trace("WINDOW", budget, terminal=terminal)
        if budget <= 0:
            return
        scheduler = self.schedulers.get(terminal)
        if scheduler is not None:
            budget = self._flush_owner_queue(terminal, scheduler, budget)
        uploaded_ids = self._flush_held_replicas(terminal, budget)
        self._confirm_served(terminal, uploaded_ids)

    def _flush_owner_queue(self, owner: str, scheduler: Scheduler, budget: int) -> int:
        def eligible(key: VersionKey) -> bool:
            # expired entries are pulled to retire them; what does not fit stays queued
            item = self.index.get(key)
            return item.expired(self.now) or item.size_bytes <= budget

        while (key := scheduler.queue.pull(scheduler.deficit_of, eligible, parked=True)):
            item = self.index.get(key)
            if item.expired(self.now):
                continue
            budget -= item.size_bytes
            self.bytes_to_server += item.size_bytes
            self._mark_served(key)
            self._trace("UPLOAD_ITEM", item.size_bytes, from_=owner, item=key)
        return budget

    def _flush_held_replicas(self, terminal: str, budget: int) -> set[str]:
        store = self.stores[terminal]
        uploaded_ids: set[str] = set()
        for replica in store.replicas():
            key = replica.version_key
            if key not in self.index or self.index.is_on_server(key):
                continue
            if replica.state is ReplicaState.CONFIRMED_SAVED:
                continue
            if replica.state is ReplicaState.OUTDATED and not self._pin_check(*key):
                continue  # superseded and protecting nothing: not worth budget
            have = self.server_fragments.setdefault(key, {})
            if replica.fragment.index in have:
                continue
            size = replica.size_bytes
            if size > budget:
                break
            budget -= size
            have[replica.fragment.index] = replica.fragment
            self.bytes_to_server += size
            uploaded_ids.add(key[0])
            self._trace("UPLOAD_FRAG", size, from_=terminal, item=key, frag=replica.fragment.index)
            if len(have) >= self.index.get(key).k:
                self._mark_served(key)
        return uploaded_ids

    def _confirm_served(self, terminal: str, uploaded_ids: set[str]) -> None:
        store = self.stores[terminal]
        for item_id in store.item_ids():
            vmax = self.index.latest_on_server(item_id)
            if vmax is None:
                continue
            uploaded = item_id in uploaded_ids
            source = NoticeSource.SAVE_BY_ME if uploaded else NoticeSource.SERVER_NOTICE
            if store.notify(source, item_id, vmax):
                self._trace("NOTICE", kind=source.value, to=terminal, item=(item_id, vmax))
        store.purge(self.now)

    def _on_failure(self, event: TerminalFailureEvent) -> Optional[tuple[Event, ...]]:
        terminal = event.terminal
        if not self.alive[terminal]:
            return
        self.alive[terminal] = False
        self._trace("FAIL", terminal=terminal)
        if terminal not in self.schedulers:
            return
        self.pending_restores[terminal] = [
            (item.key, 1.0 if self.index.is_on_server(item.key) else self.success_of(item.key))
            for item in self._current_items(sorted(self.owned_ids[terminal]))
        ]
        return (RestoreAttemptEvent(time=self.now + self.config.restore_delay_s, owner=terminal),)

    # -- restorability ----------------------------------------------------

    def _current_items(self, item_ids: list[str]) -> list[DataItem]:
        """Latest version of each item, less expired ones: what restores and losses count."""
        items = (self.index.get((i, self.index.latest_version(i))) for i in item_ids)
        return [item for item in items if not item.expired(self.now)]

    def _retrievable_indices(self, key: VersionKey) -> dict[int, Fragment]:
        """Fragments reachable right now: server indices ascending, then peers'."""
        on_server = self.server_fragments.get(key, {})
        found = {idx: on_server[idx] for idx in sorted(on_server)}
        item_id, version = key
        owner = self.index.get(key).owner
        for terminal, indices in sorted(self.index.peer_holdings(key).items()):
            if not self.alive[terminal]:
                continue
            store = self.stores[terminal]
            for idx in sorted(indices):
                if idx not in found and self.fates.get((terminal, item_id, version, idx), False):
                    found[idx] = store.get((owner, item_id, version, idx)).fragment
        return found

    def _restorable(self, key: VersionKey, memo: dict[VersionKey, bool]) -> bool:
        if key in memo:
            return memo[key]
        memo[key] = False
        item = self.index.get(key)
        if self.index.is_on_server(key):
            own_ok = True
        else:
            available = self._retrievable_indices(key)
            own_ok = len(available) >= item.k
            if own_ok and self.config.payload_mode:
                rebuilt = reconstruct(list(available.values())[: item.k])
                data = self.fragment_sets[key].data  # systematic: the payload's chunks
                if rebuilt != b"".join(f.payload for f in data)[: item.size_bytes]:
                    raise IntegrityError(f"reconstruction of {key} does not match the original")
        ok = own_ok and all(self._restorable(d, memo) for d in item.temporal_deps)
        memo[key] = ok
        return ok

    def _on_restore(self, event: RestoreAttemptEvent) -> None:
        owner = event.owner
        memo: dict[VersionKey, bool] = {}
        for key, predicted in self.pending_restores.pop(owner, []):
            realized = self._restorable(key, memo)
            self.episodes.append((predicted, 1 if realized else 0))
        alive_now = [t for t in self.names if self.alive[t]]
        for item_id in sorted(self.owned_ids.get(owner, [])):
            versions = self.index.versions_of(item_id)
            best = None
            for version in versions:
                if self._restorable((item_id, version), memo):
                    best = version
            if best is None:
                self._trace("RESTORE_FAIL", owner=owner, item=item_id)
                continue
            restored_from = (
                Location.SERVER
                if self.index.is_on_server((item_id, best))
                else Location.PEER
            )
            self._trace("RESTORE", owner=owner, item=(item_id, best), source=restored_from.value)
            report = detect_conflict(
                self.index.records_for(item_id, alive=alive_now), restored_from, best
            )
            if report is not None:
                self.conflicts.append(
                    {
                        "item_id": report.item_id,
                        "restored_version": report.restored_version,
                        "restored_from": report.restored_from.value,
                        "newer_version": report.newer_version,
                        "newer_location": report.newer_location.value,
                        "newer_peers": list(report.newer_peers),
                    }
                )
                self._trace(
                    "CONFLICT",
                    item=item_id,
                    restored=(report.restored_version, report.restored_from.value),
                    newer=(report.newer_version, report.newer_location.value),
                )

    # -- driving --------------------------------------------------------

    # Every event kind with its handler, in same-time order: at equal
    # timestamps the generated timeline puts the earlier kind first.
    _HANDLERS = {
        DataProducedEvent: _on_produced,
        EncounterEvent: _on_encounter,
        InternetWindowEvent: _on_window,
        TerminalFailureEvent: _on_failure,
        RestoreAttemptEvent: _on_restore,
    }

    def process(self, event: Event) -> tuple[Event, ...]:
        """Apply one event at its timestamp; returns any follow-up events.

        `run` drives this from the generated timeline; scripted scenarios
        may call it directly with hand-built events in time order.
        """
        if event.time < self.now:
            raise ConfigError(f"event at {event.time} is behind the clock {self.now}")
        handler = self._HANDLERS.get(type(event))
        if handler is None:
            raise ConfigError(f"unknown event type {type(event).__name__}")
        self.now = event.time
        return handler(self, event) or ()

    def run(self) -> MetricsReport:
        """Process the generated timeline, then `finish` the run."""
        # the timeline is sorted, so in (time, seq) order it is a heap already
        heap = [(event.time, seq, event) for seq, event in enumerate(generate_events(self.config))]
        seq = len(heap)
        while heap:
            _, _, event = heapq.heappop(heap)
            for follow_up in self.process(event):
                heapq.heappush(heap, (follow_up.time, seq, follow_up))
                seq += 1
        return self.finish()

    def finish(self) -> MetricsReport:
        """Close the run: classify every item at `horizon_s` and report.

        Items are measured at the horizon even when scripted events ran past
        it. Stores and schedulers call back into the simulation, so they are
        released once the report exists: a finished run is then freed by
        reference counting alone, fragment sets included, without waiting
        for the cycle collector. A run is finished once.
        """
        self.now = self.config.horizon_s
        memo: dict[VersionKey, bool] = {}
        outcomes: dict[str, str] = {}
        for key in sorted(self.index.keys()):
            if self.index.is_on_server(key):
                outcome = OUTCOME_SAFE
            elif self._restorable(key, memo):
                outcome = OUTCOME_RECOVERABLE
            else:
                outcome = OUTCOME_LOST
            outcomes[f"{key[0]}@{key[1]}"] = outcome

        measured = [
            (item, outcomes[f"{item.id}@{item.version}"])
            for owner in self.producers
            for item in self._current_items(self.owned_ids[owner])
        ]
        lost = sum(1 for _, o in measured if o == OUTCOME_LOST)
        loss_ratio = lost / len(measured) if measured else 0.0
        by_band: dict[str, float] = {}
        for lo, hi in _BANDS:
            members = [
                (item, o) for item, o in measured
                if lo <= item.priority < hi or (hi == 1.0 and item.priority == 1.0)
            ]
            if members:
                band_lost = sum(1 for _, o in members if o == OUTCOME_LOST)
                by_band[f"{lo:.2f}-{hi:.2f}"] = band_lost / len(members)

        produced = len(self.index)
        report = MetricsReport(
            seed=self.config.seed,
            horizon_s=self.config.horizon_s,
            items_produced=produced,
            items_measured=len(measured),
            outcomes=outcomes,
            loss_ratio=loss_ratio,
            loss_ratio_by_band=by_band,
            fragments_saved=self.fragments_saved,
            mean_fragments_per_item=(self.fragments_saved / produced) if produced else 0.0,
            bytes_to_peers=self.bytes_to_peers,
            bytes_to_server=self.bytes_to_server,
            conflict_count=len(self.conflicts),
            conflicts=tuple(self.conflicts),
            calibration_episodes=tuple(self.episodes),
            occupancy={t: tuple(points) for t, points in self.occupancy.items()},
        )
        self.stores.clear()
        self.schedulers.clear()
        return report


_KIND_RANK = {kind: rank for rank, kind in enumerate(Simulation._HANDLERS)}


class _PeerTerminal:
    """Adapter presenting a peer's store to the owner-side scheduler."""

    def __init__(self, sim: Simulation, terminal_id: str) -> None:
        self._sim = sim
        self.terminal_id = terminal_id
        self.channel = sim.channel_estimate

    def free_bytes(self) -> int:
        return self._sim.stores[self.terminal_id].free_bytes(self._sim.now)

    def save(self, fragment, item: DataItem, declared_success: float) -> bool:
        meta = ReplicaMetadata(
            owner=item.owner,
            priority=item.priority,
            declared_success=declared_success,
            lifetime=item.lifetime,
            temporal_deps=item.temporal_deps,
            mergeable=item.mergeable,
            stream=item.stream,
        )
        return self._sim.stores[self.terminal_id].accept(fragment, meta, self._sim.now)


def run(config: ScenarioConfig, trace: Optional[TraceSink] = None) -> MetricsReport:
    """Execute one deterministic run of a scenario."""
    return Simulation(config, trace=trace).run()


def _t_critical(df: int) -> float:
    """t(0.975, df): the two-sided 95% Student-t critical value, for integer df >= 1.

    Bisects P(|T| < t) = 0.95 on [0, 13] (t(0.975, 1) is 12.71), with that
    probability's finite sum for integer df (Abramowitz & Stegun 26.7.3-4).
    """
    lo, hi = 0.0, 13.0
    for _ in range(60):
        t = 0.5 * (lo + hi)
        theta = math.atan(t / math.sqrt(df))
        cos, odd = math.cos(theta), df % 2
        term, total = (cos if odd else 1.0), 0.0
        for j in range((df - odd) // 2):
            if j:
                term *= cos * cos * (2 * j - 1 + odd) / (2 * j + odd)
            total += term
        mass = math.sin(theta) * total
        if odd:
            mass = 2.0 / math.pi * (theta + mass)
        lo, hi = (t, hi) if mass < 0.95 else (lo, t)
    return 0.5 * (lo + hi)


def run_batch(config: ScenarioConfig, replications: int) -> BatchReport:
    """Run `replications` seeds (seed, seed+1, ...) and aggregate metrics."""
    if replications < 1:
        raise ConfigError(f"replications must be >= 1, got {replications}")
    # each replication's report is dropped once its scalars and episodes are kept
    samples: dict[str, list[float]] = {name: [] for name in MetricsReport.scalar_metrics}
    pooled: list[tuple[float, int]] = []
    for r in range(replications):
        report = run(replace(config, seed=config.seed + r))
        for name, values in samples.items():
            values.append(float(getattr(report, name)))
        pooled.extend(report.calibration_episodes)
    metrics: dict[str, dict[str, float]] = {}
    t = _t_critical(replications - 1) if replications > 1 else 0.0
    for name, values in samples.items():
        mean = sum(values) / replications
        var = sum((v - mean) ** 2 for v in values) / max(replications - 1, 1)
        half = t * math.sqrt(var / replications)
        metrics[name] = {
            "mean": mean,
            "stdev": math.sqrt(var),
            "ci_low": mean - half,
            "ci_high": mean + half,
        }
    return BatchReport(
        seed=config.seed,
        replications=replications,
        metrics=metrics,
        calibration_episodes=tuple(pooled),
    )

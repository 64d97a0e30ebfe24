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
outcomes, but only while backup peers do not fail: owners never learn that
a failed holder took their replicas with it. With every terminal failing
at 0.4/h, baseline seeds 0-59 predict 0.700 on average, 0.581 realized.

Fragment fate: a failed draw means the owner cannot reach the holder; the
holder keeps the fragment. Restores skip it on the peer, but the holder
still uploads it to the server in its own windows, a peer-to-server path
the restore-probability estimate ignores. The fate lives on the replica
(`Replica.fate`): it is drawn when the peer's store accepts the session's
first fragment of a version, and goes when the replica does.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, fields, replace
from functools import cached_property
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Union

from .dispersal import FragmentSet, chunk_size, reconstruct, split
from .model import (
    DataItem,
    Fragment,
    IntegrityError,
    Location,
    UsageError,
    VersionIndex,
    VersionKey,
    detect_conflict,
    propagate_priority,
)
from .peer import NoticeSource, Replica, ReplicaState, ReplicaStore
from .reliability import ReliabilityTable, composite_success
# not called here: benchmarks/spans.py counts calls under the name oppbak.sim.config_from_dict
from .scenario import ConfigError, ScenarioConfig, config_from_dict  # noqa: F401
from .scheduler import BackupQueue, LinkSession, Scheduler

if TYPE_CHECKING:
    import numpy as np

TraceSink = Callable[[str], None]
# version -> live holder -> its replicas of it, for the owners `Simulation._placement` is given
Placement = dict[VersionKey, dict[str, list[Replica]]]

OUTCOME_SAFE = "safe_on_server"
OUTCOME_RECOVERABLE = "recoverable_from_peers"
OUTCOME_LOST = "lost"

_BANDS = ((0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0))
_BAND_TOPS = tuple(hi for _, hi in _BANDS[:-1])  # a priority of 1.0 is in the top band


# -- events ------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class EncounterEvent:
    time: float
    a: str
    b: str
    duration: float
    bandwidth: float


@dataclass(frozen=True, slots=True)
class InternetWindowEvent:
    time: float
    terminal: str
    duration: float
    bandwidth: float


@dataclass(frozen=True, slots=True)
class DataProducedEvent:
    time: float
    owner: str
    item: DataItem


@dataclass(frozen=True, slots=True)
class TerminalFailureEvent:
    time: float
    terminal: str


@dataclass(frozen=True, slots=True)
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


def _terminals_named(event: Event) -> tuple[str, ...]:
    if isinstance(event, EncounterEvent):
        return (event.a, event.b)
    if isinstance(event, (InternetWindowEvent, TerminalFailureEvent)):
        return (event.terminal,)
    return (event.owner,)


def _stream(seed: int, name: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _payload_for(key: VersionKey, size: int, generator: np.random.PCG64) -> bytes:
    """The `size` (>= 1) payload bytes of a version, a function of its key alone.

    `generator` is given a fresh state from sha256("payload:{id}@{version}"):
    the digest's first 16 bytes are the PCG64 state and its last 16, OR 1,
    the increment, so earlier draws leave no trace. The 64-bit words are
    written little-endian on any host.
    """
    digest = hashlib.sha256(f"payload:{key[0]}@{key[1]}".encode()).digest()
    state, inc = int.from_bytes(digest[:16], "big"), int.from_bytes(digest[16:], "big") | 1
    generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0}
    words = generator.random_raw(-(-size // 8)).astype("<u8", copy=False)
    return words.view("u1")[:size].tobytes()


# -- reports -----------------------------------------------------------------


class _Report:
    """JSON form of a report dataclass; `json.dumps` writes its tuples as arrays."""

    def to_json_dict(self) -> dict[str, Any]:
        """The report's fields by name; values are shared, not copied."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

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


def generate_events(config: ScenarioConfig) -> list[Event]:
    """Pre-draw the full event timeline for a config. Deterministic.

    Each kind draws from its own stream, `_stream(seed, kind)`; the golden
    digests pin every draw. A rate of zero draws nothing; otherwise the gap
    that passes the horizon is drawn too, and the next terminal goes on from
    the shared stream. Gaps and durations are `random.expovariate`'s
    ``-log(1 - random()) / rate``, uniforms `random.uniform`'s formula.

    An index below n is `randrange(n)`'s own rejection draw, inlined:
    ``getrandbits(n.bit_length())``, drawn again while it is n or more.

    - workload: per producer, gaps; after each a log-uniform size, a priority,
      `random()` for an update, then for a chain (each only while possible),
      then an index below the history's length for the slot or the dependency.
    - mobility: gaps; after each the pair, as `random.sample(names, 2)` draws
      its indices, then a duration.
    - infrastructure: per terminal, gaps, each followed by a duration.
    - failures: one gap per targeted terminal, a failure if it is in time.

    Sorted by time alone: kinds are appended in handler order, the sort is stable.
    """
    names = _terminal_names(config.terminals.count)
    producers = names[: config.terminals.producers]
    horizon = config.horizon_s
    log = math.log
    events: list[Event] = []
    append = events.append

    w = config.workload
    rng = _stream(config.seed, "workload")
    rand, bits = rng.random, rng.getrandbits
    rate = w.items_per_hour / 3600.0
    log_lo, log_span = log(w.size_min_bytes), log(w.size_max_bytes) - log(w.size_min_bytes)
    priority_span = w.priority_max - w.priority_min
    for owner in producers if rate > 0 else ():
        counter = 0
        history: list[tuple[str, int]] = []  # (id, latest version) in creation order
        t = -log(1.0 - rand()) / rate
        while t < horizon:
            size = int(round(math.exp(log_lo + log_span * rand())))
            size = min(max(size, w.size_min_bytes), w.size_max_bytes)
            priority = w.priority_min + priority_span * rand()
            update = bool(history) and rand() < w.update_fraction
            chain = (not update) and bool(history) and rand() < w.chain_fraction
            if update or chain:
                n = len(history)
                n_bits = n.bit_length()
                slot = bits(n_bits)
                while slot >= n:
                    slot = bits(n_bits)
            if update:
                item_id, prev_version = history[slot]
                version = prev_version + 1
                deps: tuple[VersionKey, ...] = ((item_id, prev_version),)
                history[slot] = (item_id, version)
            else:
                item_id = f"{owner}/d{counter:04d}"
                counter += 1
                version = 1
                deps = (history[slot],) if chain else ()
                history.append((item_id, version))
            append(
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
                        lifetime=(t + w.lifetime_s) if w.lifetime_s else None,
                        temporal_deps=deps,
                    ),
                )
            )
            t -= log(1.0 - rand()) / rate

    m = config.mobility
    rng = _stream(config.seed, "mobility")
    rand, bits = rng.random, rng.getrandbits
    rate = m.encounter_rate_per_hour / 3600.0
    duration_rate = 1.0 / m.contact_duration_mean_s
    count, last = len(names), len(names) - 1
    count_bits, last_bits = count.bit_length(), last.bit_length()
    t = -log(1.0 - rand()) / rate if rate > 0 else horizon
    while t < horizon:
        # random.sample(names, 2) index for index, both paths pinned by the golden
        # digests: up to 21 names a pool (first pick swapped for the last), else redraws
        a = bits(count_bits)
        while a >= count:
            a = bits(count_bits)
        if count <= 21:
            b = bits(last_bits)
            while b >= last:
                b = bits(last_bits)
            b = last if b == a else b
        else:
            b = bits(count_bits)
            while b >= count or b == a:
                b = bits(count_bits)
        if b < a:  # zero-padded names: index order is name order
            a, b = b, a
        duration = -log(1.0 - rand()) / duration_rate
        append(EncounterEvent(t, names[a], names[b], duration, m.bandwidth_bytes_per_s))
        t -= log(1.0 - rand()) / rate

    i = config.infrastructure
    rand = _stream(config.seed, "infrastructure").random
    rate = i.window_rate_per_hour / 3600.0
    duration_rate = 1.0 / i.window_duration_mean_s
    for terminal in names if rate > 0 else ():
        t = -log(1.0 - rand()) / rate
        while t < horizon:
            duration = -log(1.0 - rand()) / duration_rate
            append(InternetWindowEvent(t, terminal, duration, i.bandwidth_bytes_per_s))
            t -= log(1.0 - rand()) / rate

    f = config.failures
    rand = _stream(config.seed, "failures").random
    rate = f.rate_per_hour / 3600.0
    for terminal in (producers if f.targets == "producers" else names) if rate > 0 else ():
        t = -log(1.0 - rand()) / rate  # a terminal fails at most once
        if t < horizon:
            append(TerminalFailureEvent(time=t, terminal=terminal))

    events.sort(key=attrgetter("time"))
    return events


# -- the simulation -----------------------------------------------------------


class _Tables(dict):
    """Reliability table per version that notices its owners' queues.

    A version's composite success reads the tables and server status of
    the version and its dependency closure, so replacing its table, or the
    version reaching the server (`notice_dependents`), may change the
    deficit cached for it and for everything depending on it directly or
    not, as the index stored them at registration. Each of those is
    noticed to its owner's queue, which ignores keys it does not hold; a
    version nothing depends on notices only itself. With no reference to
    the simulation, the map adds no cycle.
    """

    def __init__(self, index: VersionIndex, queues: dict[str, BackupQueue]) -> None:
        super().__init__()
        self.index = index
        self.queues = queues

    def __setitem__(self, key: VersionKey, table: ReliabilityTable) -> None:
        super().__setitem__(key, table)
        self.notice_dependents(key)

    def notice_dependents(self, key: VersionKey) -> None:
        index = self.index
        keys = (key, *index.transitive_dependents(key)) if index.has_dependents(key) else (key,)
        for changed in keys:
            self.queues[index.get(changed).owner].notice(changed)


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
        self.owned_ids: dict[str, dict[str, None]] = {t: {} for t in self.producers}  # ordered sets
        # uploaded fragments of each partly uploaded version; nothing reads a served one's
        self.server_fragments: dict[VersionKey, dict[int, Fragment]] = {}
        self.bytes_to_peers = 0
        self.bytes_to_server = 0
        self.conflicts: list[dict[str, Any]] = []
        self.episodes: list[tuple[float, int]] = []
        self.pending_restores: dict[str, list[tuple[VersionKey, float]]] = {}
        self.occupancy: dict[str, list[tuple[float, int]]] = {t: [(0.0, 0)] for t in self.names}
        self.now = 0.0
        self._channels = _stream(config.seed, "channels")

        true_p = config.terminals.true_retrieval
        self.true_retrieval = config.terminals.base_reliability if true_p is None else true_p

        self.stores: dict[str, ReplicaStore] = {}
        for terminal in self.names:
            self.stores[terminal] = ReplicaStore(
                terminal,
                config.terminals.quota_bytes,
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
    def _generator(self) -> np.random.PCG64:
        """Payload generator, built once per run (numpy's seeding is slow) and
        given a fresh state for each payload by `_payload_for`; numpy is first
        imported here, so size-only runs never load it."""
        import numpy as np

        return np.random.PCG64(0)

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
        return self.index.pinned((item_id, version))

    def _deletion_hook(self, terminal: str):
        def hook(replica, reason: str) -> None:
            key, index = replica.fragment.key, replica.fragment.index
            self._record_occupancy(terminal)
            self._trace("DELETE", terminal=terminal, item=key, frag=index, reason=reason)
        return hook

    def _record_occupancy(self, terminal: str) -> None:
        points = self.occupancy[terminal]
        used = self.stores[terminal].used_bytes
        if points[-1][1] != used:
            points.append((self.now, used))

    def success_of(self, key: VersionKey) -> float:
        """Composite restore probability of a version; the queues cache its deficit."""
        return composite_success(self.index.get(key), self.tables, self.index)

    def _fragment_for(self, key: VersionKey, i: int) -> Fragment:
        """Fragment i of a version; its payload and `FragmentSet` are made at the first request."""
        fragments = self.fragment_sets.get(key)
        if fragments is None:
            item = self.index.get(key)
            payload = _payload_for(key, item.size_bytes, self._generator)
            fragments = self.fragment_sets[key] = split(
                payload, item.n, item.k, item_id=item.id, version=item.version
            )
        return fragments.fragment(i)

    # -- event handlers --------------------------------------------------

    def _on_produced(self, event: DataProducedEvent) -> None:
        owner = event.owner
        if not self.alive[owner]:
            return
        item = event.item  # `process` registered it
        self.owned_ids[owner][item.id] = None
        raised = propagate_priority(self.index, item)
        self.tables[item.key] = ReliabilityTable.fresh(item.k)
        self.schedulers[owner].enqueue(item, self.success_of(item.key))
        # a raised dependency may fall short of its new target again, in its own owner's queue
        for dep_key in sorted(raised):
            dep = self.index.get(dep_key)
            dep_scheduler = self.schedulers[dep.owner]
            if dep_key in dep_scheduler.queue:
                dep_scheduler.queue.notice(dep_key)  # its deficit grew
            elif self.alive[dep.owner] and not self.index.is_on_server(dep_key):
                dep_scheduler.enqueue(dep, self.success_of(dep_key))
        self._trace("PRODUCE", item.size_bytes, owner=owner, item=item.key)

    def _send_owner_notices(self, owner: str, peer: str) -> None:
        """The owner tells a peer which of its held versions are superseded.

        Only the replicas the peer holds for this owner are visited, in
        key order, so each item's last one is its newest held version.
        """
        store = self.stores[peer]
        newest_held = {r.fragment.item_id: r.fragment.version for r in store.replicas_of(owner)}
        for item_id, held in newest_held.items():
            if held >= (latest := self.index.latest_version(item_id)):
                continue
            if store.notify(NoticeSource.OWNER_NOTICE, owner, item_id, latest):
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
            scheduler.on_meeting(_PeerTerminal(self, peer), link, now=self.now)
            self._record_occupancy(peer)

    def _mark_served(self, key: VersionKey) -> None:
        self.index.mark_on_server(key)
        self.server_fragments.pop(key, None)
        self.tables.notice_dependents(key)

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

        while (key := scheduler.queue.pull(scheduler.deficit_of, eligible)):
            item = self.index.get(key)
            if item.expired(self.now):
                continue
            budget -= item.size_bytes
            self.bytes_to_server += item.size_bytes
            self._mark_served(key)
            self._trace("UPLOAD_ITEM", item.size_bytes, from_=owner, item=key)
        return budget

    def _flush_held_replicas(self, terminal: str, budget: int) -> set[tuple[str, str]]:
        store = self.stores[terminal]
        uploaded_ids: set[tuple[str, str]] = set()  # (owner, item id)
        for replica in store.replicas():
            key = replica.fragment.key
            if self.index.is_on_server(key):
                continue
            if replica.state is ReplicaState.CONFIRMED_SAVED:
                continue
            if replica.state is ReplicaState.OUTDATED and not self._pin_check(*key):
                continue  # superseded and protecting nothing: not worth budget
            have, size = self.server_fragments.get(key, {}), replica.size_bytes
            if replica.fragment.index in have or size > budget:
                continue
            budget -= size
            have[replica.fragment.index] = replica.fragment
            self.server_fragments[key] = have
            self.bytes_to_server += size
            uploaded_ids.add((replica.item.owner, key[0]))
            self._trace("UPLOAD_FRAG", size, from_=terminal, item=key, frag=replica.fragment.index)
            if len(have) >= self.index.get(key).k:
                self._mark_served(key)
        return uploaded_ids

    def _confirm_served(self, terminal: str, uploaded_ids: set[tuple[str, str]]) -> None:
        store = self.stores[terminal]
        for owner, item_id in store.held_items():
            vmax = self.index.latest_on_server(item_id)
            if vmax is None:
                continue
            uploaded = (owner, item_id) in uploaded_ids
            source = NoticeSource.SAVE_BY_ME if uploaded else NoticeSource.SERVER_NOTICE
            if store.notify(source, owner, item_id, vmax):
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

    def _current_items(self, item_ids: Iterable[str]) -> list[DataItem]:
        """Latest version of each item, less expired ones: what restores and losses count."""
        items = (self.index.get((i, self.index.latest_version(i))) for i in item_ids)
        return [item for item in items if not item.expired(self.now)]

    def _placement(self, owners: list[str]) -> Placement:
        """Replicas on live peers per version, of the listed owners, through each
        store's per-owner query. Holders come in name order, each one's replicas
        in index order, whatever the set order. Every replica's owner is a producer
        and producers sort as store keys do, so given them all, it is `replicas()`."""
        view: Placement = {}
        for terminal in self.names:
            if self.alive[terminal]:
                store = self.stores[terminal]
                for replica in (r for owner in owners for r in store.replicas_of(owner)):
                    holders = view.setdefault(replica.fragment.key, {})
                    holders.setdefault(terminal, []).append(replica)
        return view

    def _restorable(self, key: VersionKey, memo: dict[VersionKey, bool],
                    placement: Placement) -> bool:
        if key in memo:
            return memo[key]
        memo[key] = False
        item = self.index.get(key)
        if self.index.is_on_server(key):
            own_ok = True
        else:  # the fragments reachable now: server indices ascending, then live peers'
            on_server = self.server_fragments.get(key, {})
            available = {idx: on_server[idx] for idx in sorted(on_server)}
            for replicas in placement.get(key, {}).values():
                for replica in replicas:
                    if replica.fragment.index not in available and replica.fate:
                        available[replica.fragment.index] = replica.fragment
            own_ok = len(available) >= item.k
            if own_ok and self.config.payload_mode:
                rebuilt = memoryview(reconstruct(list(available.values())[: item.k]))
                # every fragment found came from `_fragment_for`, so the version's set exists
                data = self.fragment_sets[key].data  # systematic: the payload's chunks
                chunk = chunk_size(item.size_bytes, item.k)
                # byte for byte against each padded data chunk, without joining them
                if len(rebuilt) != item.size_bytes or not all(
                    f.payload.startswith(rebuilt[i * chunk : (i + 1) * chunk])
                    for i, f in enumerate(data)
                ):
                    raise IntegrityError(f"reconstruction of {key} does not match the original")
        ok = own_ok and all(self._restorable(d, memo, placement) for d in item.temporal_deps)
        memo[key] = ok
        return ok

    def _on_restore(self, event: RestoreAttemptEvent) -> None:
        owner = event.owner
        memo: dict[VersionKey, bool] = {}
        # only the owners in the checked versions' closure; generated chains stay in one owner
        versions = {i: self.index.versions_of(i) for i in sorted(self.owned_ids.get(owner, []))}
        checked = self.index.dependency_closure((i, v) for i, vs in versions.items() for v in vs)
        placement = self._placement(sorted({owner} | {self.index.get(k).owner for k in checked}))
        for key, predicted in self.pending_restores.pop(owner, []):
            realized = self._restorable(key, memo, placement)
            self.episodes.append((predicted, 1 if realized else 0))
        for item_id, item_versions in versions.items():
            best = None
            for version in item_versions:
                if self._restorable((item_id, version), memo, placement):
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
            report = detect_conflict(self.index.records_for(item_id, placement), restored_from, best)
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
        may call it directly with hand-built events in time order. An event
        behind the clock, naming an unknown terminal, or producing another
        owner's item or a non-producer's raises `ConfigError` and changes nothing.
        A version the index refuses (a repeated or non-increasing version, an
        unregistered dependency) raises its index error, also before any change.
        """
        if event.time < self.now:
            raise ConfigError(f"event at {event.time} is behind the clock {self.now}")
        handler = self._HANDLERS.get(type(event))
        if handler is None:
            raise ConfigError(f"unknown event type {type(event).__name__}")
        for terminal in _terminals_named(event):
            if terminal not in self.alive:
                raise ConfigError(f"{type(event).__name__} names unknown terminal {terminal!r}")
        if isinstance(event, DataProducedEvent):
            if event.owner not in self.schedulers:
                raise ConfigError(f"{event.owner!r} is not a producer")
            if event.item.owner != event.owner:
                raise ConfigError(f"{event.owner!r} cannot produce {event.item.owner!r}'s item")
            if self.alive[event.owner]:
                self.index.register(event.item)  # refuses a bad version before the clock moves
        self.now = event.time
        return handler(self, event) or ()

    def run(self) -> MetricsReport:
        """Process the generated timeline, then `finish` the run.

        The sorted timeline is walked in order, each event dropped as it goes.
        Only follow-ups (restore attempts) wait, in a FIFO; one runs before the
        next timeline event only if it is strictly earlier. A FIFO is in time
        order: only failures have follow-ups, each due `restore_delay_s` after
        its failure, and events run in time order.
        """
        timeline = generate_events(self.config)[::-1]  # pop() from the end: time order
        follow_ups: deque[Event] = deque()
        while timeline or follow_ups:
            if follow_ups and (not timeline or follow_ups[0].time < timeline[-1].time):
                event = follow_ups.popleft()
            else:
                event = timeline.pop()
            follow_ups.extend(self.process(event))
        return self.finish()

    def finish(self) -> MetricsReport:
        """Close the run: classify every item at `horizon_s` and report.

        Items are measured at the horizon even when scripted events ran past
        it. Stores and schedulers are released as soon as the placement view
        of every live replica exists, before any version is classified:
        nothing after the view reads them, so the stores' indexes and the
        schedulers' state are not held while the outcomes and the report are
        built. They call back into the simulation, so releasing them also
        lets a finished run be freed by reference counting alone, fragment
        sets included, without waiting for the cycle collector. A run is
        finished once.
        """
        self.now = self.config.horizon_s
        memo: dict[VersionKey, bool] = {}
        placement = self._placement(self.producers)
        self.stores.clear()
        self.schedulers.clear()
        outcomes: dict[str, str] = {}
        for key in sorted(self.index.keys()):
            if self.index.is_on_server(key):
                outcome = OUTCOME_SAFE
            elif self._restorable(key, memo, placement):
                outcome = OUTCOME_RECOVERABLE
            else:
                outcome = OUTCOME_LOST
            outcomes[f"{key[0]}@{key[1]}"] = outcome

        measured = [
            (item, outcomes[f"{item.id}@{item.version}"])
            for owner in self.producers
            for item in self._current_items(self.owned_ids[owner])
        ]
        lost, members = [0] * len(_BANDS), [0] * len(_BANDS)
        for item, outcome in measured:
            band = bisect_right(_BAND_TOPS, item.priority)
            lost[band] += outcome == OUTCOME_LOST
            members[band] += 1
        loss_ratio = sum(lost) / len(measured) if measured else 0.0
        by_band = {
            f"{lo:.2f}-{hi:.2f}": band_lost / count
            for (lo, hi), band_lost, count in zip(_BANDS, lost, members) if count
        }

        produced = len(self.index)
        saved = sum(table.fragments_saved for table in self.tables.values())
        return MetricsReport(
            seed=self.config.seed,
            horizon_s=self.config.horizon_s,
            items_produced=produced,
            items_measured=len(measured),
            outcomes=outcomes,
            loss_ratio=loss_ratio,
            loss_ratio_by_band=by_band,
            fragments_saved=saved,
            mean_fragments_per_item=(saved / produced) if produced else 0.0,
            bytes_to_peers=self.bytes_to_peers,
            bytes_to_server=self.bytes_to_server,
            conflict_count=len(self.conflicts),
            conflicts=tuple(self.conflicts),
            calibration_episodes=tuple(self.episodes),
            occupancy={t: tuple(points) for t, points in self.occupancy.items()},
        )


class _PeerTerminal:
    """Adapter presenting a peer's store to one owner's session of a meeting."""

    def __init__(self, sim: Simulation, terminal_id: str) -> None:
        self._sim = sim
        self.terminal_id = terminal_id
        self.channel = sim.config.terminals.base_reliability
        self._fates: dict[VersionKey, bool] = {}  # the session's fate draw per version

    def free_bytes(self) -> int:
        return self._sim.stores[self.terminal_id].free_bytes(self._sim.now)

    def save(self, fragment, item: DataItem, declared_success: float) -> None:
        sim, key = self._sim, item.key
        replica = sim.stores[self.terminal_id].accept(fragment, item, declared_success, sim.now)
        if replica is None:
            raise IntegrityError(f"{self.terminal_id} refused a fitting fragment of {key}")
        if key not in self._fates:  # drawn at the session's first accepted fragment of it
            self._fates[key] = sim._channels.random() < sim.true_retrieval
        replica.fate = self._fates[key]
        sim.bytes_to_peers += replica.size_bytes
        sim._trace("SAVE", replica.size_bytes, from_=item.owner, to=self.terminal_id, item=key,
                   frag=fragment.index)


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

"""Cross-layer invariants under random event streams.

A Hypothesis state machine drives `Simulation.process` with productions
(new items, updates, dependency chains, with and without lifetimes),
encounters, infrastructure windows, failures and the restores they
schedule. After every event it checks the incremental state against
recomputation from scratch:

* `purge(now)` deletes exactly what a full scan selects, in key order
  and for the same reasons;
* every store's byte count equals the recomputed sum;
* every store's per-owner item index equals a full scan of its keys;
* the version index's peer holdings equal the union of store contents;
* the channel fates are keyed by exactly the held replicas;
* no pinned replica is ever deleted as useless;
* the memoised `success_of` equals a fresh `composite_success`;
* every backup queue, once its pending notices are applied, caches each
  entry's current deficit, and its next meeting pick is the linear-scan
  argmax over (-deficit, seq) of the entries not yet exhausted.
"""

from __future__ import annotations

import copy

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from oppbak.model import DataItem, Production
from oppbak.peer import ReplicaState
from oppbak.reliability import composite_success
from oppbak.scenario import config_from_dict
from oppbak.sim import (
    DataProducedEvent,
    EncounterEvent,
    InternetWindowEvent,
    Simulation,
    TerminalFailureEvent,
)

TERMINALS = [f"t{i:02d}" for i in range(5)]  # as Simulation names them
PRODUCERS = TERMINALS[:3]

CONFIG = config_from_dict(
    {
        "seed": 7,
        "horizon_s": 1e9,
        "payload_mode": False,
        "restore_delay_s": 30.0,
        "terminals": {"count": len(TERMINALS), "producers": len(PRODUCERS),
                      "quota_bytes": 6_000, "base_reliability": 0.8,
                      "true_retrieval": 0.7},
        "workload": {"items_per_hour": 0.0},
        "mobility": {"encounter_rate_per_hour": 0.0},
        "infrastructure": {"window_rate_per_hour": 0.0},
        "failures": {"rate_per_hour": 0.0},
        "eviction": {"per_owner_cap": 0.5},  # refused saves roll their fold back
    }
)

steps = st.sampled_from([0.0, 1.0, 10.0, 60.0, 300.0])


class SimulationMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.sim = Simulation(CONFIG, trace=self._on_trace)
        self.restores: list = []  # follow-up events not yet processed
        self.counter = 0
        self.deleted: list[tuple[str, str]] = []  # (item@version, reason)

    def _on_trace(self, line: str) -> None:
        fields = line.split()
        if fields[1] != "DELETE":
            return
        attrs = dict(f.split("=", 1) for f in fields[2:])
        item_id, version = attrs["item"].rsplit("@", 1)
        if attrs["reason"] == "useless":
            assert not self.sim._pin_check(item_id, int(version)), line
        self.deleted.append((attrs["item"], attrs["reason"]))

    # -- driving ---------------------------------------------------------

    def _advance(self, dt: float) -> float:
        """Process restores due by now + dt and return that time."""
        target = self.sim.now + dt
        self.restores.sort(key=lambda e: e.time)
        while self.restores and self.restores[0].time <= target:
            self._process(self.restores.pop(0))
        return target

    def _process(self, event) -> None:
        self.restores.extend(self.sim.process(event))

    @rule(
        owner=st.sampled_from(PRODUCERS),
        kind=st.sampled_from(["new", "update", "chain"]),
        pick=st.integers(0, 1_000),
        size=st.integers(100, 2_500),
        priority=st.floats(0.3, 0.99),
        lifetime=st.sampled_from([None, None, 120.0, 1_200.0]),
        dt=steps,
    )
    def produce(self, owner, kind, pick, size, priority, lifetime, dt):
        now = self._advance(dt)
        index = self.sim.index
        own_ids = self.sim.owned_ids[owner]
        deps: tuple = ()
        if kind == "update" and own_ids:
            item_id = own_ids[pick % len(own_ids)]
            prev = index.latest_version(item_id)
            version, deps, production = prev + 1, ((item_id, prev),), Production.READ_WRITE
        else:
            item_id = f"{owner}/d{self.counter:03d}"
            self.counter += 1
            version, production = 1, Production.CREATE_ONLY
            if kind == "chain" and own_ids:
                dep_id = own_ids[pick % len(own_ids)]
                deps = ((dep_id, index.latest_version(dep_id)),)
        item = DataItem(
            id=item_id, owner=owner, size_bytes=size, priority=priority, n=4, k=2,
            version=version, production=production,
            lifetime=None if lifetime is None else now + lifetime, temporal_deps=deps,
        )
        self._process(DataProducedEvent(time=now, owner=owner, item=item))

    @rule(owner=st.sampled_from(PRODUCERS), peer=st.sampled_from(TERMINALS),
          duration=st.sampled_from([0.1, 0.5, 2.0]), dt=steps)
    def encounter(self, owner, peer, duration, dt):
        if owner == peer:
            return
        a, b = sorted((owner, peer))
        self._process(EncounterEvent(time=self._advance(dt), a=a, b=b,
                                     duration=duration, bandwidth=5_000.0))

    @rule(terminal=st.sampled_from(TERMINALS), duration=st.sampled_from([0.0, 0.05, 0.2]),
          dt=steps)
    def window(self, terminal, duration, dt):
        self._process(InternetWindowEvent(time=self._advance(dt), terminal=terminal,
                                          duration=duration, bandwidth=10_000.0))

    @precondition(lambda self: sum(self.sim.alive.values()) > len(TERMINALS) - 2)
    @rule(terminal=st.sampled_from(TERMINALS), dt=steps)
    def failure(self, terminal, dt):
        self._process(TerminalFailureEvent(time=self._advance(dt), terminal=terminal))

    @precondition(lambda self: self.restores)
    @rule()
    def restore(self):
        self._advance(max(0.0, min(e.time for e in self.restores) - self.sim.now))

    # -- invariants ------------------------------------------------------

    @invariant()
    def purge_matches_full_scan(self):
        now = self.sim.now
        for terminal, store in self.sim.stores.items():
            expected = []
            for replica in store.replicas():
                f = replica.fragment
                if replica.expired(now):
                    expected.append((replica.key, "expired"))
                elif (replica.state is not ReplicaState.LIVE
                      and not self.sim._pin_check(f.item_id, f.version)):
                    expected.append((replica.key, "useless"))
            self.deleted.clear()
            got = store.purge(now)
            assert got == [key for key, _ in expected], terminal
            assert self.deleted == [
                (f"{key[1]}@{key[2]}", reason) for key, reason in expected
            ], terminal

    @invariant()
    def used_bytes_match_recount(self):
        for store in self.sim.stores.values():
            assert store.used_bytes == store.recomputed_used_bytes()

    @invariant()
    def owner_index_matches_full_scan(self):
        for terminal, store in self.sim.stores.items():
            keys = [replica.key for replica in store.replicas()]
            for owner in PRODUCERS:
                expected = sorted({item_id for who, item_id, _, _ in keys if who == owner})
                assert store.item_ids_of(owner) == expected, (terminal, owner)

    @invariant()
    def holdings_match_store_contents(self):
        held: dict = {}
        for terminal, store in self.sim.stores.items():
            for replica in store.replicas():
                held.setdefault(replica.version_key, {}).setdefault(terminal, set()).add(
                    replica.fragment.index
                )
        index = self.sim.index
        for key in index.keys():
            expected = {t: frozenset(i) for t, i in held.pop(key, {}).items()}
            assert index.peer_holdings(key) == expected, key
        assert not held  # every held replica belongs to a registered version

    @invariant()
    def fates_match_held_replicas(self):
        held = {
            (terminal, *replica.version_key, replica.fragment.index)
            for terminal, store in self.sim.stores.items()
            for replica in store.replicas()
        }
        assert self.sim.fates.keys() == held

    @invariant()
    def memoised_success_is_fresh(self):
        index, tables = self.sim.index, self.sim.tables
        for key in sorted(index.keys()):
            assert self.sim.success_of(key) == composite_success(index.get(key), tables, index)

    @invariant()
    def queue_matches_linear_scan(self):
        index = self.sim.index
        for scheduler in self.sim.schedulers.values():
            queue = copy.deepcopy(scheduler.queue)
            assert queue.pull(scheduler.deficit_of, lambda key: False) is None  # notices only
            entries = queue._entries
            for key, (neg_deficit, _, _) in entries.items():
                assert -neg_deficit == scheduler.deficit_of(key) > 0.0, key
            sendable = [entry for key, entry in entries.items()
                        if scheduler.fragments_sent(key) < index.get(key).n]
            expected = min(sendable)[2] if sendable else None
            assert queue.pull(scheduler.deficit_of) == expected


SimulationMachine.TestCase.settings = settings(
    max_examples=50,
    stateful_step_count=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestSimulationInvariants = SimulationMachine.TestCase

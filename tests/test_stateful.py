"""Cross-layer invariants under random event streams.

A Hypothesis state machine drives `Simulation.process` with productions
(new items, updates, dependency chains, with and without lifetimes),
encounters, infrastructure windows, failures and the restores they
schedule. After every event it checks the incremental state against
recomputation from scratch:

* `purge(now)` deletes exactly what a full scan selects, in key order
  and for the same reasons;
* every store's byte count equals the recomputed sum;
* every store's key list is strictly ascending, and its per-owner
  replicas and held (owner, item id) pairs equal a full scan of it;
* the version index's peer holdings equal the union of store contents;
* every held replica carries a drawn channel fate;
* the simulator keeps uploaded fragments only for versions partly
  uploaded: not on the server, with 1 to k - 1 fragments there;
* no pinned replica is ever deleted as useless;
* every backup queue, once its pending notices are applied, caches each
  entry's current deficit, and its next meeting pick is the linear-scan
  argmax over (-deficit, seq) of the entries not yet exhausted;
* the reliability tables together count every SAVE line traced.
"""

from __future__ import annotations

import copy

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from oppbak.model import DataItem
from oppbak.peer import ReplicaState
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
        self.saves = 0

    def _on_trace(self, line: str) -> None:
        fields = line.split()
        self.saves += fields[1] == "SAVE"
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
            version, deps = prev + 1, ((item_id, prev),)
        else:
            item_id = f"{owner}/d{self.counter:03d}"
            self.counter += 1
            version = 1
            if kind == "chain" and own_ids:
                dep_id = own_ids[pick % len(own_ids)]
                deps = ((dep_id, index.latest_version(dep_id)),)
        item = DataItem(
            id=item_id, owner=owner, size_bytes=size, priority=priority, n=4, k=2,
            version=version,
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
    def used_bytes_match_stored_sizes(self):
        for store in self.sim.stores.values():
            assert store.used_bytes == sum(r.size_bytes for r in store.replicas())

    @invariant()
    def replicas_of_matches_full_scan(self):
        for terminal, store in self.sim.stores.items():
            replicas = store.replicas()
            keys = [r.key for r in replicas]
            assert all(a < b for a, b in zip(keys, keys[1:])), terminal
            assert len(keys) == len(store), terminal
            for owner in PRODUCERS:
                expected = [r for r in replicas if r.item.owner == owner]
                assert store.replicas_of(owner) == expected, (terminal, owner)
            pairs = [(r.item.owner, r.fragment.item_id) for r in replicas]
            assert store.held_items() == sorted(set(pairs)), terminal

    @invariant()
    def held_replicas_belong_to_registered_versions_of_their_owner(self):
        index = self.sim.index
        for terminal, store in self.sim.stores.items():
            for replica in store.replicas():
                key = replica.fragment.key
                assert key in index and index.get(key).owner == replica.item.owner, (terminal, key)

    @invariant()
    def held_replicas_carry_drawn_fates(self):
        for terminal, store in self.sim.stores.items():
            for replica in store.replicas():
                assert replica.fate is not None, (terminal, replica.key)

    @invariant()
    def server_fragments_only_while_partly_uploaded(self):
        index = self.sim.index
        for key, fragments in self.sim.server_fragments.items():
            assert not index.is_on_server(key), key
            assert 1 <= len(fragments) < index.get(key).k, key

    @invariant()
    def queue_matches_linear_scan(self):
        index = self.sim.index
        for scheduler in self.sim.schedulers.values():
            queue = copy.deepcopy(scheduler.queue)
            assert queue.pull(scheduler.deficit_of, lambda key: False) is None  # notices only
            entries = queue._entries
            for key, (neg_deficit, _, _) in entries.items():
                assert -neg_deficit == scheduler.deficit_of(key) > 0.0, key

            def sendable(key):
                return scheduler.tables[key].fragments_saved < index.get(key).n

            candidates = [entry for key, entry in entries.items() if sendable(key)]
            expected = min(candidates)[2] if candidates else None
            assert queue.pull(scheduler.deficit_of, sendable) == expected

    @invariant()
    def tables_count_every_save(self):
        assert sum(t.fragments_saved for t in self.sim.tables.values()) == self.saves


SimulationMachine.TestCase.settings = settings(
    max_examples=50,
    stateful_step_count=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestSimulationInvariants = SimulationMachine.TestCase

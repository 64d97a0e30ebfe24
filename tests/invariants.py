"""Cross-layer invariants of a `Simulation`, checked against recomputation.

`check_invariants(sim, log)` holds between any two events, where `log` is
the `TraceLog` the simulation traces to. It checks the incremental state
against recomputation from scratch:

* `purge(now)` deletes exactly what a full scan selects, in key order
  and for the same reasons;
* every store's byte count equals the recomputed sum and is at most its
  quota;
* every store's key list is strictly ascending, and its per-owner
  replicas and held (owner, item id) pairs equal a full scan of it;
* every held replica belongs to a registered version of its owner and
  carries a drawn channel fate;
* the simulator keeps uploaded fragments only for versions partly
  uploaded: not on the server, with 1 to k - 1 fragments there;
* no pinned replica is ever deleted as useless (checked as each DELETE
  line is traced);
* every backup queue, once its pending notices are applied, caches each
  entry's current deficit, and its next meeting pick is the linear-scan
  argmax over (-deficit, seq) of the entries not yet exhausted;
* the reliability tables together count every SAVE line traced.

The purge check purges every store, so a checked run may delete replicas
earlier than an unchecked one would: its trace is not a plain run's.
`CheckedSimulation` runs the check after every `process`.
"""

from __future__ import annotations

import copy
from typing import Optional

from oppbak.peer import ReplicaState
from oppbak.scenario import ScenarioConfig
from oppbak.sim import Event, Simulation


class TraceLog:
    """Trace sink that counts SAVE lines and records, and checks, DELETE lines."""

    def __init__(self) -> None:
        self.sim: Optional[Simulation] = None  # set once the simulation exists
        self.saves = 0
        self.deleted: list[tuple[str, str]] = []  # (item@version, reason)

    def __call__(self, line: str) -> None:
        fields = line.split()
        self.saves += fields[1] == "SAVE"
        if fields[1] != "DELETE":
            return
        attrs = dict(f.split("=", 1) for f in fields[2:])
        item_id, version = attrs["item"].rsplit("@", 1)
        if attrs["reason"] == "useless":
            assert not self.sim._pin_check(item_id, int(version)), line
        self.deleted.append((attrs["item"], attrs["reason"]))


def traced_simulation(config: ScenarioConfig, cls: type[Simulation] = Simulation):
    """A simulation of `config` tracing to a fresh `TraceLog`, and that log."""
    log = TraceLog()
    log.sim = cls(config, trace=log)
    return log.sim, log


def check_invariants(sim: Simulation, log: TraceLog) -> None:
    now, index = sim.now, sim.index
    for terminal, store in sim.stores.items():
        replicas = store.replicas()
        keys = [r.key for r in replicas]
        assert all(a < b for a, b in zip(keys, keys[1:])), terminal
        assert len(keys) == len(store), terminal
        assert store.used_bytes == store.recomputed_used_bytes(), terminal
        assert store.used_bytes == sum(r.size_bytes for r in replicas), terminal
        assert store.used_bytes <= store.quota_bytes, terminal
        for owner in sim.producers:
            expected = [r for r in replicas if r.item.owner == owner]
            assert store.replicas_of(owner) == expected, (terminal, owner)
        pairs = [(r.item.owner, r.fragment.item_id) for r in replicas]
        assert store.held_items() == sorted(set(pairs)), terminal
        for replica in replicas:
            key = replica.fragment.key
            assert key in index and index.get(key).owner == replica.item.owner, (terminal, key)
            assert replica.fate is not None, (terminal, replica.key)

        expected_purge = []
        for replica in replicas:
            f = replica.fragment
            if replica.expired(now):
                expected_purge.append((replica.key, "expired"))
            elif (replica.state is not ReplicaState.LIVE
                  and not sim._pin_check(f.item_id, f.version)):
                expected_purge.append((replica.key, "useless"))
        log.deleted.clear()
        assert store.purge(now) == [key for key, _ in expected_purge], terminal
        assert log.deleted == [
            (f"{key[1]}@{key[2]}", reason) for key, reason in expected_purge
        ], terminal

    for key, fragments in sim.server_fragments.items():
        assert not index.is_on_server(key), key
        assert 1 <= len(fragments) < index.get(key).k, key

    for scheduler in sim.schedulers.values():
        queue = copy.copy(scheduler.queue)  # a pull changes only the containers
        queue._entries, queue._order = dict(queue._entries), list(queue._order)
        queue._noticed = set(queue._noticed)
        assert queue.pull(scheduler.deficit_of, lambda key: False) is None  # notices only
        entries = queue._entries
        assert queue._order == sorted(entries.values()), scheduler.owner
        for key, (neg_deficit, _, _) in entries.items():
            assert -neg_deficit == scheduler.deficit_of(key) > 0.0, key

        def sendable(key):
            return scheduler.tables[key].fragments_saved < index.get(key).n

        candidates = [entry for key, entry in entries.items() if sendable(key)]
        expected_pick = min(candidates)[2] if candidates else None
        assert queue.pull(scheduler.deficit_of, sendable) == expected_pick

    assert sum(t.fragments_saved for t in sim.tables.values()) == log.saves


class CheckedSimulation(Simulation):
    """A simulation that checks every invariant after each event it processes.

    Its trace sink must be a `TraceLog`; build it with `traced_simulation`.
    """

    def process(self, event: Event) -> tuple[Event, ...]:
        follow_ups = super().process(event)
        check_invariants(self, self.trace_sink)
        return follow_ups

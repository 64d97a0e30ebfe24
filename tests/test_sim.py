import dataclasses
import gc
import hashlib
import itertools
import math
import weakref

import numpy as np
import pytest

from oppbak import dispersal
from oppbak.dispersal import fragment_wire_size
from oppbak import sim as sim_module
from oppbak.model import DataItem, IntegrityError, UsageError
from oppbak.peer import NoticeSource, ReplicaStore
from oppbak.reliability import ReliabilityTable, composite_success
from oppbak.scenario import ConfigError, config_from_dict
from oppbak.sim import (
    BatchReport,
    DataProducedEvent,
    EncounterEvent,
    InternetWindowEvent,
    MetricsReport,
    RestoreAttemptEvent,
    Simulation,
    TerminalFailureEvent,
    _payload_for,
    _stream,
    _terminal_names,
    _t_critical,
    calibration_check,
    generate_events,
    run,
    run_batch,
)


def quiet_config(**overrides):
    """A world where nothing happens unless the test scripts it."""
    base = {
        "seed": 1,
        "horizon_s": 3600.0,
        "payload_mode": True,
        "terminals": {"count": 3, "producers": 1, "quota_bytes": 10**6,
                      "base_reliability": 0.9, "true_retrieval": 1.0},
        "workload": {"items_per_hour": 0.0},
        "mobility": {"encounter_rate_per_hour": 0.0},
        "infrastructure": {"window_rate_per_hour": 0.0},
        "failures": {"rate_per_hour": 0.0},
    }
    for section, value in overrides.items():
        if isinstance(value, dict):
            base[section] = {**base[section], **value}
        else:
            base[section] = value
    return config_from_dict(base)


def produce(sim, time, item):
    sim.process(DataProducedEvent(time=time, owner=item.owner, item=item))


def meet(sim, time, a, b, budget_bytes):
    sim.process(
        EncounterEvent(time=time, a=a, b=b, duration=1.0, bandwidth=budget_bytes)
    )


def fail_and_restore(sim, time, terminal):
    for follow_up in sim.process(TerminalFailureEvent(time=time, terminal=terminal)):
        sim.process(follow_up)


def item_spec(item_id="t00/d0000", owner="t00", size=1000, priority=0.99,
              n=4, k=2, version=1, deps=(), lifetime=None):
    return DataItem(
        id=item_id, owner=owner, size_bytes=size, priority=priority,
        n=n, k=k, version=version, temporal_deps=deps, lifetime=lifetime,
    )


def holdings(sim, key):
    """Fragment indices of a version per terminal holding some, read from the stores."""
    replicas = {t: store.replicas_of(sim.index.get(key).owner) for t, store in sim.stores.items()}
    return {t: found for t, held in replicas.items()
            if (found := {r.fragment.index for r in held if r.fragment.key == key})}


def served_v1_then_v2_on_peers(sim, *fragments_per_peer):
    """v1 (n = k = 1) reaches the server; v2 (n=4, k=2) then goes to each peer in turn."""
    produce(sim, 1.0, item_spec("t00/d0000", n=1, k=1))
    sim.process(InternetWindowEvent(time=5.0, terminal="t00", duration=1.0, bandwidth=10**6))
    produce(sim, 6.0, item_spec("t00/d0000", version=2, n=4, k=2, deps=(("t00/d0000", 1),)))
    for i, (peer, count) in enumerate(fragments_per_peer):
        meet(sim, 10.0 + i, "t00", peer, count * fragment_wire_size(1000, 2))


def v1_restored_over(*newer_peers):
    """The conflict of v1 restored from the server while v2 sits on `newer_peers`."""
    return {"item_id": "t00/d0000", "restored_version": 1, "restored_from": "server",
            "newer_version": 2, "newer_location": "peer", "newer_peers": list(newer_peers)}


class TestScriptedRuns:
    def test_no_backup_paths_means_lost(self):
        sim = Simulation(quiet_config())
        produce(sim, 1.0, item_spec())
        fail_and_restore(sim, 100.0, "t00")
        report = sim.finish()
        assert report.outcomes == {"t00/d0000@1": "lost"}
        assert report.loss_ratio == 1.0
        assert report.calibration_episodes == ((0.0, 0),)

    def test_an_item_first_produced_past_version_one_is_its_owners(self):
        sim = Simulation(quiet_config())
        produce(sim, 1.0, item_spec(version=3))
        (restore,) = sim.process(TerminalFailureEvent(time=100.0, terminal="t00"))
        assert sim.pending_restores == {"t00": [(("t00/d0000", 3), 0.0)]}
        sim.process(restore)
        report = sim.finish()
        assert report.outcomes == {"t00/d0000@3": "lost"}
        assert (report.items_measured, report.loss_ratio) == (1, 1.0)
        assert report.calibration_episodes == ((0.0, 0),)

    def test_ample_window_before_failure_means_safe(self):
        sim = Simulation(quiet_config())
        produce(sim, 1.0, item_spec())
        sim.process(
            InternetWindowEvent(time=10.0, terminal="t00", duration=10.0, bandwidth=10**6)
        )
        fail_and_restore(sim, 100.0, "t00")
        report = sim.finish()
        assert report.outcomes == {"t00/d0000@1": "safe_on_server"}
        assert report.loss_ratio == 0.0
        assert report.calibration_episodes == ((1.0, 1),)
        assert report.bytes_to_server == 1000

    def test_k_fragments_on_surviving_peer_recoverable(self):
        sim = Simulation(quiet_config())
        produce(sim, 1.0, item_spec(size=1000, n=4, k=2))
        meet(sim, 10.0, "t00", "t01", 2 * fragment_wire_size(1000, 2))
        fail_and_restore(sim, 100.0, "t00")
        report = sim.finish()
        assert report.outcomes == {"t00/d0000@1": "recoverable_from_peers"}
        assert report.fragments_saved == 2
        assert report.calibration_episodes == ((0.9, 1),)  # estimate, honest fate

    def test_replica_deleted_in_the_meeting_that_saved_it(self, monkeypatch):
        """A save is booked as the store accepts it, so the meeting may delete it again."""
        save = sim_module._PeerTerminal.save

        def save_then_outdate(terminal, fragment, item, declared_success):
            save(terminal, fragment, item, declared_success)
            if fragment.index == 1:  # an owner notice names a newer version
                store = terminal._sim.stores[terminal.terminal_id]
                store.notify(NoticeSource.OWNER_NOTICE, item.owner, item.id, item.version + 1)
                store.purge(terminal._sim.now)

        monkeypatch.setattr(sim_module._PeerTerminal, "save", save_then_outdate)
        lines = []
        sim = Simulation(quiet_config(), trace=lines.append)
        produce(sim, 1.0, item_spec(size=1000, n=4, k=2))
        meet(sim, 10.0, "t00", "t01", 4 * fragment_wire_size(1000, 2))
        replicas = sim.stores["t01"].replicas()
        assert [r.fragment.index for r in replicas] == [2, 3]
        assert all(r.fate is True for r in replicas)
        assert holdings(sim, ("t00/d0000", 1)) == {"t01": {2, 3}}
        moves = [(line.split()[1], line.split("frag=")[1].split()[0])
                 for line in lines if "frag=" in line]
        assert moves == [("SAVE", "0"), ("SAVE", "1"), ("DELETE", "0"), ("DELETE", "1"),
                         ("SAVE", "2"), ("SAVE", "3")]
        fail_and_restore(sim, 100.0, "t00")
        report = sim.finish()
        assert report.outcomes == {"t00/d0000@1": "recoverable_from_peers"}
        assert report.fragments_saved == 4

    def test_corrupted_parity_fragment_fails_the_restore_check(self):
        sim = Simulation(quiet_config())
        key = ("t00/d0000", 1)
        produce(sim, 1.0, item_spec(size=1000, n=4, k=2))
        meet(sim, 10.0, "t00", "t01", fragment_wire_size(1000, 2))
        meet(sim, 20.0, "t00", "t02", 2 * fragment_wire_size(1000, 2))
        sim.process(TerminalFailureEvent(time=30.0, terminal="t01"))
        assert holdings(sim, key) == {"t01": {0}, "t02": {1, 2}}
        assert sim._restorable(key, {}, sim._placement(sim.producers))  # rebuilt from data 1 and parity 2
        replica = sim.stores["t02"].get(("t00", *key, 2))
        flipped = bytearray(replica.fragment.payload)
        flipped[0] ^= 0x01
        replica.fragment = dataclasses.replace(replica.fragment, payload=bytes(flipped))
        with pytest.raises(IntegrityError):
            sim._restorable(key, {}, sim._placement(sim.producers))

    @pytest.mark.parametrize("offset, mismatch", [(0, True), (498, True), (499, False)],
                             ids=["first byte", "last payload byte", "padding"])
    def test_restore_check_compares_every_payload_byte(self, offset, mismatch):
        sim = Simulation(quiet_config())
        key = ("t00/d0000", 1)
        produce(sim, 1.0, item_spec(size=999, n=4, k=2))  # chunks of 500: one pad byte
        meet(sim, 10.0, "t00", "t01", 2 * fragment_wire_size(999, 2))
        assert sim._restorable(key, {}, sim._placement(sim.producers))
        original = sim.fragment_sets[key]
        flipped = bytearray(original.data[1].payload)
        flipped[offset] ^= 0x01
        sim.fragment_sets[key] = dataclasses.replace(original, data=(
            original.data[0], dataclasses.replace(original.data[1], payload=bytes(flipped))))
        if mismatch:
            with pytest.raises(IntegrityError):
                sim._restorable(key, {}, sim._placement(sim.producers))
        else:
            assert sim._restorable(key, {}, sim._placement(sim.producers))

    @pytest.mark.parametrize("resize", [lambda b: b[:-1], lambda b: b + b"\x00"],
                             ids=["short", "long"])
    def test_restore_check_compares_the_length(self, monkeypatch, resize):
        sim = Simulation(quiet_config())
        produce(sim, 1.0, item_spec(size=999, n=4, k=2))
        meet(sim, 10.0, "t00", "t01", 2 * fragment_wire_size(999, 2))
        rebuild = sim_module.reconstruct
        monkeypatch.setattr(sim_module, "reconstruct", lambda fragments: resize(rebuild(fragments)))
        with pytest.raises(IntegrityError):
            sim._restorable(("t00/d0000", 1), {}, sim._placement(sim.producers))

    def test_no_parity_computed_while_only_data_fragments_are_sent(self, monkeypatch):
        dispersal._encode_matrix(4, 2)  # its own construction is not parity work
        combined = []
        real = dispersal._combine
        monkeypatch.setattr(
            dispersal, "_combine", lambda m, s: combined.append(len(m)) or real(m, s)
        )
        sim = Simulation(quiet_config())
        produce(sim, 1.0, item_spec(size=1000, n=4, k=2))
        produce(sim, 2.0, item_spec("t00/d0001", size=1000, n=4, k=2, priority=0.5))
        meet(sim, 10.0, "t00", "t01", 2 * fragment_wire_size(1000, 2))
        fail_and_restore(sim, 100.0, "t00")
        assert sim.finish().outcomes == {
            "t00/d0000@1": "recoverable_from_peers", "t00/d0001@1": "lost"
        }
        assert combined == []

    def test_k_minus_one_fragments_lost(self):
        sim = Simulation(quiet_config())
        produce(sim, 1.0, item_spec(size=1000, n=4, k=2))
        meet(sim, 10.0, "t00", "t01", fragment_wire_size(1000, 2))
        fail_and_restore(sim, 100.0, "t00")
        report = sim.finish()
        assert report.outcomes == {"t00/d0000@1": "lost"}
        assert report.fragments_saved == 1

    def test_failed_peer_does_not_count(self):
        sim = Simulation(quiet_config())
        produce(sim, 1.0, item_spec(size=1000, n=4, k=2))
        meet(sim, 10.0, "t00", "t01", 2 * fragment_wire_size(1000, 2))
        sim.process(TerminalFailureEvent(time=50.0, terminal="t01"))
        fail_and_restore(sim, 100.0, "t00")
        assert sim.finish().outcomes == {"t00/d0000@1": "lost"}

    def test_restore_needs_transitive_deps(self):
        sim = Simulation(quiet_config())
        produce(sim, 1.0, item_spec("t00/d0000", n=1, k=1, priority=0.5))
        meet(sim, 5.0, "t00", "t01", fragment_wire_size(1000, 1))
        produce(
            sim, 6.0,
            item_spec("t00/d0000", version=2, n=1, k=1, priority=0.99,
                      deps=(("t00/d0000", 1),)),
        )
        meet(sim, 10.0, "t00", "t02", fragment_wire_size(1000, 1))
        assert holdings(sim, ("t00/d0000", 1)) == {"t01": {0}}
        assert holdings(sim, ("t00/d0000", 2)) == {"t02": {0}}
        # the dependency's holder dies; v2's own bytes stay reachable
        sim.process(TerminalFailureEvent(time=50.0, terminal="t01"))
        fail_and_restore(sim, 100.0, "t00")
        report = sim.finish()
        assert report.outcomes["t00/d0000@2"] == "lost"
        assert report.outcomes["t00/d0000@1"] == "lost"

    def test_a_replica_keeps_the_item_it_was_saved_with(self):
        """The store holds the index's own `DataItem`, not a copy; a priority
        raised later replaces the index's record and leaves the replica's,
        whose overshoot the eviction score reads, as it was at the save."""
        sim = Simulation(quiet_config())
        produce(sim, 1.0, item_spec("t00/d0000", n=1, k=1, priority=0.5))
        meet(sim, 5.0, "t00", "t01", fragment_wire_size(1000, 1))
        saved = sim.index.get(("t00/d0000", 1))
        replica = sim.stores["t01"].get(("t00", "t00/d0000", 1, 0))
        assert replica.item is saved
        produce(sim, 6.0, item_spec("t00/d0000", version=2, n=1, k=1, priority=0.99,
                                    deps=(("t00/d0000", 1),)))
        assert sim.index.get(("t00/d0000", 1)).priority == 0.99
        assert replica.item is saved and replica.item.priority == 0.5

    def test_restore_reads_the_holders_of_another_owners_dependency(self):
        """A scripted chain may cross owners: t01's version depends on t00's,
        which only a peer holds, so t01's restore needs t00's replicas too."""
        lines = []
        sim = Simulation(quiet_config(terminals={"producers": 2}), trace=lines.append)
        produce(sim, 1.0, item_spec("t00/d0000", n=1, k=1, priority=0.5))
        meet(sim, 5.0, "t00", "t02", fragment_wire_size(1000, 1))
        produce(sim, 6.0, item_spec("t01/d0000", owner="t01", n=1, k=1,
                                    deps=(("t00/d0000", 1),)))
        meet(sim, 10.0, "t01", "t02", fragment_wire_size(1000, 1))
        assert holdings(sim, ("t00/d0000", 1)) == {"t02": {0}}
        assert holdings(sim, ("t01/d0000", 1)) == {"t02": {0}}
        fail_and_restore(sim, 100.0, "t01")
        assert [line.split(maxsplit=1)[1] for line in lines if " RESTORE" in line] == [
            "RESTORE owner=t01 item=t01/d0000@1 source=peer bytes=0"
        ]
        assert sim.episodes == [(pytest.approx(0.9 * 0.9), 1)]
        assert sim.finish().outcomes == {"t00/d0000@1": "recoverable_from_peers",
                                         "t01/d0000@1": "recoverable_from_peers"}

    def test_conflict_reported_on_restore(self):
        sim = Simulation(quiet_config(terminals={"quota_bytes": 10**6}))
        produce(sim, 1.0, item_spec("t00/d0000", n=1, k=1, priority=0.99))
        # v1 reaches the server
        sim.process(
            InternetWindowEvent(time=5.0, terminal="t00", duration=1.0, bandwidth=10**6)
        )
        # v2 only reaches a peer, and v2's fragment count stays below k... here
        # n=k=1 so one save is complete; make it unrestorable by failing the peer?
        # No: the conflict needs the newer version present on a live peer while
        # the restore returns the server copy. Use k=2 with one fragment saved.
        produce(
            sim, 6.0,
            item_spec("t00/d0000", version=2, n=4, k=2, deps=(("t00/d0000", 1),)),
        )
        meet(sim, 10.0, "t00", "t01", fragment_wire_size(1000, 2))
        fail_and_restore(sim, 100.0, "t00")
        report = sim.finish()
        assert report.conflict_count == 1
        conflict = report.conflicts[0]
        assert conflict["restored_version"] == 1
        assert conflict["restored_from"] == "server"
        assert conflict["newer_version"] == 2
        assert conflict["newer_peers"] == ["t01"]

    def test_conflict_names_only_live_holders(self):
        sim = Simulation(quiet_config())
        served_v1_then_v2_on_peers(sim, ("t01", 1), ("t02", 1))
        assert holdings(sim, ("t00/d0000", 2)) == {"t01": {0}, "t02": {1}}
        sim.process(TerminalFailureEvent(time=30.0, terminal="t01"))
        fail_and_restore(sim, 100.0, "t00")
        # one of v2's k=2 fragments is left, so the restore takes v1 from the server
        assert sim.finish().conflicts == (v1_restored_over("t02"),)

    @pytest.mark.parametrize("true_retrieval, v2_outcome, conflicts", [
        (1.0, "recoverable_from_peers", ()),
        (0.0, "lost", (v1_restored_over("t01"),)),
    ])
    def test_conflicts_read_placement_restores_read_reachable_fragments(
        self, true_retrieval, v2_outcome, conflicts
    ):
        sim = Simulation(quiet_config(terminals={"true_retrieval": true_retrieval}))
        served_v1_then_v2_on_peers(sim, ("t01", 2))
        assert holdings(sim, ("t00/d0000", 2)) == {"t01": {0, 1}}
        fail_and_restore(sim, 100.0, "t00")
        report = sim.finish()
        assert report.outcomes["t00/d0000@2"] == v2_outcome
        assert report.conflicts == conflicts

    def test_window_flush_skips_oversize_items(self):
        sim = Simulation(quiet_config())
        produce(sim, 1.0, item_spec("t00/d0000", size=50_000, priority=0.9))
        produce(sim, 2.0, item_spec("t00/d0001", size=400, priority=0.8))
        produce(sim, 3.0, item_spec("t00/d0002", size=300, priority=0.7))
        # window fits only the two small items; the big one must not block them
        sim.process(
            InternetWindowEvent(time=10.0, terminal="t00", duration=1.0, bandwidth=800)
        )
        assert sim.index.is_on_server(("t00/d0001", 1))
        assert sim.index.is_on_server(("t00/d0002", 1))
        assert not sim.index.is_on_server(("t00/d0000", 1))
        assert ("t00/d0000", 1) in sim.schedulers["t00"].queue  # retained

    def test_window_flush_skips_a_held_fragment_that_does_not_fit(self):
        trace: list[str] = []
        sim = Simulation(quiet_config(payload_mode=False), trace=trace.append)
        big = item_spec("t00/d0000", size=5000, n=1, k=1)
        small = item_spec("t00/d0000", version=2, size=300, n=1, k=1)
        produce(sim, 1.0, big)
        produce(sim, 2.0, small)
        meet(sim, 3.0, "t00", "t01", fragment_wire_size(5000, 1) + fragment_wire_size(300, 1))
        del trace[:]
        wire = fragment_wire_size(300, 1)
        sim.process(InternetWindowEvent(time=4.0, terminal="t01", duration=1.0, bandwidth=wire))
        # the 5,000 B fragment comes first and does not fit; the 300 B one still goes up
        assert [line.split()[1] for line in trace] == [
            "WINDOW", "UPLOAD_FRAG", "NOTICE", "DELETE", "DELETE"
        ]
        assert "item=t00/d0000@2" in trace[1]
        assert sim.index.is_on_server(small.key)

    @pytest.mark.parametrize("loop", ["meeting", "window"])
    def test_exhausted_entry_retired_when_satisfied_then_requeued_on_raise(self, loop):
        sim = Simulation(quiet_config(
            payload_mode=False, terminals={"count": 4, "base_reliability": 0.8}
        ))
        queue = sim.schedulers["t00"].queue
        wire = fragment_wire_size(100, 1)
        dep = item_spec("t00/d0000", size=100, priority=0.9, n=2, k=1)
        top = item_spec("t00/d0001", size=100, priority=0.7, n=1, k=1, deps=(dep.key,))
        produce(sim, 1.0, dep)
        produce(sim, 2.0, top)
        # room for two fragments: dep (deficit 0.9) then top (0.7); top is then
        # exhausted (n=1) but still short at 0.8 * 0.8 = 0.64 < 0.7
        meet(sim, 3.0, "t00", "t01", 2 * wire)
        assert sim.tables[top.key].fragments_saved == top.n
        assert queue.keys() == [dep.key, top.key]
        # t01 uploads dep's fragment (k=1): dep is served, so top's estimate
        # becomes 0.8 >= 0.7 without any save of its own
        sim.process(InternetWindowEvent(time=4.0, terminal="t01", duration=1.0, bandwidth=wire))
        assert sim.index.is_on_server(dep.key) and not sim.index.is_on_server(top.key)
        assert sim.schedulers["t00"].deficit_of(top.key) <= 0.0
        assert top.key in queue  # retired at the next pull, not before
        if loop == "meeting":
            meet(sim, 5.0, "t00", "t02", 10**6)
        else:
            sim.process(InternetWindowEvent(time=5.0, terminal="t00", duration=1.0, bandwidth=1))
        assert len(queue) == 0
        # a dependent raises top's target above its estimate: top comes back,
        # behind the dependent that was queued first
        later = item_spec("t00/d0002", size=100, priority=0.95, n=2, k=1, deps=(top.key,))
        produce(sim, 6.0, later)
        assert queue.keys() == [later.key, top.key]

    @pytest.mark.parametrize("before", ["nothing", "failure", "upload"])
    def test_raised_dependency_requeued_in_its_own_owners_queue(self, before):
        """t01's new version raises t00's saved, satisfied dependency to 0.99:
        it goes back into t00's queue, unless t00 failed or it is on the server."""
        sim = Simulation(quiet_config(terminals={"producers": 2}))
        dep = item_spec("t00/d0000", priority=0.5, n=4, k=1)
        produce(sim, 1.0, dep)
        meet(sim, 5.0, "t00", "t02", fragment_wire_size(1000, 1))
        queue = sim.schedulers["t00"].queue
        assert sim.tables[dep.key].fragments_saved == 1 and len(queue) == 0  # 0.9 >= 0.5
        if before == "failure":
            fail_and_restore(sim, 6.0, "t00")
        elif before == "upload":
            sim.process(InternetWindowEvent(time=6.0, terminal="t02", duration=1.0,
                                            bandwidth=10**6))
            assert sim.index.is_on_server(dep.key)
        produce(sim, 7.0, item_spec("t01/d0000", owner="t01", priority=0.99, deps=(dep.key,)))
        assert sim.index.get(dep.key).priority == 0.99
        assert queue.keys() == ([dep.key] if before == "nothing" else [])

    def test_expired_items_not_measured(self):
        sim = Simulation(quiet_config())
        produce(sim, 1.0, item_spec(lifetime=100.0))
        report = sim.finish()
        assert report.items_produced == 1
        assert report.items_measured == 0
        assert report.loss_ratio == 0.0

    def test_band_edges_fall_in_the_upper_band_and_one_in_the_top(self):
        sim = Simulation(quiet_config())
        for i, priority in enumerate([0.0, 0.25, 0.5, 0.75]):
            produce(sim, 1.0 + i, item_spec(f"t00/d{i:04d}", priority=priority))
        # every queued item goes up; one at priority 0.0 is never queued
        sim.process(InternetWindowEvent(time=10.0, terminal="t00", duration=1.0, bandwidth=10**6))
        produce(sim, 20.0, item_spec("t00/d0004", priority=1.0))
        report = sim.finish()
        assert [report.outcomes[f"t00/d{i:04d}@1"] for i in range(5)] == [
            "lost", "safe_on_server", "safe_on_server", "safe_on_server", "lost"]
        assert report.loss_ratio_by_band == {
            "0.00-0.25": 1.0, "0.25-0.50": 0.0, "0.50-0.75": 0.0, "0.75-1.00": 0.5}
        assert list(report.loss_ratio_by_band) == sorted(report.loss_ratio_by_band)

    def test_finish_classifies_at_the_horizon(self):
        sim = Simulation(quiet_config())  # horizon_s 3600
        produce(sim, 1.0, item_spec(lifetime=4000.0))
        meet(sim, 5000.0, "t01", "t02", 1000)  # after the horizon and the lifetime
        report = sim.finish()
        assert sim.now == 3600.0
        assert report.items_measured == 1  # still alive at the horizon
        assert report.outcomes == {"t00/d0000@1": "lost"}

    def test_finish_classifies_versions_with_the_stores_released(self):
        sim = Simulation(quiet_config())
        produce(sim, 1.0, item_spec(size=1000, n=4, k=2))
        meet(sim, 10.0, "t00", "t01", 2 * fragment_wire_size(1000, 2))
        restorable, held = sim._restorable, []

        def spy(key, memo, placement):
            held.append((len(sim.stores), len(sim.schedulers)))
            return restorable(key, memo, placement)

        sim._restorable = spy
        assert sim.finish().outcomes == {"t00/d0000@1": "recoverable_from_peers"}
        assert held and set(held) == {(0, 0)}

    def test_event_behind_clock_rejected(self):
        sim = Simulation(quiet_config())
        produce(sim, 10.0, item_spec())
        with pytest.raises(ConfigError):
            meet(sim, 5.0, "t00", "t01", 1000)

    @pytest.mark.parametrize("event", [
        pytest.param(EncounterEvent(10.0, "t00", "t99", 1.0, 1000.0), id="encounter"),
        pytest.param(InternetWindowEvent(10.0, "t99", 1.0, 1000.0), id="window"),
        pytest.param(TerminalFailureEvent(10.0, "t99"), id="failure"),
        pytest.param(RestoreAttemptEvent(10.0, "t99"), id="restore"),
        pytest.param(DataProducedEvent(10.0, "t99", item_spec("t99/d0000", owner="t99")),
                     id="produced-by-unknown"),
        pytest.param(DataProducedEvent(10.0, "t02", item_spec("t02/d0000", owner="t02")),
                     id="produced-by-non-producer"),
        pytest.param(DataProducedEvent(10.0, "t00", item_spec("t01/d0000", owner="t01")),
                     id="produced-for-another-owner"),
    ])
    def test_bad_scripted_event_is_refused_before_any_change(self, event):
        trace: list[str] = []
        sim = Simulation(quiet_config(terminals={"producers": 2}), trace=trace.append)
        with pytest.raises(ConfigError):
            sim.process(event)
        assert sim.now == 0.0 and len(sim.index) == 0 and trace == []
        assert [len(s.queue) for s in sim.schedulers.values()] == [0, 0]
        assert sim.owned_ids == {"t00": {}, "t01": {}} and sim.tables == {}

    @pytest.mark.parametrize("item, error", [
        pytest.param(item_spec(), UsageError, id="repeated-version"),
        pytest.param(item_spec(version=2), UsageError, id="non-increasing-version"),
        pytest.param(item_spec("t00/d0001", deps=(("t00/d0000", 9),)), IntegrityError,
                     id="unregistered-dependency"),
    ])
    def test_version_the_index_refuses_leaves_the_run_unchanged(self, item, error):
        trace: list[str] = []
        sim = Simulation(quiet_config(), trace=trace.append)
        produce(sim, 1.0, item_spec())
        produce(sim, 2.0, item_spec(version=3))
        before = (len(trace), len(sim.index), sorted(sim.tables), len(sim.schedulers["t00"].queue))
        with pytest.raises(error):
            produce(sim, 5.0, item)
        assert sim.now == 2.0
        assert (len(trace), len(sim.index), sorted(sim.tables),
                len(sim.schedulers["t00"].queue)) == before


class TestPinningTrace:
    def test_old_version_held_until_dependent_is_served(self):
        trace: list[str] = []
        sim = Simulation(
            quiet_config(terminals={"count": 3, "producers": 1}), trace=trace.append
        )
        produce(sim, 1.0, item_spec("t00/d0000", n=1, k=1, size=400, priority=0.95))
        meet(sim, 10.0, "t00", "t01", fragment_wire_size(400, 1))
        produce(
            sim, 20.0,
            item_spec("t00/d0000", version=2, n=1, k=1, size=400, priority=0.95,
                      deps=(("t00/d0000", 1),)),
        )
        meet(sim, 30.0, "t00", "t02", fragment_wire_size(400, 1))
        # owner supersession notice arrives at the holder of v1
        meet(sim, 40.0, "t00", "t01", 10)
        v1_key = ("t00", "t00/d0000", 1, 0)
        assert sim.stores["t01"].get(v1_key).state.value == "outdated"
        assert sim.index.pinned(("t00/d0000", 1))
        # peers interact under space pressure; the pinned copy must survive
        meet(sim, 50.0, "t01", "t02", 10)
        assert v1_key in sim.stores["t01"]
        assert not any("DELETE terminal=t01" in line for line in trace)
        # the dependent version reaches the server, releasing the pin
        sim.process(
            InternetWindowEvent(time=60.0, terminal="t00", duration=1.0, bandwidth=10**6)
        )
        assert not sim.index.pinned(("t00/d0000", 1))
        sim.process(
            InternetWindowEvent(time=70.0, terminal="t01", duration=1.0, bandwidth=10**6)
        )
        assert v1_key not in sim.stores["t01"]
        deletions = [line for line in trace if "DELETE terminal=t01" in line]
        assert len(deletions) == 1 and deletions[0].startswith("70.0")


class TestTrace:
    class Unprintable:
        def __str__(self):
            raise AssertionError("formatted")

    def test_untraced_call_formats_nothing(self):
        Simulation(quiet_config())._trace("SAVE", 10, item=self.Unprintable())
        traced = Simulation(quiet_config(), trace=[].append)
        with pytest.raises(AssertionError, match="formatted"):
            traced._trace("SAVE", 10, item=self.Unprintable())

    def test_line_rendering(self):
        trace: list[str] = []
        sim = Simulation(quiet_config(), trace=trace.append)
        sim.now = 12.5
        sim._trace("NOTICE", kind="owner", from_="t00", to="t01", item=("t00/d0000", 2))
        sim._trace("ENCOUNTER", 640, a="t00", b="t01")
        assert trace == [
            "12.500000 NOTICE kind=owner from=t00 to=t01 item=t00/d0000@2 bytes=0",
            "12.500000 ENCOUNTER a=t00 b=t01 bytes=640",
        ]


class TestDeficitNotices:
    """A cached deficit is re-read after every change below its version, however deep."""

    def chain(self):
        """v1 <- v2 <- v3, all queued, with no notice pending."""
        sim = Simulation(quiet_config(payload_mode=False))
        keys = [("t00/d0000", v) for v in (1, 2, 3)]
        for version, size in zip((1, 2, 3), (500, 5000, 5000)):
            deps = ((keys[version - 2],) if version > 1 else ())
            produce(sim, float(version),
                    item_spec(size=size, version=version, deps=deps, priority=0.99))
        for key in keys:
            sim.tables[key] = ReliabilityTable.fresh(2).add_batch_same_terminal(0.9, 2)
        scheduler = sim.schedulers["t00"]
        assert scheduler.queue.pull(scheduler.deficit_of, lambda key: False) is None
        assert scheduler.queue.keys() == keys
        return sim, scheduler, keys

    def record_reads(self, scheduler):
        """The keys whose deficit the scheduler reads from here on."""
        read, deficit_of = [], scheduler.deficit_of
        scheduler.deficit_of = lambda key: read.append(key) or deficit_of(key)
        return read

    def cached_deficit(self, sim, scheduler, key):
        fresh = composite_success(sim.index.get(key), sim.tables, sim.index)
        assert -scheduler.queue._entries[key][0] == sim.index.get(key).priority - fresh
        return fresh

    def test_table_replacement_reaches_transitive_dependents(self):
        sim, scheduler, (v1, v2, v3) = self.chain()
        read = self.record_reads(scheduler)
        sim.tables[v1] = ReliabilityTable.fresh(2).add_batch_same_terminal(0.5, 2)
        assert scheduler.queue.pull(scheduler.deficit_of, lambda key: False) is None
        assert sorted(read) == [v1, v2, v3]
        assert self.cached_deficit(sim, scheduler, v3) == pytest.approx(0.5 * 0.81)

    def test_a_version_without_dependents_notices_only_itself(self):
        sim, scheduler, (v1, v2, v3) = self.chain()
        noticed = []
        scheduler.queue.notice = noticed.append
        sim.tables[v3] = ReliabilityTable.fresh(2).add_batch_same_terminal(0.5, 2)
        assert noticed == [v3]

    def test_reaching_the_server_reaches_transitive_dependents(self):
        sim, scheduler, (v1, v2, v3) = self.chain()
        read = self.record_reads(scheduler)
        # the budget fits only v1, the smallest; v3 and v2 are pulled first
        sim.process(InternetWindowEvent(time=10.0, terminal="t00", duration=1.0,
                                        bandwidth=500.0))
        assert sim.index.is_on_server(v1) and not sim.index.is_on_server(v2)
        assert sorted(read) == [v2, v3]  # the window's next pull re-read both
        assert self.cached_deficit(sim, scheduler, v3) == pytest.approx(0.81)

    def test_success_of_reads_the_module_global(self, monkeypatch):
        sim, _, (v1, v2, v3) = self.chain()
        calls = []
        composite = sim_module.composite_success
        monkeypatch.setattr(sim_module, "composite_success",
                            lambda *args: calls.append(args[0].key) or composite(*args))
        assert sim.success_of(v3) == pytest.approx(0.9 ** 3)
        assert calls == [v3]


def test_owner_notices_read_only_the_meeting_owners_items(monkeypatch):
    """On the 100-terminal golden scenario, cut to an hour, an owner's
    notices to a peer make one per-owner query of that peer's store, for
    the meeting owner, and no full pass over it."""
    from test_golden import SCENARIOS

    config = config_from_dict({**SCENARIOS["t100"], "horizon_s": 3_600.0})
    meeting: list[tuple[str, str]] = []  # (owner, peer) whose notices are being sent
    calls: list[tuple[str, str]] = []  # per query while sending: (owner asked, peer asked)
    sent = 0
    send, replicas_of = Simulation._send_owner_notices, ReplicaStore.replicas_of
    replicas = ReplicaStore.replicas

    def tracked_send(sim, owner, peer):
        nonlocal sent
        meeting.append((owner, peer))
        try:
            send(sim, owner, peer)
        finally:
            meeting.pop()
        assert calls == [(owner, peer)]
        calls.clear()
        sent += 1

    def tracked_replicas_of(store, owner):
        found = replicas_of(store, owner)
        if meeting:
            calls.append((owner, store.terminal_id))
            assert all(r.item.owner == owner for r in found)
        return found

    def tracked_replicas(store):
        assert not meeting, "an owner notice scanned a whole store"
        return replicas(store)

    monkeypatch.setattr(Simulation, "_send_owner_notices", tracked_send)
    monkeypatch.setattr(ReplicaStore, "replicas_of", tracked_replicas_of)
    monkeypatch.setattr(ReplicaStore, "replicas", tracked_replicas)
    run(config)
    assert sent > 0


def test_a_restore_visits_only_the_failed_owners_replicas(monkeypatch):
    """Baseline scaled to 100 terminals, failures on all: each restore makes
    one per-owner query per live store, for the failed owner, and visits
    exactly that owner's replicas on live stores; no store is scanned whole."""
    from test_golden import _scenario

    config = config_from_dict(_scenario({
        "seed": 1,
        "terminals.count": 100,
        "terminals.producers": 30,
        "workload.items_per_hour": 30.0,
        "mobility.encounter_rate_per_hour": 400.0,
        "failures.targets": "all",
    }))
    restoring: list[str] = []
    calls: list[tuple[str, str, int]] = []  # per query while restoring: (store, owner, replicas)
    restores = visited = 0
    on_restore = Simulation._on_restore
    replicas_of, replicas = ReplicaStore.replicas_of, ReplicaStore.replicas

    def tracked_on_restore(sim, event):
        nonlocal restores, visited
        owner = event.owner
        live = [t for t in sim.names if sim.alive[t]]
        held = {t: sum(r.item.owner == owner for r in sim.stores[t].replicas()) for t in live}
        restoring.append(owner)
        try:
            on_restore(sim, event)
        finally:
            restoring.pop()
        assert calls == [(t, owner, held[t]) for t in live]
        restores += 1
        visited += sum(held.values())
        calls.clear()

    def tracked_replicas_of(store, owner):
        found = replicas_of(store, owner)
        if restoring:
            calls.append((store.terminal_id, owner, len(found)))
        return found

    def tracked_replicas(store):
        assert not restoring, "a restore scanned a whole store"
        return replicas(store)

    monkeypatch.setattr(Simulation, "_HANDLERS", {
        **Simulation._HANDLERS, RestoreAttemptEvent: tracked_on_restore})
    monkeypatch.setattr(ReplicaStore, "replicas_of", tracked_replicas_of)
    monkeypatch.setattr(ReplicaStore, "replicas", tracked_replicas)
    run(config)
    assert restores >= 10 and visited > restores


def busy_config(seed=7, **overrides):
    base = {
        "seed": seed,
        "horizon_s": 7200.0,
        "payload_mode": True,
        "terminals": {"count": 10, "producers": 4, "quota_bytes": 200_000,
                      "base_reliability": 0.85},
        "workload": {"items_per_hour": 8.0, "size_min_bytes": 300,
                     "size_max_bytes": 6000, "n": 4, "k": 2,
                     "update_fraction": 0.2, "chain_fraction": 0.2},
        "mobility": {"encounter_rate_per_hour": 60.0,
                     "contact_duration_mean_s": 20.0,
                     "bandwidth_bytes_per_s": 20_000.0},
        "infrastructure": {"window_rate_per_hour": 0.4,
                           "window_duration_mean_s": 30.0,
                           "bandwidth_bytes_per_s": 200_000.0},
        "failures": {"rate_per_hour": 0.3, "targets": "producers"},
    }
    for section, value in overrides.items():
        if isinstance(value, dict):
            base[section] = {**base[section], **value}
        else:
            base[section] = value
    return config_from_dict(base)


_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_reference(key, size):
    """The payload by the PCG64 definition (128-bit LCG step, then XSL-RR output)."""
    digest = hashlib.sha256(f"payload:{key[0]}@{key[1]}".encode()).digest()
    state, inc = int.from_bytes(digest[:16], "big"), int.from_bytes(digest[16:], "big") | 1
    out = bytearray()
    while len(out) < size:
        state = (state * _PCG64_MULTIPLIER + inc) % 2**128
        word, rot = (state >> 64) ^ (state % 2**64), state >> 122
        out += (((word >> rot) | (word << (64 - rot))) % 2**64).to_bytes(8, "little")
    return bytes(out[:size])


class TestPayloadBytes:
    KEY = ("t00/d0000", 1)

    def test_bytes_depend_on_the_key_alone(self):
        generator = np.random.PCG64(0)
        first = _payload_for(self.KEY, 4096, generator)
        _payload_for(("t01/d0003", 2), 777, generator)  # a draw in between leaves no trace
        assert _payload_for(self.KEY, 4096, generator) == first
        assert _payload_for(self.KEY, 4096, np.random.PCG64(5)) == first
        assert _payload_for(("t00/d0000", 2), 4096, generator) != first
        assert _payload_for(("t00/d0001", 1), 4096, generator) != first

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 1_000_003])
    def test_each_size_is_a_prefix_of_the_keyed_stream(self, size):
        generator = np.random.PCG64(0)
        payload = _payload_for(self.KEY, size, generator)
        assert len(payload) == size
        assert payload == _payload_for(self.KEY, 1_000_008, generator)[:size]
        assert payload[:64] == pcg64_reference(self.KEY, min(size, 64))

    # pins the bytes across numpy versions and host byte orders
    @pytest.mark.parametrize("key, size, digest", [
        (("t00/d0000", 1), 4096,
         "ed70a5b685d1fc181415e3f131359f612faed990b12cd853f859a55cc7839401"),
        (("t03/d0042", 7), 1_000_003,
         "97498858df840ef489aff358d2ce3d386f786ad3e809b8860410ff7d01fa907f"),
    ])
    def test_golden_payload_digests(self, key, size, digest):
        assert hashlib.sha256(_payload_for(key, size, np.random.PCG64(0))).hexdigest() == digest

    def test_no_fragment_set_for_a_version_that_sends_nothing(self, monkeypatch):
        split_ids = []
        monkeypatch.setattr("oppbak.sim.split", lambda *args, **kwargs: (
            split_ids.append(kwargs["item_id"]) or dispersal.split(*args, **kwargs)))
        sim = Simulation(quiet_config())
        produce(sim, 1.0, item_spec(size=1000, n=4, k=2))
        meet(sim, 10.0, "t00", "t01", 2 * fragment_wire_size(1000, 2))
        produce(sim, 20.0, item_spec("t00/d0001", size=1000, n=4, k=2))
        fail_and_restore(sim, 100.0, "t00")
        assert sim.finish().outcomes == {
            "t00/d0000@1": "recoverable_from_peers", "t00/d0001@1": "lost"
        }
        assert split_ids == ["t00/d0000"]
        assert list(sim.fragment_sets) == [("t00/d0000", 1)]


class TestGeneratedRuns:
    def test_determinism_bytes_and_trace(self):
        config = busy_config()
        t1, t2 = [], []
        r1 = run(config, trace=t1.append)
        r2 = run(config, trace=t2.append)
        assert r1.json_bytes() == r2.json_bytes()
        assert t1 == t2

    def test_json_dict_shares_the_report_fields(self):
        report = run(busy_config())
        doc = report.to_json_dict()
        assert list(doc) == [f.name for f in dataclasses.fields(report)]
        assert doc["calibration_episodes"] is report.calibration_episodes

    def test_outcomes_partition_all_items(self):
        report = run(busy_config(seed=8))
        assert report.items_produced == len(report.outcomes)
        assert set(report.outcomes.values()) <= {
            "safe_on_server", "recoverable_from_peers", "lost"
        }
        assert report.items_produced > 20

    def test_no_peer_to_peer_replication(self):
        trace: list[str] = []
        run(busy_config(seed=9), trace=trace.append)
        saves = [line for line in trace if " SAVE " in line]
        assert saves, "scenario produced no saves at all"
        for line in saves:
            fields = dict(part.split("=") for part in line.split()[2:])
            assert fields["item"].startswith(fields["from"] + "/")

    def test_payload_mode_recoverables_actually_reconstruct(self):
        # the engine re-runs the codec for every recoverable classification
        # and raises on mismatch, so surviving the run is the assertion;
        # require the class to be non-empty for the run to mean anything
        report = run(busy_config(seed=10, infrastructure={"window_rate_per_hour": 0.1}))
        assert "recoverable_from_peers" in set(report.outcomes.values())

    def test_occupancy_and_byte_counters_move(self):
        report = run(busy_config(seed=11))
        assert report.bytes_to_peers > 0
        assert report.bytes_to_server > 0
        assert any(len(points) > 1 for points in report.occupancy.values())

    def test_finished_run_is_freed_without_the_cycle_collector(self):
        sim = Simulation(busy_config(seed=15))
        ref = weakref.ref(sim)
        gc.disable()
        try:
            report = sim.run()
            del sim
            assert ref() is None
        finally:
            gc.enable()
        assert report.fragments_saved > 0

    def test_invalid_config_fails_before_any_event(self):
        with pytest.raises(ConfigError):
            Simulation(quiet_config(mobility={"contact_duration_mean_s": -1.0}))

    def test_event_stream_is_sorted_and_seeded(self):
        config = busy_config(seed=13)
        events = generate_events(config)
        assert events == generate_events(config)
        assert all(a.time <= b.time for a, b in zip(events, events[1:]))
        different = generate_events(busy_config(seed=14))
        assert [type(e) for e in events] != [type(e) for e in different] or (
            [e.time for e in events] != [e.time for e in different]
        )


def reference_arrivals(rng, rate_per_hour, horizon):
    if rate_per_hour <= 0:
        return
    t = rng.expovariate(rate_per_hour / 3600.0)
    while t < horizon:
        yield t
        t += rng.expovariate(rate_per_hour / 3600.0)


def reference_events(config):
    """The timeline generator as first written, on the stdlib distributions."""
    names = _terminal_names(config.terminals.count)
    producers = names[: config.terminals.producers]
    horizon = config.horizon_s
    events = []
    w = config.workload
    rng = _stream(config.seed, "workload")
    for owner in producers:
        counter = 0
        history = []
        for t in reference_arrivals(rng, w.items_per_hour, horizon):
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
                deps = ((item_id, prev_version),)
                history[slot] = (item_id, version)
            else:
                item_id = f"{owner}/d{counter:04d}"
                counter += 1
                version = 1
                deps = ()
                if chain:
                    deps = (history[rng.randrange(len(history))],)
                history.append((item_id, version))
            events.append(DataProducedEvent(time=t, owner=owner, item=DataItem(
                id=item_id, owner=owner, size_bytes=size, priority=priority, n=w.n, k=w.k,
                version=version,
                lifetime=(t + w.lifetime_s) if w.lifetime_s else None, temporal_deps=deps,
            )))
    m = config.mobility
    rng = _stream(config.seed, "mobility")
    for t in reference_arrivals(rng, m.encounter_rate_per_hour, horizon):
        a, b = sorted(rng.sample(names, 2))
        duration = rng.expovariate(1.0 / m.contact_duration_mean_s)
        events.append(EncounterEvent(t, a, b, duration, m.bandwidth_bytes_per_s))
    i = config.infrastructure
    rng = _stream(config.seed, "infrastructure")
    for terminal in names:
        for t in reference_arrivals(rng, i.window_rate_per_hour, horizon):
            duration = rng.expovariate(1.0 / i.window_duration_mean_s)
            events.append(InternetWindowEvent(t, terminal, duration, i.bandwidth_bytes_per_s))
    f = config.failures
    rng = _stream(config.seed, "failures")
    for terminal in producers if f.targets == "producers" else names:
        for t in itertools.islice(reference_arrivals(rng, f.rate_per_hour, horizon), 1):
            events.append(TerminalFailureEvent(time=t, terminal=terminal))
    rank = {DataProducedEvent: 0, EncounterEvent: 1, InternetWindowEvent: 2,
            TerminalFailureEvent: 3}
    events.sort(key=lambda e: (e.time, rank[type(e)]))
    return events


class TestTimelineDraws:
    """`generate_events` draws what the stdlib distributions drew, in order."""

    @staticmethod
    def config(count, seed, **overrides):
        sections = {
            "terminals": {"count": count, "producers": min(4, count)},
            "mobility": {"encounter_rate_per_hour": 600.0},
            "failures": {"rate_per_hour": 1.0, "targets": "all"},
        }
        for section, values in overrides.items():
            sections[section] = {**sections.get(section, {}), **values}
        return busy_config(seed=seed, **sections)

    @pytest.mark.parametrize("count", [2, 3, 21, 22, 100])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_the_stdlib_draws(self, count, seed):
        config = self.config(count, seed)
        events = generate_events(config)
        assert events == reference_events(config)
        assert any(isinstance(e, TerminalFailureEvent) for e in events)

    @pytest.mark.parametrize("count", [2, 3, 20, 21, 22, 23, 100])
    def test_pairs_are_random_sample_on_both_sides_of_its_switch(self, count):
        # random.sample(names, 2) draws from a pool up to 21 names and redraws
        # repeats above; replay the mobility stream with the stdlib calls
        for seed in range(20):
            config = self.config(count, seed, workload={"items_per_hour": 0.0},
                                 infrastructure={"window_rate_per_hour": 0.0},
                                 failures={"rate_per_hour": 0.0})
            m = config.mobility
            names = _terminal_names(count)
            rng = _stream(seed, "mobility")
            rate = m.encounter_rate_per_hour / 3600.0
            expected = []
            t = rng.expovariate(rate)  # one random() each
            while t < config.horizon_s:
                a, b = sorted(rng.sample(names, 2))
                duration = rng.expovariate(1.0 / m.contact_duration_mean_s)
                expected.append((t, a, b, duration))
                t += rng.expovariate(rate)
            got = [(e.time, e.a, e.b, e.duration) for e in generate_events(config)]
            assert len(got) > 100 and got == expected

    @pytest.mark.parametrize("section, key", [
        ("workload", "items_per_hour"),
        ("mobility", "encounter_rate_per_hour"),
        ("infrastructure", "window_rate_per_hour"),
        ("failures", "rate_per_hour"),
    ])
    @pytest.mark.parametrize("count", [3, 22])
    def test_a_zero_rate_draws_nothing(self, section, key, count):
        config = self.config(count, 5, **{section: {key: 0.0}})
        assert generate_events(config) == reference_events(config)

    @pytest.mark.parametrize("lifetime", [None, 900.0])
    @pytest.mark.parametrize("targets", ["producers", "all"])
    def test_lifetimes_and_failure_targets(self, lifetime, targets):
        config = self.config(
            22, 9, workload={"lifetime_s": lifetime}, failures={"targets": targets}
        )
        events = generate_events(config)
        assert events == reference_events(config)
        failed = {e.terminal for e in events if isinstance(e, TerminalFailureEvent)}
        assert failed and (targets == "all" or failed <= {"t00", "t01", "t02", "t03"})


def test_run_walks_the_timeline_then_due_follow_ups(monkeypatch):
    """Equal times: the timeline first, then follow-ups in the order made."""
    config = quiet_config(
        restore_delay_s=0.0, terminals={"count": 4, "producers": 2}
    )
    timeline = [
        DataProducedEvent(time=1.0, owner="t00", item=item_spec()),
        DataProducedEvent(time=2.0, owner="t01",
                          item=item_spec(item_id="t01/d0000", owner="t01")),
        TerminalFailureEvent(time=10.0, terminal="t00"),
        TerminalFailureEvent(time=10.0, terminal="t01"),
        InternetWindowEvent(time=10.0, terminal="t02", duration=1.0, bandwidth=10**6),
        EncounterEvent(time=11.0, a="t02", b="t03", duration=1.0, bandwidth=10**6),
    ]
    monkeypatch.setattr(sim_module, "generate_events", lambda c: list(timeline))
    processed = []
    process = Simulation.process

    def counted(self, event):
        processed.append(event)
        return process(self, event)

    monkeypatch.setattr(Simulation, "process", counted)
    trace = []
    Simulation(config, trace=trace.append).run()
    kinds = [line.split()[1:3] for line in trace if line.split()[1] != "PRODUCE"]
    assert kinds == [
        ["FAIL", "terminal=t00"],
        ["FAIL", "terminal=t01"],
        ["WINDOW", "terminal=t02"],
        ["RESTORE_FAIL", "owner=t00"],
        ["RESTORE_FAIL", "owner=t01"],
        ["ENCOUNTER", "a=t02"],
    ]
    assert len(processed) == len(timeline) + 2
    assert processed[5:7] == [RestoreAttemptEvent(10.0, "t00"), RestoreAttemptEvent(10.0, "t01")]


class TestBatch:
    def test_single_replication_matches_run(self):
        config = busy_config(seed=21, horizon_s=1800.0)
        single = run(config)
        batch = run_batch(config, 1)
        for name in MetricsReport.scalar_metrics:
            stats = batch.metrics[name]
            assert stats["mean"] == float(getattr(single, name))
            assert stats["ci_low"] == stats["ci_high"] == stats["mean"]
        assert batch.calibration_episodes == single.calibration_episodes

    def test_batch_bytes_deterministic(self):
        config = busy_config(seed=22, horizon_s=1800.0)
        assert run_batch(config, 3).json_bytes() == run_batch(config, 3).json_bytes()

    def test_ci_width_shrinks_like_root_replications(self):
        config = busy_config(seed=23, horizon_s=1800.0)
        small = run_batch(config, 10)
        large = run_batch(config, 1000)
        width = lambda s: s["ci_high"] - s["ci_low"]
        w_small = width(small.metrics["loss_ratio"])
        w_large = width(large.metrics["loss_ratio"])
        assert w_large < w_small
        # 100x replications should shrink the interval roughly 10x
        assert 4.0 < w_small / w_large < 25.0

    def test_zero_replications_rejected(self):
        with pytest.raises(ConfigError):
            run_batch(busy_config(), 0)

    @pytest.mark.parametrize(
        "df, tabulated", [(1, 12.706), (2, 4.303), (9, 2.262), (29, 2.045), (99, 1.984)]
    )
    def test_t_critical_matches_tables(self, df, tabulated):
        assert _t_critical(df) == pytest.approx(tabulated, abs=1e-3)

    def test_small_batch_interval_is_student_t(self):
        batch = run_batch(busy_config(seed=24, horizon_s=1800.0), 3)
        stats = batch.metrics["loss_ratio"]
        assert stats["stdev"] > 0
        half = 4.303 * stats["stdev"] / math.sqrt(3)
        assert stats["ci_high"] - stats["mean"] == pytest.approx(half, rel=1e-3)
        assert stats["mean"] - stats["ci_low"] == pytest.approx(half, rel=1e-3)


class TestCalibrationCheck:
    def test_empty_report_flagged(self):
        report = run(quiet_config())
        result = calibration_check(report)
        assert result.empty and result.episodes == 0 and result.bins == ()

    @pytest.mark.parametrize("bins", [0, -1])
    @pytest.mark.parametrize("episodes", [(), ((0.5, 1),)])
    def test_bins_below_one_rejected(self, bins, episodes):
        report = BatchReport(seed=1, replications=1, metrics={}, calibration_episodes=episodes)
        with pytest.raises(UsageError):
            calibration_check(report, bins=bins)

    def test_all_on_server_is_exact(self):
        sim = Simulation(quiet_config())
        produce(sim, 1.0, item_spec())
        sim.process(
            InternetWindowEvent(time=5.0, terminal="t00", duration=10.0, bandwidth=10**6)
        )
        fail_and_restore(sim, 50.0, "t00")
        result = calibration_check(sim.finish())
        assert result.episodes == 1
        (only,) = result.bins
        assert only.mean_predicted == 1.0 and only.realized_rate == 1.0

    def test_dishonest_config_shows_its_gap(self):
        config = busy_config(
            seed=31,
            payload_mode=False,
            terminals={"count": 12, "producers": 4, "base_reliability": 0.9,
                       "true_retrieval": 0.1, "backup_peers": "nonproducers"},
            workload={"n": 1, "k": 1, "items_per_hour": 12.0},
            failures={"rate_per_hour": 1.0},
        )
        batch = run_batch(config, 10)
        result = calibration_check(batch)
        gaps = {
            round(b.lo, 1): abs(b.mean_predicted - b.realized_rate)
            for b in result.bins
            if b.count >= 20
        }
        assert 0.9 in gaps and gaps[0.9] > 0.5  # predictions near 0.9 realize ~0.1

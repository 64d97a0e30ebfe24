import dataclasses
import gc
import math
import random
import weakref

import numpy as np
import pytest

from oppbak import dispersal
from oppbak.dispersal import fragment_wire_size
from oppbak.model import DataItem, IntegrityError, UsageError
from oppbak.peer import ReplicaStore
from oppbak.reliability import ReliabilityTable, composite_success
from oppbak.scenario import ConfigError, config_from_dict
from oppbak.sim import (
    BatchReport,
    DataProducedEvent,
    EncounterEvent,
    InternetWindowEvent,
    MetricsReport,
    Simulation,
    TerminalFailureEvent,
    _randbytes,
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


class TestScriptedRuns:
    def test_no_backup_paths_means_lost(self):
        sim = Simulation(quiet_config())
        produce(sim, 1.0, item_spec())
        fail_and_restore(sim, 100.0, "t00")
        report = sim.finish()
        assert report.outcomes == {"t00/d0000@1": "lost"}
        assert report.loss_ratio == 1.0
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

    def test_corrupted_parity_fragment_fails_the_restore_check(self):
        sim = Simulation(quiet_config())
        key = ("t00/d0000", 1)
        produce(sim, 1.0, item_spec(size=1000, n=4, k=2))
        meet(sim, 10.0, "t00", "t01", fragment_wire_size(1000, 2))
        meet(sim, 20.0, "t00", "t02", 2 * fragment_wire_size(1000, 2))
        sim.process(TerminalFailureEvent(time=30.0, terminal="t01"))
        assert sim.index.peer_holdings(key) == {"t01": {0}, "t02": {1, 2}}
        assert sim._restorable(key, {})  # rebuilt from data 1 and parity 2
        replica = sim.stores["t02"].get(("t00", *key, 2))
        flipped = bytearray(replica.fragment.payload)
        flipped[0] ^= 0x01
        replica.fragment = dataclasses.replace(replica.fragment, payload=bytes(flipped))
        with pytest.raises(IntegrityError):
            sim._restorable(key, {})

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
        assert sim.stores["t01"].restore_query("t00/d0000") == {1: {0}}
        assert sim.stores["t02"].restore_query("t00/d0000") == {2: {0}}
        # the dependency's holder dies; v2's own bytes stay reachable
        sim.process(TerminalFailureEvent(time=50.0, terminal="t01"))
        fail_and_restore(sim, 100.0, "t00")
        report = sim.finish()
        assert report.outcomes["t00/d0000@2"] == "lost"
        assert report.outcomes["t00/d0000@1"] == "lost"

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
        assert sim.schedulers["t00"].fragments_sent(top.key) == top.n
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

    def test_expired_items_not_measured(self):
        sim = Simulation(quiet_config())
        produce(sim, 1.0, item_spec(lifetime=100.0))
        report = sim.finish()
        assert report.items_produced == 1
        assert report.items_measured == 0
        assert report.loss_ratio == 0.0

    def test_finish_classifies_at_the_horizon(self):
        sim = Simulation(quiet_config())  # horizon_s 3600
        produce(sim, 1.0, item_spec(lifetime=4000.0))
        meet(sim, 5000.0, "t01", "t02", 1000)  # after the horizon and the lifetime
        report = sim.finish()
        assert sim.now == 3600.0
        assert report.items_measured == 1  # still alive at the horizon
        assert report.outcomes == {"t00/d0000@1": "lost"}

    def test_event_behind_clock_rejected(self):
        sim = Simulation(quiet_config())
        produce(sim, 10.0, item_spec())
        with pytest.raises(ConfigError):
            meet(sim, 5.0, "t00", "t01", 1000)


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


class TestSuccessMemo:
    """The memo must track every change below a version, however deep."""

    def chain(self):
        sim = Simulation(quiet_config(payload_mode=False))
        keys = [("t00/d0000", v) for v in (1, 2, 3)]
        for version, size in zip((1, 2, 3), (500, 5000, 5000)):
            deps = ((keys[version - 2],) if version > 1 else ())
            produce(sim, float(version),
                    item_spec(size=size, version=version, deps=deps, priority=0.99))
        for key in keys:
            sim.tables[key] = ReliabilityTable.fresh(2).add_batch_same_terminal(0.9, 2)
        return sim, keys

    def fresh(self, sim, key):
        return composite_success(sim.index.get(key), sim.tables, sim.index)

    def test_table_replacement_reaches_transitive_dependents(self):
        sim, (v1, v2, v3) = self.chain()
        assert sim.success_of(v3) == pytest.approx(0.9 ** 3)
        sim.tables[v1] = ReliabilityTable.fresh(2).add_batch_same_terminal(0.5, 2)
        assert sim.success_of(v3) == self.fresh(sim, v3) == pytest.approx(0.5 * 0.81)

    def test_forgetting_a_version_without_dependents_notices_it_once(self):
        sim, (v1, v2, v3) = self.chain()
        for key in (v1, v2, v3):
            sim.success_of(key)
        noticed = []
        sim.schedulers["t00"].queue.notice = noticed.append
        sim.tables.forget(v3)
        assert noticed == [v3]
        assert v3 not in sim.tables.success and v2 in sim.tables.success

    def test_reaching_the_server_reaches_transitive_dependents(self):
        sim, (v1, v2, v3) = self.chain()
        assert sim.success_of(v3) == pytest.approx(0.9 ** 3)
        # the budget fits only v1, the smallest; v3 and v2 are pulled first
        sim.process(InternetWindowEvent(time=10.0, terminal="t00", duration=1.0,
                                        bandwidth=500.0))
        assert sim.index.is_on_server(v1) and not sim.index.is_on_server(v2)
        assert sim.success_of(v3) == self.fresh(sim, v3) == pytest.approx(0.81)


def test_owner_notices_read_only_the_meeting_owners_items(monkeypatch):
    """On the 100-terminal golden scenario, cut to an hour, every item an
    owner notice reads is one the meeting owner holds on that peer."""
    from test_golden import SCENARIOS

    config = config_from_dict({**SCENARIOS["t100"], "horizon_s": 3_600.0})
    meeting: list[str] = []  # owner whose notices are being sent
    reads: list[bool] = []  # per keys_of call: the meeting owner holds the item
    send, keys_of = Simulation._send_owner_notices, ReplicaStore.keys_of

    def tracked_send(sim, owner, peer):
        meeting.append(owner)
        try:
            send(sim, owner, peer)
        finally:
            meeting.pop()

    def tracked_keys_of(store, item_id):
        keys = keys_of(store, item_id)
        if meeting:
            reads.append(any(who == meeting[-1] for who, _, _, _ in keys))
        return keys

    monkeypatch.setattr(Simulation, "_send_owner_notices", tracked_send)
    monkeypatch.setattr(ReplicaStore, "keys_of", tracked_keys_of)
    run(config)
    assert reads and all(reads), f"{reads.count(False)} of {len(reads)} reads found nothing"


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


def test_randbytes_matches_cpython():
    twister = np.random.MT19937(0)  # shared: each call must start from its own seed alone
    for seed in (0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1):
        for size in (1, 3, 4, 5, 4_000, 4_001, 999_999, 1_000_003):
            assert _randbytes(seed, size, twister) == random.Random(seed).randbytes(size)


class TestGeneratedRuns:
    def test_determinism_bytes_and_trace(self):
        config = busy_config()
        t1, t2 = [], []
        r1 = run(config, trace=t1.append)
        r2 = run(config, trace=t2.append)
        assert r1.json_bytes() == r2.json_bytes()
        assert t1 == t2

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

"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v` (or `-s` to see the verdict
lines inline). Every tolerance and runtime bound is pinned here.
"""

import itertools
import json
import math
import random
import time

import pytest

from oppbak.dispersal import InsufficientFragments, fragment_wire_size, reconstruct, split
from oppbak.model import Location, VersionIndex, detect_conflict
from oppbak.peer import (
    EvictionShortfall,
    NoticeSource,
    ReplicaState,
    ReplicaStore,
)
from oppbak.reliability import new_table
from oppbak.scenario import config_from_dict
from oppbak.scheduler import LinkSession, Scheduler
from oppbak.sim import calibration_check, run, run_batch

from conftest import enumeration_success, held, make_fragment, make_item


def verdict(number: int, text: str) -> None:
    print(f"CRITERION {number}: PASS - {text}")


# ---------------------------------------------------------------------------


def test_c01_estimator_matches_exhaustive_oracle():
    """1,000 random mixed add/batch cases agree with 2^i enumeration, 1e-12."""
    rng = random.Random(0xACCE01)
    started = time.monotonic()
    cases = 0
    worst = 0.0
    while cases < 1000:
        k = rng.randint(1, 5)
        if cases % 5 == 0:
            # single-fragment saves only
            batches = [(rng.random(), 1) for _ in range(rng.randint(1, 12))]
        else:
            batches = []
            budget = 15
            for _ in range(rng.randint(1, 10)):
                m = min(rng.randint(1, 3), budget)
                if m == 0:
                    break
                batches.append((rng.random(), m))
                budget -= m
        if sum(m for _, m in batches) > 15:
            continue
        table = new_table(k)
        for p, m in batches:
            table = (
                table.add_fragment(p) if m == 1
                else table.add_batch_same_terminal(p, m)
            )
        expected = enumeration_success(k, batches)
        worst = max(worst, abs(table.success - expected))
        assert abs(table.success - expected) < 1e-12
        cases += 1
    # the densest admissible case as well: fifteen independent saves
    ps = [rng.random() for _ in range(15)]
    table = new_table(5)
    for p in ps:
        table = table.add_fragment(p)
    assert abs(table.success - enumeration_success(5, [(p, 1) for p in ps])) < 1e-12
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    verdict(1, f"1000 cases, worst |dp-oracle| {worst:.2e}, {elapsed:.1f}s")


def test_c02_boundary_identities():
    """Product form after k adds; fresh-table boundaries; batch m=1 bit-identical."""
    rng = random.Random(0xACCE02)
    for _ in range(10_000):
        k = rng.randint(1, 6)
        fresh = new_table(k)
        assert fresh.table[0] == 1.0
        assert all(fresh.table[l] == 0.0 for l in range(1, k + 1))

        ps = [rng.random() for _ in range(k)]
        table = fresh
        for p in ps:
            table = table.add_fragment(p)
        assert abs(table.success - math.prod(ps)) < 1e-12

        prefix = new_table(k)
        for _ in range(rng.randrange(5)):
            prefix = prefix.add_fragment(rng.random())
        p = rng.random()
        assert prefix.add_batch_same_terminal(p, 1).table == prefix.add_fragment(p).table
    verdict(2, "10000 instances: product form, boundaries, batch m=1 identical")


def test_c03_codec_completeness():
    """Every k-subset rebuilds byte-identically; every (k-1)-subset refuses."""
    rng = random.Random(0xACCE03)
    started = time.monotonic()
    payloads = 0
    for n in range(1, 7):
        for k in range(1, n + 1):
            for _ in range(100):
                size = int(round(math.exp(rng.uniform(0.0, math.log(65536)))))
                payload = rng.randbytes(size)
                fs = split(payload, n, k, item_id="c3", version=1)
                payloads += 1
                for subset in itertools.combinations(fs.fragments, k):
                    assert reconstruct(subset) == payload
                for subset in itertools.combinations(fs.fragments, k - 1):
                    with pytest.raises(InsufficientFragments):
                        reconstruct(subset)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    verdict(3, f"all (n,k) with n<=6, {payloads} payloads 1B-64KiB, {elapsed:.1f}s")


# -- criterion 4: meeting-loop conformance ----------------------------------


class _Terminal:
    def __init__(self, p: float, quota: int = 10**9):
        self.terminal_id = "peer"
        from oppbak.reliability import ChannelEstimate

        self.channel = ChannelEstimate(p)
        self.quota = quota

    def free_bytes(self):
        return self.quota

    def save(self, fragment, item, declared_success):
        self.quota -= fragment_wire_size(item.size_bytes, item.k)
        return True


def _scheduler(items):
    index = VersionIndex()
    tables = {}
    scheduler = Scheduler(
        owner="t00",
        index=index,
        tables=tables,
        success_of=lambda key: tables[key].success,
    )
    for item in items:
        index.register(item)
        tables[item.key] = new_table(item.k)
    return scheduler


def test_c04_meeting_loop_conformance():
    # (a) pull order: descending deficit, FIFO among exact ties
    items = [
        make_item("low", priority=0.5, n=1, k=1, size=100),
        make_item("tie1", priority=0.8, n=1, k=1, size=100),
        make_item("high", priority=0.9, n=1, k=1, size=100),
        make_item("tie2", priority=0.8, n=1, k=1, size=100),
    ]
    scheduler = _scheduler(items)
    for item in items:
        scheduler.enqueue(item, 0.0)
    outcomes = scheduler.on_meeting(_Terminal(p=0.99), LinkSession(10**9))
    assert [o.item_id for o in outcomes] == ["high", "tie1", "tie2", "low"]

    # (b) re-queued iff proba < priority after each save
    below = make_item("below", priority=0.8, n=3, k=1, size=100)
    exact = make_item("exact", priority=0.7, n=3, k=1, size=100)
    scheduler = _scheduler([below, exact])
    scheduler.enqueue(below, 0.0)
    scheduler.enqueue(exact, 0.0)
    wire = fragment_wire_size(100, 1)
    scheduler.on_meeting(_Terminal(p=0.7), LinkSession(2 * wire))
    assert below.key in scheduler.queue      # 0.7 < 0.8: still wanting
    assert exact.key not in scheduler.queue  # 0.7 == 0.7: satisfied, not re-pushed

    # (c) post-meeting soundness: leftovers all fail the quota gate
    big = make_item("big", priority=0.9, n=2, k=1, size=4000)
    bigger = make_item("bigger", priority=0.99, n=2, k=1, size=6000)
    small = make_item("small", priority=0.8, n=1, k=1, size=100)
    scheduler = _scheduler([big, bigger, small])
    for item in (big, bigger, small):
        scheduler.enqueue(item, 0.0)
    terminal = _Terminal(p=0.1, quota=fragment_wire_size(100, 1))
    link = LinkSession(10**9)
    scheduler.on_meeting(terminal, link)
    # small was saved once (still wanting, so re-queued); its save consumed
    # the whole quota, so everything left now fails the gate
    assert link.reachable and len(scheduler.queue) == 3
    for key in scheduler.queue.keys():
        item = scheduler.index.get(key)
        assert terminal.free_bytes() < fragment_wire_size(item.size_bytes, item.k)

    # (d) same-session pair folds through the batch rule and scores strictly
    # below two independent saves at the same probability
    item = make_item("d", priority=1.0, n=3, k=2, size=300)
    scheduler = _scheduler([item])
    scheduler.enqueue(item, 0.0)
    scheduler.on_meeting(_Terminal(p=0.9), LinkSession(fragment_wire_size(300, 2)))
    base = scheduler.tables[item.key]
    scheduler.on_meeting(_Terminal(p=0.6), LinkSession(10**9))
    correlated = scheduler.tables[item.key]
    assert correlated == base.add_batch_same_terminal(0.6, 2)
    independent = base.add_fragment(0.6).add_fragment(0.6)
    assert correlated.success < independent.success
    assert correlated.success == pytest.approx(
        enumeration_success(2, [(0.9, 1), (0.6, 2)]), abs=1e-12
    )
    verdict(4, "pull order, re-queue rule, post-meeting soundness, batch path")


def test_c05_old_version_pinned_through_eviction_storm():
    index = VersionIndex()
    index.register(make_item("doc", n=1, k=1, priority=0.9, version=1))
    index.register(
        make_item("doc", n=1, k=1, priority=0.9, version=2, deps=(("doc", 1),))
    )
    deletions = []
    store = ReplicaStore(
        "peer",
        2000,
        pin_check=lambda item_id, version: (item_id, version) in index
        and index.pinned((item_id, version)),
        on_delete=lambda replica, reason: deletions.append((replica.key, reason)),
    )
    v1 = make_fragment("doc", version=1, original_size=500)
    assert store.accept(*held(v1, priority=0.9, declared=0.9), now=0.0)
    fodder_keys = []
    for i in range(3):
        fragment = make_fragment(f"junk{i}", original_size=300)
        store.accept(*held(fragment, "t01", priority=0.2, declared=0.9), now=float(i))
        fodder_keys.append(("t01", f"junk{i}", 1, 0))
    # the owner announces version 2: the old copy is superseded but pinned,
    # because version 2 has not reached the server
    store.notify(NoticeSource.OWNER_NOTICE, "t00", "doc", 2)
    assert store.get(("t00", "doc", 1, 0)).state is ReplicaState.OUTDATED
    assert index.pinned(("doc", 1))

    # eviction storm: repeated oversize demands delete everything else, never v1
    storm_log = []
    for _ in range(4):
        try:
            storm_log.extend(store.evict(1800, now=10.0))
        except EvictionShortfall as shortfall:
            storm_log.extend(shortfall.deleted)
    assert ("t00", "doc", 1, 0) in store
    assert storm_log == fodder_keys  # exact casualty order: oldest junk first
    assert deletions == [(key, "evicted") for key in fodder_keys]

    # version 2 reaches the server; the pin releases and v1 becomes evictable
    index.mark_on_server(("doc", 2))
    store.notify(NoticeSource.SERVER_NOTICE, "t00", "doc", 2)
    assert not index.pinned(("doc", 1))
    purged = store.purge(now=11.0)
    assert purged == [("t00", "doc", 1, 0)]
    assert len(store) == 0
    assert deletions[-1] == ((("t00", "doc", 1, 0)), "useless")
    verdict(5, "pinned v1 survived the storm; ServerNotice(v2) released it")


def test_c06_restore_conflict_detected_exactly_once():
    index = VersionIndex()
    index.register(make_item("doc", version=1))
    index.register(make_item("doc", version=2, deps=(("doc", 1),)))
    index.mark_on_server(("doc", 1))
    holders = {("doc", 2): ["t07"]}  # v2 sits on t07
    reports = [
        detect_conflict(index.records_for("doc", holders), Location.SERVER, 1)
        for _ in range(1)
    ]
    assert len(reports) == 1 and reports[0] is not None
    report = reports[0]
    assert report.item_id == "doc"
    assert report.restored_version == 1
    assert report.restored_from is Location.SERVER
    assert report.newer_version == 2
    assert report.newer_location is Location.PEER
    assert report.newer_peers == ("t07",)
    # the same placement with the newer version restored raises nothing
    assert detect_conflict(index.records_for("doc", holders), Location.SERVER, 2) is None
    verdict(6, "one report naming v1@server against v2@peer")


def _resilience_config(enabled: bool):
    return config_from_dict({
        "seed": 100,
        "horizon_s": 7200.0,
        "payload_mode": False,
        "peer_backup": enabled,
        "terminals": {"count": 20, "producers": 6, "quota_bytes": 400_000,
                      "base_reliability": 0.85, "backup_peers": "nonproducers"},
        "workload": {"items_per_hour": 5.0, "size_min_bytes": 300,
                     "size_max_bytes": 4000, "priority_min": 0.6,
                     "priority_max": 0.95, "n": 4, "k": 2},
        "mobility": {"encounter_rate_per_hour": 80.0,
                     "contact_duration_mean_s": 20.0,
                     "bandwidth_bytes_per_s": 25_000.0},
        "infrastructure": {"window_rate_per_hour": 0.25,
                           "window_duration_mean_s": 45.0,
                           "bandwidth_bytes_per_s": 250_000.0},
        "failures": {"rate_per_hour": 0.4, "targets": "producers"},
    })


def test_c07_peer_backup_lowers_loss_ratio():
    started = time.monotonic()
    with_peers = run_batch(_resilience_config(True), 100)
    without_peers = run_batch(_resilience_config(False), 100)
    elapsed = time.monotonic() - started
    enabled = with_peers.metrics["loss_ratio"]
    disabled = without_peers.metrics["loss_ratio"]
    assert enabled["mean"] < disabled["mean"]
    assert enabled["ci_high"] < disabled["ci_low"]  # 95% intervals do not touch
    assert elapsed < 60.0
    verdict(
        7,
        f"loss {enabled['mean']:.3f} [{enabled['ci_low']:.3f},{enabled['ci_high']:.3f}] "
        f"vs {disabled['mean']:.3f} [{disabled['ci_low']:.3f},{disabled['ci_high']:.3f}], "
        f"{elapsed:.0f}s",
    )


def test_c08_honest_estimates_are_calibrated():
    config = config_from_dict({
        "seed": 200,
        "horizon_s": 7200.0,
        "payload_mode": False,
        "terminals": {"count": 24, "producers": 12, "quota_bytes": 5_000_000,
                      "base_reliability": 0.7, "backup_peers": "nonproducers"},
        "workload": {"items_per_hour": 10.0, "size_min_bytes": 300,
                     "size_max_bytes": 3000, "priority_min": 0.8,
                     "priority_max": 0.99, "n": 1, "k": 1},
        "mobility": {"encounter_rate_per_hour": 120.0,
                     "contact_duration_mean_s": 15.0,
                     "bandwidth_bytes_per_s": 20_000.0},
        "infrastructure": {"window_rate_per_hour": 0.08,
                           "window_duration_mean_s": 30.0,
                           "bandwidth_bytes_per_s": 200_000.0},
        "failures": {"rate_per_hour": 0.6, "targets": "producers"},
    })
    batch = run_batch(config, 32)
    result = calibration_check(batch)
    assert result.episodes >= 2000
    gaps = {}
    for bin_stat in result.bins:
        gap = abs(bin_stat.mean_predicted - bin_stat.realized_rate)
        gaps[f"[{bin_stat.lo:.1f},{bin_stat.hi:.1f})"] = round(gap, 4)
        assert gap < 0.05, (bin_stat, gap)
    verdict(8, f"{result.episodes} episodes, per-bin |pred-real| {gaps}")


def test_c09_reports_and_traces_are_byte_identical():
    config = _resilience_config(True)
    trace_a: list[str] = []
    trace_b: list[str] = []
    report_a = run(config, trace=trace_a.append)
    report_b = run(config, trace=trace_b.append)
    bytes_a = report_a.json_bytes()
    assert bytes_a == report_b.json_bytes()
    assert "\n".join(trace_a).encode() == "\n".join(trace_b).encode()
    assert json.loads(bytes_a)["seed"] == 100
    verdict(9, f"{len(bytes_a)} report bytes, {len(trace_a)} trace lines identical")


def test_c10_store_accounting_over_random_op_soup():
    rng = random.Random(0xACCE10)
    pinned: set[tuple[str, int]] = set()
    store = ReplicaStore(
        "peer",
        30_000,
        pin_check=lambda item_id, version: (item_id, version) in pinned,
    )
    now = 0.0
    ops = 0
    pin_candidates: list[tuple[str, int]] = []
    for _ in range(10_000):
        now += rng.random()
        roll = rng.random()
        if roll < 0.5:
            item_id = f"i{rng.randrange(300)}"
            version = rng.randint(1, 3)
            payload = b"\n".join(
                b"entry-%03d" % rng.randrange(80) for _ in range(rng.randint(1, 4))
            )
            fragment = make_fragment(
                item_id=item_id, version=version,
                original_size=len(payload), payload=payload,
            )
            if rng.random() < 0.04:
                pinned.add((item_id, version))
            accepted = store.accept(
                *held(
                    fragment,
                    owner=f"t{rng.randrange(6)}",
                    priority=rng.random(),
                    declared=rng.random(),
                    lifetime=now + rng.uniform(1, 800) if rng.random() < 0.25 else None,
                ),
                now=now,
            )
            if accepted:
                pin_candidates.append((item_id, version))
        elif roll < 0.72:
            store.notify(
                rng.choice(list(NoticeSource)),
                f"t{rng.randrange(6)}",
                f"i{rng.randrange(300)}",
                rng.randint(1, 3),
            )
        else:
            try:
                store.evict(rng.randrange(1, 8000), now=now)
            except EvictionShortfall:
                pass
        ops += 1
        assert store.used_bytes == store.recomputed_used_bytes()
        assert store.used_bytes <= store.quota_bytes
    # a pinned replica may expire, but must never be evicted or purged as
    # useless; verify by demanding the store's entire quota at once
    survivors_before = {
        r.key for r in store.replicas()
        if (r.fragment.item_id, r.fragment.version) in pinned and not r.expired(now)
    }
    try:
        store.evict(store.quota_bytes, now=now)
    except EvictionShortfall:
        pass
    survivors_after = {
        r.key for r in store.replicas()
    }
    assert survivors_before <= survivors_after
    assert store.used_bytes == store.recomputed_used_bytes()
    verdict(10, f"{ops} ops, exact accounting, quota respected, pinned intact")

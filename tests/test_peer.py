import random

import pytest

from oppbak.dispersal import HEADER_SIZE
from oppbak.model import UsageError
from oppbak.peer import (
    EvictionShortfall,
    NoticeSource,
    ReplicaMetadata,
    ReplicaState,
    ReplicaStore,
)

from conftest import make_fragment


def meta(owner="t00", priority=0.5, declared=0.5, **kwargs) -> ReplicaMetadata:
    return ReplicaMetadata(
        owner=owner, priority=priority, declared_success=declared, **kwargs
    )


def frag(item_id="a", version=1, index=0, wire_size=300, payload=None, n=None):
    """Fragment whose stored size is exactly `wire_size` bytes (k=1)."""
    return make_fragment(
        item_id=item_id,
        version=version,
        index=index,
        n=n if n is not None else index + 1,
        original_size=wire_size - HEADER_SIZE,
        payload=payload,
    )


class TestAccept:
    def test_plain_accept(self):
        store = ReplicaStore("p", 1000)
        assert store.accept(frag(wire_size=300), meta(), now=0.0)
        assert store.used_bytes == 300

    def test_rejected_when_nothing_purgeable(self):
        store = ReplicaStore("p", 100)
        assert not store.accept(frag(wire_size=300), meta(), now=0.0)
        assert store.used_bytes == 0

    def test_purge_then_accept(self):
        store = ReplicaStore("p", 400)
        # 250 bytes that expire at t=50, leaving 100 free before purge
        assert store.accept(frag("old", wire_size=250), meta(lifetime=50.0), now=0.0)
        assert store.accept(frag("x", wire_size=150), meta(), now=0.0)
        assert store.free_bytes(now=60.0) == 400 - 150  # expired copy purged
        assert store.accept(frag("new", wire_size=250), meta(), now=60.0)
        assert store.used_bytes == store.recomputed_used_bytes() == 400

    def test_accept_uses_space_left_by_last_purge(self):
        store = ReplicaStore("p", 400)
        assert store.accept(frag("old", wire_size=250), meta(lifetime=50.0), now=0.0)
        # expired at t=60 but not yet purged: admission does not purge itself
        assert not store.accept(frag("new", wire_size=250), meta(), now=60.0)
        assert ("t00", "old", 1, 0) in store
        assert store.free_bytes(now=60.0) == 400
        assert store.accept(frag("new", wire_size=250), meta(), now=60.0)

    def test_duplicate_rejected(self):
        store = ReplicaStore("p", 1000)
        assert store.accept(frag(), meta(), now=0.0)
        assert not store.accept(frag(), meta(), now=0.0)
        assert store.accept(frag(index=1, wire_size=300), meta(), now=0.0)

    def test_per_owner_cap(self):
        store = ReplicaStore("p", 1000, per_owner_cap=0.5)
        assert store.accept(frag("a", wire_size=400), meta("hog"), now=0.0)
        assert not store.accept(frag("b", wire_size=200), meta("hog"), now=0.0)
        assert store.accept(frag("c", wire_size=400), meta("other"), now=0.0)


class TestNotify:
    def test_server_notice_confirms(self):
        store = ReplicaStore("p", 1000)
        store.accept(frag("a", version=1), meta(), now=0.0)
        assert store.notify(NoticeSource.SERVER_NOTICE, "a", 1) == 1
        assert store.get(("t00", "a", 1, 0)).state is ReplicaState.CONFIRMED_SAVED

    def test_server_notice_covers_older_versions(self):
        store = ReplicaStore("p", 1000)
        store.accept(frag("a", version=1), meta(), now=0.0)
        store.accept(frag("a", version=3), meta(), now=0.0)
        store.notify(NoticeSource.SERVER_NOTICE, "a", 2)
        assert store.get(("t00", "a", 1, 0)).state is ReplicaState.CONFIRMED_SAVED
        assert store.get(("t00", "a", 3, 0)).state is ReplicaState.LIVE

    def test_owner_notice_outdates_strictly_older(self):
        store = ReplicaStore("p", 1000)
        store.accept(frag("a", version=1), meta(), now=0.0)
        store.accept(frag("a", version=2), meta(), now=0.0)
        store.notify(NoticeSource.OWNER_NOTICE, "a", 2)
        assert store.get(("t00", "a", 1, 0)).state is ReplicaState.OUTDATED
        assert store.get(("t00", "a", 2, 0)).state is ReplicaState.LIVE

    def test_owners_sharing_an_item_id(self):
        store = ReplicaStore("p", 10_000)
        store.accept(frag("a"), meta("t00"), now=0.0)
        store.accept(frag("a"), meta("t01"), now=0.0)
        store.accept(frag("b"), meta("t01"), now=0.0)
        assert store.item_ids_of("t00") == ["a"]
        assert store.item_ids_of("t01") == ["a", "b"]
        assert store.item_ids_of("t02") == []
        assert store.notify(NoticeSource.SERVER_NOTICE, "a", 1) == 2  # both owners' replicas

    def test_unheld_item_is_noop(self):
        store = ReplicaStore("p", 1000)
        assert store.notify(NoticeSource.SERVER_NOTICE, "ghost", 5) == 0

    def test_idempotent(self):
        store = ReplicaStore("p", 1000)
        store.accept(frag("a", version=1), meta(), now=0.0)
        store.notify(NoticeSource.OWNER_NOTICE, "a", 2)
        states = [r.state for r in store.replicas()]
        assert store.notify(NoticeSource.OWNER_NOTICE, "a", 2) == 0
        assert [r.state for r in store.replicas()] == states

    def test_outdated_not_overridden_by_confirmation(self):
        store = ReplicaStore("p", 1000)
        store.accept(frag("a", version=1), meta(), now=0.0)
        store.notify(NoticeSource.OWNER_NOTICE, "a", 2)
        store.notify(NoticeSource.SERVER_NOTICE, "a", 2)
        assert store.get(("t00", "a", 1, 0)).state is ReplicaState.OUTDATED


class TestPurge:
    def test_key_order_reasons_and_pinned_kept(self):
        deletions = []
        store = ReplicaStore(
            "p", 10_000,
            pin_check=lambda item_id, version: item_id == "pinned",
            on_delete=lambda replica, reason: deletions.append((replica.key[1], reason)),
        )
        for item_id, lifetime in (("d", 10.0), ("c", None), ("b", 30.0),
                                  ("a", 20.0), ("pinned", None)):
            store.accept(frag(item_id), meta(lifetime=lifetime), now=0.0)
        for item_id in ("c", "a", "pinned"):
            store.notify(NoticeSource.OWNER_NOTICE, item_id, 2)
        assert store.purge(now=5.0) == [("t00", "a", 1, 0), ("t00", "c", 1, 0)]
        # in key order, not insertion order; the pinned outdated copy stays
        assert deletions == [("a", "useless"), ("c", "useless")]
        assert store.purge(now=25.0) == [("t00", "d", 1, 0)]
        assert store.purge(now=25.0) == []
        assert deletions[-1] == ("d", "expired")
        assert ("t00", "pinned", 1, 0) in store and ("t00", "b", 1, 0) in store

    def test_expired_and_useless_reports_expired(self):
        deletions = []
        store = ReplicaStore("p", 10_000,
                             on_delete=lambda replica, reason: deletions.append(reason))
        store.accept(frag("a"), meta(lifetime=10.0), now=0.0)
        store.notify(NoticeSource.SERVER_NOTICE, "a", 1)
        store.purge(now=10.0)
        assert deletions == ["expired"]

    def test_reinserted_key_expires_on_its_own_lifetime(self):
        store = ReplicaStore("p", 10_000)
        store.accept(frag("a"), meta(lifetime=10.0), now=0.0)
        store.notify(NoticeSource.SERVER_NOTICE, "a", 1)
        assert store.purge(now=1.0) == [("t00", "a", 1, 0)]
        store.accept(frag("a"), meta(lifetime=50.0), now=2.0)
        assert store.purge(now=20.0) == []  # the first copy's expiry is stale
        assert store.purge(now=50.0) == [("t00", "a", 1, 0)]
        assert store.used_bytes == store.recomputed_used_bytes() == 0

    def test_expiring_exactly_now_is_purged(self):
        deletions = []
        store = ReplicaStore("p", 10_000,
                             on_delete=lambda replica, reason: deletions.append(reason))
        store.accept(frag("a"), meta(lifetime=10.0), now=0.0)
        assert store.purge(now=9.0) == []
        assert store.purge(now=10.0) == [("t00", "a", 1, 0)]  # lifetime <= now
        assert deletions == ["expired"]

    def test_pinned_non_live_replica_is_checked_and_kept(self):
        checks = []
        pinned = {"a"}

        def pin_check(item_id, version):
            checks.append(item_id)
            return item_id in pinned

        store = ReplicaStore("p", 10_000, pin_check=pin_check)
        store.accept(frag("a"), meta(), now=0.0)
        store.notify(NoticeSource.OWNER_NOTICE, "a", 2)
        for now in (1.0, 2.0):
            assert store.purge(now=now) == []
        assert checks == ["a", "a"]  # every purge looks at the non-live replica
        assert ("t00", "a", 1, 0) in store
        pinned.clear()
        assert store.purge(now=3.0) == [("t00", "a", 1, 0)]


class TestEvict:
    def test_age_criterion(self):
        store = ReplicaStore("p", 600, w_res=0.0, w_size=0.0)
        store.accept(frag("young"), meta(), now=990.0)
        store.accept(frag("old", wire_size=300), meta(), now=0.0)
        deleted = store.evict(200, now=1000.0)
        assert deleted == [("t00", "old", 1, 0)]

    def test_overprovisioned_goes_first(self):
        store = ReplicaStore("p", 600, w_age=0.0, w_size=0.0)
        store.accept(frag("cosy"), meta(priority=0.5, declared=0.99), now=0.0)
        store.accept(frag("needy", wire_size=300), meta(priority=0.9, declared=0.4), now=0.0)
        deleted = store.evict(200, now=10.0)
        assert deleted == [("t00", "cosy", 1, 0)]

    def test_bulky_goes_first(self):
        store = ReplicaStore("p", 900, w_age=0.0, w_res=0.0)
        store.accept(frag("small", wire_size=200), meta(), now=0.0)
        store.accept(frag("huge", wire_size=700), meta(), now=0.0)
        deleted = store.evict(300, now=10.0)
        assert deleted == [("t00", "huge", 1, 0)]

    def test_dependency_bulk_counts(self):
        store = ReplicaStore("p", 900, w_age=0.0, w_res=0.0)
        store.accept(frag("base", wire_size=300), meta(), now=0.0)
        store.accept(
            frag("leaf", wire_size=300),
            meta(temporal_deps=(("base", 1),)),
            now=0.0,
        )
        store.accept(frag("solo", wire_size=300), meta(), now=0.0)
        # base alone is 300 bytes but drags 300 more of dependent bulk
        deleted = store.evict(100, now=10.0)
        assert deleted == [("t00", "base", 1, 0)]
        # diamond: top reaches base over two paths and still counts once
        diamond = ReplicaStore("q", 1200)
        diamond.accept(frag("base", wire_size=300), meta(), now=0.0)
        for side in ("left", "right"):
            diamond.accept(
                frag(side, wire_size=300), meta(temporal_deps=(("base", 1),)), now=0.0
            )
        diamond.accept(
            frag("top", wire_size=300),
            meta(temporal_deps=(("left", 1), ("right", 1))),
            now=0.0,
        )
        assert diamond._dependency_bulk([diamond.get(("t00", "base", 1, 0))]) == [900]

    def test_rank_matches_formula_oracle(self, rng: random.Random):
        now = 1000.0
        weights = dict(w_age=0.7, w_res=1.3, w_size=0.4)
        rows = []
        for i in range(20):
            received = rng.uniform(0.0, now)
            priority = rng.random()
            declared = rng.random()
            size = rng.randrange(100, 1000) + HEADER_SIZE
            rows.append((f"i{i}", received, priority, declared, size))
        total = sum(r[4] for r in rows)
        store = ReplicaStore("p", total, **weights)
        for item_id, received, priority, declared, size in rows:
            assert store.accept(
                frag(item_id, wire_size=size),
                meta(priority=priority, declared=declared),
                now=received,
            )
        ages = [now - r[1] for r in rows]
        sizes = [r[4] for r in rows]

        def norm(value, population):
            lo, hi = min(population), max(population)
            return 0.0 if hi == lo else (value - lo) / (hi - lo)

        oracle = sorted(
            rows,
            key=lambda r: (
                -(
                    weights["w_age"] * norm(now - r[1], ages)
                    + weights["w_res"] * max(0.0, r[3] - r[2])
                    + weights["w_size"] * norm(r[4], sizes)
                ),
                "t00",
                ("t00", r[0], 1, 0),
            ),
        )
        deleted = store.evict(total, now=now)  # must clear the whole store
        assert deleted == [("t00", r[0], 1, 0) for r in oracle]

    def test_pinned_survive_everything(self):
        pinned_items = {"keep"}
        store = ReplicaStore(
            "p", 600, pin_check=lambda item_id, version: item_id in pinned_items
        )
        store.accept(frag("keep", wire_size=300), meta(), now=0.0)
        store.accept(frag("fodder", wire_size=300), meta(), now=0.0)
        deleted = store.evict(250, now=10.0)
        assert deleted == [("t00", "fodder", 1, 0)]
        with pytest.raises(EvictionShortfall):
            store.evict(400, now=10.0)  # only the pinned replica could provide it
        assert ("t00", "keep", 1, 0) in store

    def test_purge_precedence_over_live(self):
        store = ReplicaStore("p", 900)
        store.accept(frag("a", version=1, wire_size=300), meta(), now=0.0)
        store.accept(frag("b", wire_size=300), meta(), now=0.0)
        store.notify(NoticeSource.SERVER_NOTICE, "a", 1)
        deleted = store.evict(200, now=10.0)
        assert deleted == [("t00", "a", 1, 0)]  # useless copy went, live stayed
        assert ("t00", "b", 1, 0) in store

    def test_all_pinned_shortfall(self):
        store = ReplicaStore("p", 600, pin_check=lambda i, v: True)
        store.accept(frag("a", wire_size=300), meta(), now=0.0)
        store.accept(frag("b", wire_size=300), meta(), now=0.0)
        with pytest.raises(EvictionShortfall) as excinfo:
            store.evict(100, now=10.0)
        assert excinfo.value.deleted == []
        assert len(store) == 2


class TestMerge:
    def _log(self, item_id, entries, owner="t00"):
        payload = b"\n".join(entries)
        return (
            make_fragment(item_id=item_id, original_size=len(payload), payload=payload),
            meta(owner=owner, mergeable=True, stream="tracks"),
        )

    def test_union_semantics(self):
        store = ReplicaStore("p", 10**6)
        f1, m1 = self._log("log1", [b"a", b"b"])
        f2, m2 = self._log("log2", [b"b", b"c"])
        store.accept(f1, m1, now=0.0)
        store.accept(f2, m2, now=0.0)
        merged_key = store.merge([("t00", "log1", 1, 0), ("t00", "log2", 1, 0)], now=1.0)
        merged = store.get(merged_key)
        assert merged.fragment.payload == b"a\nb\nc"
        assert len(store) == 1

    def test_single_replica_noop(self):
        store = ReplicaStore("p", 10**6)
        f1, m1 = self._log("log1", [b"a"])
        store.accept(f1, m1, now=0.0)
        key = ("t00", "log1", 1, 0)
        assert store.merge([key], now=1.0) == key
        assert store.get(key).fragment.payload == b"a"

    def test_shared_entries_free_space(self):
        # three logs totaling ~300 payload bytes of which ~120 are shared
        entries = [b"entry-%02d-xxxxxxxxxx" % i for i in range(9)]  # 19 bytes each
        logs = [entries[0:5], entries[2:7], entries[4:9]]
        assert sum(len(b"\n".join(chunk)) for chunk in logs) == 297
        store = ReplicaStore("p", 10**6)
        keys = []
        for i, chunk in enumerate(logs):
            f, m = self._log(f"log{i}", chunk)
            store.accept(f, m, now=0.0)
            keys.append(("t00", f"log{i}", 1, 0))
        before = store.used_bytes
        merged_key = store.merge(keys, now=1.0)
        merged = store.get(merged_key)
        union = {e for chunk in logs for e in chunk}
        assert set(merged.fragment.payload.split(b"\n")) == union  # nothing lost
        assert len(merged.fragment.payload) <= 180
        freed = before - store.used_bytes
        assert freed >= 120

    def test_priority_is_maximum(self):
        store = ReplicaStore("p", 10**6)
        f1, _ = self._log("log1", [b"a"])
        f2, _ = self._log("log2", [b"b"])
        store.accept(f1, meta(priority=0.3, mergeable=True, stream="s"), now=0.0)
        store.accept(f2, meta(priority=0.8, mergeable=True, stream="s"), now=0.0)
        merged = store.get(
            store.merge([("t00", "log1", 1, 0), ("t00", "log2", 1, 0)], now=1.0)
        )
        assert merged.meta.priority == 0.8

    def test_non_mergeable_rejected(self):
        store = ReplicaStore("p", 10**6)
        f1, m1 = self._log("log1", [b"a"])
        store.accept(f1, m1, now=0.0)
        store.accept(
            make_fragment(item_id="plain", original_size=10, payload=b"0123456789"),
            meta(),
            now=0.0,
        )
        with pytest.raises(UsageError):
            store.merge([("t00", "log1", 1, 0), ("t00", "plain", 1, 0)], now=1.0)

    def test_fragmented_rejected(self):
        store = ReplicaStore("p", 10**6)
        f1, m1 = self._log("log1", [b"a"])
        store.accept(f1, m1, now=0.0)
        store.accept(
            make_fragment(item_id="split", n=3, k=2, original_size=10, payload=b"01234"),
            meta(mergeable=True, stream="tracks"),
            now=0.0,
        )
        with pytest.raises(UsageError):
            store.merge([("t00", "log1", 1, 0), ("t00", "split", 1, 0)], now=1.0)

    def test_sources_preserved_for_restore_query(self):
        store = ReplicaStore("p", 10**6)
        f1, m1 = self._log("log1", [b"a"])
        f2, m2 = self._log("log2", [b"b"], owner="t01")
        store.accept(f1, m1, now=0.0)
        store.accept(f2, m2, now=0.0)
        store.merge([("t00", "log1", 1, 0), ("t01", "log2", 1, 0)], now=1.0)
        assert store.restore_query("log1") == {1: {0}}
        assert store.restore_query("log2") == {1: {0}}


class TestRestoreQuery:
    def test_inventory(self):
        store = ReplicaStore("p", 10**6)
        store.accept(frag("a", version=1, index=0, wire_size=100), meta(), now=0.0)
        store.accept(frag("a", version=1, index=2, wire_size=100), meta(), now=0.0)
        assert store.restore_query("a") == {1: {0, 2}}
        assert store.restore_query("unknown") == {}

    def test_consistent_after_eviction(self):
        store = ReplicaStore("p", 10**6, w_size=0.0, w_res=0.0)
        store.accept(frag("a", version=1, index=0, wire_size=100), meta(), now=100.0)
        store.accept(frag("a", version=1, index=2, wire_size=100), meta(), now=0.0)
        store.evict(10**6 - 150, now=200.0)
        assert store.restore_query("a") == {1: {0}}


class TestAccountingProperty:
    def test_randomized_op_sequences(self, rng: random.Random):
        pinned: set[str] = set()
        store = ReplicaStore(
            "p",
            20_000,
            pin_check=lambda item_id, version: item_id in pinned,
        )
        now = 0.0
        mergeables: list = []
        for step in range(3000):
            now += rng.random()
            op = rng.random()
            if op < 0.55:
                item_id = f"i{rng.randrange(200)}"
                if rng.random() < 0.05:
                    pinned.add(item_id)
                mergeable = rng.random() < 0.2
                payload = b"\n".join(
                    b"e%03d" % rng.randrange(50) for _ in range(rng.randint(1, 5))
                )
                fragment = make_fragment(
                    item_id=item_id,
                    version=rng.randint(1, 3),
                    index=0,
                    original_size=len(payload),
                    payload=payload,
                )
                accepted = store.accept(
                    fragment,
                    meta(
                        owner=f"t{rng.randrange(5)}",
                        lifetime=now + rng.uniform(1, 500) if rng.random() < 0.3 else None,
                        mergeable=mergeable,
                        stream="s" if mergeable else None,
                    ),
                    now=now,
                )
                if accepted and mergeable:
                    mergeables.append(
                        next(r.key for r in store.replicas() if r.fragment is fragment)
                    )
            elif op < 0.75:
                store.notify(
                    rng.choice(list(NoticeSource)),
                    f"i{rng.randrange(200)}",
                    rng.randint(1, 3),
                )
            elif op < 0.9:
                try:
                    store.evict(rng.randrange(1, 5000), now=now)
                except EvictionShortfall:
                    pass
            else:
                held = [
                    k for k in mergeables
                    if k in store and store.get(k).meta.mergeable
                    and store.get(k).meta.stream == "s"
                ]
                if len(held) >= 2:
                    picked = rng.sample(held, 2)
                    merged_key = store.merge(picked, now=now)
                    mergeables = [k for k in mergeables if k not in picked]
                    mergeables.append(merged_key)
            assert store.used_bytes == store.recomputed_used_bytes()
            assert store.used_bytes <= store.quota_bytes
            for owner in {r.meta.owner for r in store.replicas()}:
                assert store.used_bytes_of(owner) == sum(
                    r.size_bytes for r in store.replicas() if r.meta.owner == owner
                )
            for owner in (f"t{i}" for i in range(5)):
                assert store.item_ids_of(owner) == sorted(
                    {r.fragment.item_id for r in store.replicas() if r.meta.owner == owner}
                )

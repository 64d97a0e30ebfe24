import itertools
import random

import pytest

import oppbak.peer
from oppbak.dispersal import HEADER_SIZE, fragment_wire_size
from oppbak.model import DataItem, Fragment, UsageError
from oppbak.peer import (
    EvictionShortfall,
    NoticeSource,
    ReplicaState,
    ReplicaStore,
)

from conftest import held, make_fragment, make_item


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
        assert store.accept(*held(frag(wire_size=300)), now=0.0)
        assert store.used_bytes == 300

    def test_rejected_when_nothing_purgeable(self):
        store = ReplicaStore("p", 100)
        assert not store.accept(*held(frag(wire_size=300)), now=0.0)
        assert store.used_bytes == 0

    def test_purge_then_accept(self):
        store = ReplicaStore("p", 400)
        # 250 bytes that expire at t=50, leaving 100 free before purge
        assert store.accept(*held(frag("old", wire_size=250), lifetime=50.0), now=0.0)
        assert store.accept(*held(frag("x", wire_size=150)), now=0.0)
        assert store.free_bytes(now=60.0) == 400 - 150  # expired copy purged
        assert store.accept(*held(frag("new", wire_size=250)), now=60.0)
        assert store.used_bytes == store.recomputed_used_bytes() == 400

    def test_accept_uses_space_left_by_last_purge(self):
        store = ReplicaStore("p", 400)
        assert store.accept(*held(frag("old", wire_size=250), lifetime=50.0), now=0.0)
        # expired at t=60 but not yet purged: admission does not purge itself
        assert not store.accept(*held(frag("new", wire_size=250)), now=60.0)
        assert ("t00", "old", 1, 0) in store
        assert store.free_bytes(now=60.0) == 400
        assert store.accept(*held(frag("new", wire_size=250)), now=60.0)

    def test_accept_returns_the_stored_replica(self):
        store = ReplicaStore("p", 1000)
        replica = store.accept(*held(frag()), now=0.0)
        assert store.get(replica.key) is replica

    def test_fragment_of_another_version_is_a_usage_error(self):
        store = ReplicaStore("p", 1000)
        fragment, item, declared = held(frag("a", version=2))
        with pytest.raises(UsageError):
            store.accept(frag("a", version=1), item, declared, now=0.0)
        with pytest.raises(UsageError):
            store.accept(frag("b", version=2), item, declared, now=0.0)
        # same key, another plan: n, k or size differ from what the owner describes
        _, planned, _ = held(make_fragment(n=4, k=2, original_size=200))
        for other in (Fragment("a", 1, 3, 5, 2, 200), Fragment("a", 1, 3, 4, 3, 200),
                      Fragment("a", 1, 3, 4, 2, 201)):
            with pytest.raises(UsageError):
                store.accept(other, planned, declared, now=0.0)
        tiny = DataItem(id="a", owner="t00", size_bytes=10, priority=0.5)  # n=1, k=1
        with pytest.raises(UsageError):
            store.accept(Fragment("a", 1, 3, 4, 2, 1000), tiny, 0.5, now=0.0)
        assert len(store) == 0
        assert store.accept(fragment, item, declared, now=0.0).item is item

    def test_admits_only_the_items_own_plan(self, rng: random.Random):
        # fragment and item plans (n, k, size) drawn apart: a pair that differs
        # raises, a pair that agrees is charged the item's wire size
        plans = [(n, k, size) for n in (1, 2) for k in (1, 2) if k <= n for size in (10, 11)]
        store = ReplicaStore("p", 10**6)
        for version in range(1, 101):
            (fn, fk, fsize), (n, k, size) = rng.choice(plans), rng.choice(plans)
            fragment = Fragment("a", version, 0, fn, fk, fsize)
            item = make_item("a", size=size, n=n, k=k, version=version)
            if (fn, fk, fsize) != (n, k, size):
                with pytest.raises(UsageError):
                    store.accept(fragment, item, 0.5, now=0.0)
            else:
                replica = store.accept(fragment, item, 0.5, now=0.0)
                assert replica.size_bytes == fragment_wire_size(size, k)
        assert store.used_bytes == store.recomputed_used_bytes() > 0

    def test_refusals_return_none(self):
        store = ReplicaStore("p", 1000)
        assert store.accept(*held(frag("a", wire_size=400), "hog"), now=0.0) is not None
        assert store.accept(*held(frag("a", wire_size=400), "hog"), now=0.0) is None  # duplicate
        assert store.accept(*held(frag("c", wire_size=400), "other"), now=0.0) is not None
        assert store.accept(*held(frag("d", wire_size=300), "third"), now=0.0) is None  # quota
        assert store.used_bytes == 800

    def test_duplicate_rejected(self):
        store = ReplicaStore("p", 1000)
        assert store.accept(*held(frag()), now=0.0)
        assert not store.accept(*held(frag()), now=0.0)
        assert store.accept(*held(frag(index=1, wire_size=300)), now=0.0)

    def test_one_owner_may_fill_the_quota(self):
        store = ReplicaStore("p", 1000)
        assert store.accept(*held(frag("a", wire_size=600), "hog"), now=0.0)
        assert store.accept(*held(frag("b", wire_size=400), "hog"), now=0.0)
        assert not store.accept(*held(frag("c", wire_size=100), "other"), now=0.0)
        assert store.used_bytes == store.quota_bytes

    def test_payload_of_the_wrong_length_is_a_usage_error(self):
        store = ReplicaStore("p", 1000)
        with pytest.raises(UsageError):
            store.accept(*held(Fragment("a", 1, 0, 1, 1, 10, b"abc")), now=0.0)
        assert len(store) == 0 and store.used_bytes == 0
        replica = store.accept(*held(Fragment("a", 1, 0, 1, 1, 10, b"0123456789")), now=0.0)
        assert replica.size_bytes == store.used_bytes == fragment_wire_size(10, 1) == 61


class TestRoomFor:
    """The room a peer offers a fragment: its free space after a purge."""

    def test_accept_admits_exactly_the_room(self):
        store = ReplicaStore("p", 1000)
        store.accept(*held(frag("a", wire_size=300), "hog"), now=0.0)
        store.accept(*held(frag("b", wire_size=200), "other"), now=0.0)
        assert store.free_bytes(0.0) == 500
        assert not store.accept(*held(frag("c", wire_size=501), "hog"), now=0.0)
        assert store.accept(*held(frag("c", wire_size=500), "hog"), now=0.0)
        assert store.free_bytes(0.0) == 0 and store.used_bytes == store.quota_bytes

    def test_purges_first(self):
        store = ReplicaStore("p", 1000)
        store.accept(*held(frag("old", wire_size=400), "hog", lifetime=50.0), now=0.0)
        store.accept(*held(frag("new", wire_size=500), "hog"), now=0.0)
        assert store.free_bytes(10.0) == 100
        assert store.free_bytes(60.0) == 500  # the expired replica's bytes are free
        assert ("hog", "old", 1, 0) not in store and store.used_bytes == 500


class TestNotify:
    def test_server_notice_confirms(self):
        store = ReplicaStore("p", 1000)
        store.accept(*held(frag("a", version=1)), now=0.0)
        assert store.notify(NoticeSource.SERVER_NOTICE, "t00", "a", 1) == 1
        assert store.get(("t00", "a", 1, 0)).state is ReplicaState.CONFIRMED_SAVED

    def test_server_notice_covers_older_versions(self):
        store = ReplicaStore("p", 1000)
        store.accept(*held(frag("a", version=1)), now=0.0)
        store.accept(*held(frag("a", version=3)), now=0.0)
        store.notify(NoticeSource.SERVER_NOTICE, "t00", "a", 2)
        assert store.get(("t00", "a", 1, 0)).state is ReplicaState.CONFIRMED_SAVED
        assert store.get(("t00", "a", 3, 0)).state is ReplicaState.LIVE

    def test_owner_notice_outdates_strictly_older(self):
        store = ReplicaStore("p", 1000)
        store.accept(*held(frag("a", version=1)), now=0.0)
        store.accept(*held(frag("a", version=2)), now=0.0)
        store.notify(NoticeSource.OWNER_NOTICE, "t00", "a", 2)
        assert store.get(("t00", "a", 1, 0)).state is ReplicaState.OUTDATED
        assert store.get(("t00", "a", 2, 0)).state is ReplicaState.LIVE

    def test_owners_sharing_an_item_id(self):
        store = ReplicaStore("p", 10_000)
        store.accept(*held(frag("a"), "t00"), now=0.0)
        store.accept(*held(frag("a"), "t01"), now=0.0)
        store.accept(*held(frag("b"), "t01"), now=0.0)
        assert [r.key for r in store.replicas_of("t00")] == [("t00", "a", 1, 0)]
        assert [r.key for r in store.replicas_of("t01")] == [("t01", "a", 1, 0),
                                                              ("t01", "b", 1, 0)]
        assert store.replicas_of("t02") == []
        # a notice names one owner's item: the other owner's replica of "a" stays live
        assert store.notify(NoticeSource.SERVER_NOTICE, "t00", "a", 1) == 1
        assert store.notify(NoticeSource.OWNER_NOTICE, "t01", "a", 2) == 1
        assert [r.state for r in store.replicas()] == [
            ReplicaState.CONFIRMED_SAVED, ReplicaState.OUTDATED, ReplicaState.LIVE]
        assert store.notify(NoticeSource.SERVER_NOTICE, "t02", "a", 1) == 0

    def test_unheld_item_is_noop(self):
        store = ReplicaStore("p", 1000)
        assert store.notify(NoticeSource.SERVER_NOTICE, "t00", "ghost", 5) == 0

    def test_idempotent(self):
        store = ReplicaStore("p", 1000)
        store.accept(*held(frag("a", version=1)), now=0.0)
        store.notify(NoticeSource.OWNER_NOTICE, "t00", "a", 2)
        states = [r.state for r in store.replicas()]
        assert store.notify(NoticeSource.OWNER_NOTICE, "t00", "a", 2) == 0
        assert [r.state for r in store.replicas()] == states

    def test_outdated_not_overridden_by_confirmation(self):
        store = ReplicaStore("p", 1000)
        store.accept(*held(frag("a", version=1)), now=0.0)
        store.notify(NoticeSource.OWNER_NOTICE, "t00", "a", 2)
        store.notify(NoticeSource.SERVER_NOTICE, "t00", "a", 2)
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
            store.accept(*held(frag(item_id), lifetime=lifetime), now=0.0)
        for item_id in ("c", "a", "pinned"):
            store.notify(NoticeSource.OWNER_NOTICE, "t00", item_id, 2)
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
        store.accept(*held(frag("a"), lifetime=10.0), now=0.0)
        store.notify(NoticeSource.SERVER_NOTICE, "t00", "a", 1)
        store.purge(now=10.0)
        assert deletions == ["expired"]

    def test_reinserted_key_expires_on_its_own_lifetime(self):
        store = ReplicaStore("p", 10_000)
        store.accept(*held(frag("a"), lifetime=10.0), now=0.0)
        store.notify(NoticeSource.SERVER_NOTICE, "t00", "a", 1)
        assert store.purge(now=1.0) == [("t00", "a", 1, 0)]
        store.accept(*held(frag("a"), lifetime=50.0), now=2.0)
        assert store.purge(now=20.0) == []  # the first copy's expiry is stale
        assert store.purge(now=50.0) == [("t00", "a", 1, 0)]
        assert store.used_bytes == store.recomputed_used_bytes() == 0

    def test_expiring_exactly_now_is_purged(self):
        deletions = []
        store = ReplicaStore("p", 10_000,
                             on_delete=lambda replica, reason: deletions.append(reason))
        store.accept(*held(frag("a"), lifetime=10.0), now=0.0)
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
        store.accept(*held(frag("a")), now=0.0)
        store.notify(NoticeSource.OWNER_NOTICE, "t00", "a", 2)
        for now in (1.0, 2.0):
            assert store.purge(now=now) == []
        assert checks == ["a", "a"]  # every purge looks at the non-live replica
        assert ("t00", "a", 1, 0) in store
        pinned.clear()
        assert store.purge(now=3.0) == [("t00", "a", 1, 0)]


class TestEvict:
    """Each single-criterion case keys its victim after the survivors: a tie
    in score, broken by owner and key, would spare it."""

    def test_age_criterion(self):
        store = ReplicaStore("p", 600)  # equal sizes, declared == priority
        store.accept(*held(frag("new")), now=990.0)
        store.accept(*held(frag("old", wire_size=300)), now=0.0)
        deleted = store.evict(200, now=1000.0)
        assert deleted == [("t00", "old", 1, 0)]

    def test_overprovisioned_goes_first(self):
        store = ReplicaStore("p", 600)  # equal ages and sizes
        store.accept(*held(frag("cosy"), priority=0.5, declared=0.99), now=0.0)
        store.accept(*held(frag("bare", wire_size=300), priority=0.9, declared=0.4), now=0.0)
        deleted = store.evict(200, now=10.0)
        assert deleted == [("t00", "cosy", 1, 0)]

    def test_bulky_goes_first(self):
        store = ReplicaStore("p", 900)  # equal ages, declared == priority
        store.accept(*held(frag("bit", wire_size=200)), now=0.0)
        store.accept(*held(frag("huge", wire_size=700)), now=0.0)
        deleted = store.evict(300, now=10.0)
        assert deleted == [("t00", "huge", 1, 0)]

    def test_held_dependents_add_no_bulk(self):
        store = ReplicaStore("p", 900)  # equal ages and sizes, declared == priority
        store.accept(*held(frag("root", wire_size=300)), now=0.0)
        store.accept(
            *held(frag("leaf", wire_size=300), temporal_deps=(("root", 1),)),
            now=0.0,
        )
        store.accept(*held(frag("solo", wire_size=300)), now=0.0)
        # every score ties, so key order decides: root's held dependent adds nothing
        assert store.evict(100, now=10.0) == [("t00", "leaf", 1, 0)]

    def test_rank_matches_formula_oracle(self, rng: random.Random):
        """The dependency-free score orders a store of independent rows, and
        one whose rows depend on earlier rows, including a@1 and a@3 held
        while a@2 is not (a@3 depends on a@2, and a@2 on a@1)."""
        now = 1000.0

        def draw(item_id, version=1, deps=()):
            size = rng.randrange(100, 1000) + HEADER_SIZE
            return (item_id, version, rng.uniform(0.0, now), rng.random(), rng.random(),
                    size, deps)

        plain = [draw(f"i{i}") for i in range(20)]
        linked = []
        for i in range(20):
            earlier = rng.sample(range(i), k=min(i, rng.randrange(3)))
            linked.append(draw(f"i{i}", deps=tuple((f"i{j}", 1) for j in earlier)))
        linked += [draw("a", 1), draw("a", 3, deps=(("a", 2),))]

        def norm(value, population):
            lo, hi = min(population), max(population)
            return 0.0 if hi == lo else (value - lo) / (hi - lo)

        for rows in (plain, linked):
            total = sum(r[5] for r in rows)
            store = ReplicaStore("p", total)
            for item_id, version, received, priority, declared, size, deps in rows:
                assert store.accept(
                    *held(frag(item_id, version=version, wire_size=size), priority=priority,
                          declared=declared, temporal_deps=deps),
                    now=received,
                )
            ages = [now - r[2] for r in rows]
            sizes = [r[5] for r in rows]
            oracle = sorted(
                rows,
                key=lambda r: (
                    -(norm(now - r[2], ages) + max(0.0, r[4] - r[3]) + norm(r[5], sizes)),
                    "t00",
                    ("t00", r[0], r[1], 0),
                ),
            )
            deleted = store.evict(total, now=now)  # must clear the whole store
            assert deleted == [("t00", r[0], r[1], 0) for r in oracle]

    @pytest.mark.parametrize(
        "leader, rival", list(itertools.permutations(("age", "overshoot", "size"), 2))
    )
    def test_larger_lead_wins_across_criteria(self, leader, rival):
        # x leads y by 0.6 on `leader`, y leads x by 0.5 on `rival`, the third
        # criterion ties, and z scores 0 on all three. z sets the minimum of
        # normalized age and size, so leads on them are fractions of the range.
        # At equal weights x goes first; once the leader's weight falls below
        # five sixths of the rival's, y does.
        terms = {name: dict.fromkeys(("age", "overshoot", "size"), 0.0) for name in "xyz"}
        normalized = {"age", "size"}
        terms["y"][leader] = 0.4 if leader in normalized else 0.0
        terms["x"][leader] = terms["y"][leader] + 0.6
        terms["x"][rival] = 0.5 if rival in normalized else 0.0
        terms["y"][rival] = terms["x"][rival] + 0.5
        now = 1000.0
        sizes = {name: 200 + round(100 * t["size"]) for name, t in terms.items()}
        store = ReplicaStore("p", sum(sizes.values()))
        for name, t in terms.items():
            assert store.accept(
                *held(frag(name, wire_size=sizes[name]), priority=0.3,
                      declared=0.3 + t["overshoot"]),
                now=now - 100.0 - 100.0 * t["age"],
            )
        deleted = store.evict(sum(sizes.values()), now=now)
        assert deleted == [("t00", name, 1, 0) for name in "xyz"]

    def test_pinned_survive_everything(self):
        pinned_items = {"keep"}
        store = ReplicaStore(
            "p", 600, pin_check=lambda item_id, version: item_id in pinned_items
        )
        store.accept(*held(frag("keep", wire_size=300)), now=0.0)
        store.accept(*held(frag("fodder", wire_size=300)), now=0.0)
        deleted = store.evict(250, now=10.0)
        assert deleted == [("t00", "fodder", 1, 0)]
        with pytest.raises(EvictionShortfall):
            store.evict(400, now=10.0)  # only the pinned replica could provide it
        assert ("t00", "keep", 1, 0) in store

    def test_purge_precedence_over_live(self):
        store = ReplicaStore("p", 900)
        store.accept(*held(frag("a", version=1, wire_size=300)), now=0.0)
        store.accept(*held(frag("b", wire_size=300)), now=0.0)
        store.notify(NoticeSource.SERVER_NOTICE, "t00", "a", 1)
        deleted = store.evict(200, now=10.0)
        assert deleted == [("t00", "a", 1, 0)]  # useless copy went, live stayed
        assert ("t00", "b", 1, 0) in store

    def test_all_pinned_shortfall(self):
        store = ReplicaStore("p", 600, pin_check=lambda i, v: True)
        store.accept(*held(frag("a", wire_size=300)), now=0.0)
        store.accept(*held(frag("b", wire_size=300)), now=0.0)
        with pytest.raises(EvictionShortfall) as excinfo:
            store.evict(100, now=10.0)
        assert excinfo.value.deleted == []
        assert len(store) == 2


class TestReplicasOf:
    def test_key_order(self):
        store = ReplicaStore("p", 10**6)
        for item_id, version, index in (("b", 1, 0), ("a", 2, 0), ("a", 1, 2), ("a", 1, 0)):
            store.accept(*held(frag(item_id, version=version, index=index, wire_size=100)),
                         now=0.0)
        store.accept(*held(frag("a", wire_size=100), "t01"), now=0.0)
        assert [r.key for r in store.replicas_of("t00")] == [
            ("t00", "a", 1, 0), ("t00", "a", 1, 2), ("t00", "a", 2, 0), ("t00", "b", 1, 0)]
        assert store.replicas_of("unknown") == []

    def test_reads_do_not_sort(self, monkeypatch):
        store = ReplicaStore("p", 10**6)
        for owner, item_id, index in (("t01", "b", 0), ("t00", "c", 1), ("t01", "a", 0),
                                      ("t00", "c", 0), ("t00", "a", 0)):
            store.accept(*held(frag(item_id, index=index, wire_size=100), owner), now=0.0)

        def no_sort(*args, **kwargs):
            raise AssertionError("a store read sorted")

        monkeypatch.setattr(oppbak.peer, "sorted", no_sort, raising=False)
        assert [r.key for r in store.replicas()] == [
            ("t00", "a", 1, 0), ("t00", "c", 1, 0), ("t00", "c", 1, 1),
            ("t01", "a", 1, 0), ("t01", "b", 1, 0)]
        assert [r.key for r in store.replicas_of("t00")] == [
            ("t00", "a", 1, 0), ("t00", "c", 1, 0), ("t00", "c", 1, 1)]
        assert [r.key for r in store.replicas_of("t01")] == [
            ("t01", "a", 1, 0), ("t01", "b", 1, 0)]

    def test_consistent_after_eviction(self):
        store = ReplicaStore("p", 10**6)  # equal sizes, declared == priority
        store.accept(*held(frag("a", version=1, index=0, wire_size=100)), now=100.0)
        store.accept(*held(frag("a", version=1, index=2, wire_size=100)), now=0.0)
        store.evict(10**6 - 150, now=200.0)
        assert [r.key for r in store.replicas_of("t00")] == [("t00", "a", 1, 0)]


class TestAccountingProperty:
    def test_randomized_op_sequences(self, rng: random.Random):
        pinned: set[str] = set()
        store = ReplicaStore(
            "p",
            20_000,
            pin_check=lambda item_id, version: item_id in pinned,
        )
        now = 0.0
        for step in range(3000):
            now += rng.random()
            op = rng.random()
            if op < 0.55:
                item_id = f"i{rng.randrange(200)}"
                if rng.random() < 0.05:
                    pinned.add(item_id)
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
                store.accept(
                    *held(
                        fragment,
                        owner=f"t{rng.randrange(5)}",
                        lifetime=now + rng.uniform(1, 500) if rng.random() < 0.3 else None,
                    ),
                    now=now,
                )
            elif op < 0.75:
                store.notify(
                    rng.choice(list(NoticeSource)),
                    f"t{rng.randrange(5)}",
                    f"i{rng.randrange(200)}",
                    rng.randint(1, 3),
                )
            else:
                try:
                    store.evict(rng.randrange(1, 5000), now=now)
                except EvictionShortfall:
                    pass
            assert store.used_bytes == store.recomputed_used_bytes()
            assert store.used_bytes <= store.quota_bytes
            for owner in (f"t{i}" for i in range(5)):
                assert store.replicas_of(owner) == [
                    r for r in store.replicas() if r.item.owner == owner
                ]

import random

import pytest

from oppbak.dispersal import fragment_wire_size
from oppbak.model import UsageError, VersionIndex
from oppbak.reliability import ChannelEstimate, new_table
from oppbak.scheduler import (
    BackupQueue,
    LinkSession,
    Scheduler,
)

from conftest import enumeration_success, make_item


class FakeTerminal:
    """Quota-limited terminal that accepts everything it has room for."""

    def __init__(self, terminal_id="peer", p=0.7, quota=10**9):
        self.terminal_id = terminal_id
        self.channel = ChannelEstimate(p)
        self.quota = quota
        self.saved = []
        self.reads = 0

    def free_bytes(self):
        self.reads += 1
        return self.quota

    def save(self, fragment, item, declared_success):
        size = fragment_wire_size(item.size_bytes, item.k)
        assert size <= self.quota, "offered a fragment above the free space"
        self.quota -= size
        self.saved.append((fragment.item_id, fragment.version, fragment.index, declared_success))


def build_scheduler(items, owner="t00"):
    """Scheduler over plain per-item success (no dependency factors)."""
    index = VersionIndex()
    tables = {}
    scheduler = Scheduler(
        owner=owner,
        index=index,
        tables=tables,
        success_of=lambda key: tables[key].success,
    )
    for item in items:
        index.register(item)
        tables[item.key] = new_table(item.k)
    return scheduler


class TestBackupQueue:
    def test_enqueue_requires_positive_deficit(self):
        q = BackupQueue()
        assert q.enqueue(("a", 1), 0.9)
        assert not q.enqueue(("b", 1), 0.0)
        assert not q.enqueue(("c", 1), -0.1)
        assert q.keys() == [("a", 1)]

    def test_duplicate_rejected(self):
        q = BackupQueue()
        q.enqueue(("a", 1), 0.5)
        with pytest.raises(UsageError):
            q.enqueue(("a", 1), 0.3)

    def test_pull_order_matches_sort_oracle(self, rng: random.Random):
        q = BackupQueue()
        deficits = {}
        for i in range(40):
            key = (f"i{i}", 1)
            deficits[key] = rng.choice([0.1, 0.2, 0.2, 0.5, 0.9])
            q.enqueue(key, deficits[key])
        expected = sorted(
            deficits, key=lambda key: (-deficits[key], int(key[0][1:]))
        )
        pulled = []
        while True:
            key = q.pull(lambda key: deficits[key])
            if key is None:
                break
            pulled.append(key)
        assert pulled == expected

    def test_stale_entries_retired_at_pull(self):
        q = BackupQueue()
        q.enqueue(("a", 1), 0.9)
        q.enqueue(("b", 1), 0.4)
        live = {("a", 1): -0.2, ("b", 1): 0.4}  # a reached target meanwhile
        q.notice(("a", 1))
        assert q.pull(lambda key: live[key]) == ("b", 1)
        assert len(q) == 0

    def test_noticed_deficits_reorder_and_stale_stamps_stay_bounded(self, rng: random.Random):
        q = BackupQueue()
        deficits = {}
        for i in range(50):
            key = (f"i{i}", 1)
            deficits[key] = rng.random() + 0.01
            q.enqueue(key, deficits[key])
        arrival = list(deficits)
        while len(q):
            for key in rng.sample(q.keys(), min(len(q), 8)):
                deficits[key] = rng.choice([-0.1, 0.0, rng.random() + 0.01, deficits[key]])
                q.notice(key)
            queued = [key for key in q.keys() if deficits[key] > 0.0]
            expected = min(queued, key=lambda key: (-deficits[key], arrival.index(key)),
                           default=None)
            assert q.pull(lambda key: deficits[key]) == expected
            assert q.keys() == [key for key in queued if key != expected]
            assert len(q._heap) <= 2 * len(q)

    def test_filtered_pull_keeps_rejected_entries_in_order(self):
        def filled():
            q = BackupQueue()
            for name, deficit in [("a", 0.5), ("b", 0.9), ("c", 0.5), ("d", 0.7), ("e", 0.5)]:
                q.enqueue((name, 1), deficit)
            return q

        def drain(q, eligible=None):
            pulled = []
            while (key := q.pull(lambda key: 1.0, eligible)) is not None:
                pulled.append(key[0])
            return pulled

        meeting = filled()
        assert drain(meeting, lambda key: key[0] not in "bc") == ["d", "a", "e"]
        assert meeting.keys() == [("b", 1), ("c", 1)]
        assert drain(filled()) == ["b", "d", "a", "c", "e"]
        flush = filled()
        assert flush.pull(lambda key: 1.0, lambda key: key[0] in "ce") == ("c", 1)

    def test_ineligible_entries_stay(self):
        q = BackupQueue()
        q.enqueue(("a", 1), 0.9)
        assert q.pull(lambda key: 0.9, eligible=lambda key: False) is None
        assert ("a", 1) in q


class TestEnqueue:
    def test_spec_cases(self):
        high = make_item("a", priority=0.9)
        low = make_item("b", priority=0.5)
        scheduler = build_scheduler([high, low])
        assert scheduler.enqueue(high, 0.0)
        assert not scheduler.enqueue(low, 0.6)
        assert scheduler.queue.keys() == [("a", 1)]

    def test_unregistered_item_rejected(self):
        scheduler = build_scheduler([])
        with pytest.raises(UsageError):
            scheduler.enqueue(make_item("ghost"), 0.0)


class TestOnMeeting:
    def test_single_item_reaches_target_and_leaves(self):
        item = make_item("a", priority=0.6, n=1, k=1, size=500)
        scheduler = build_scheduler([item])
        scheduler.enqueue(item, 0.0)
        terminal = FakeTerminal(p=0.7)
        outcomes = scheduler.on_meeting(terminal, LinkSession(10**6))
        assert [o.saved for o in outcomes] == [True]
        assert scheduler.tables[item.key].success == pytest.approx(0.7)
        assert len(scheduler.queue) == 0

    def test_empty_queue_returns_nothing(self):
        scheduler = build_scheduler([])
        link = LinkSession(10**6)
        assert scheduler.on_meeting(FakeTerminal(), link) == []
        assert link.remaining == 10**6

    def test_link_drop_keeps_item_queued(self):
        item = make_item("a", priority=0.99, n=4, k=2, size=1000)
        scheduler = build_scheduler([item])
        scheduler.enqueue(item, 0.0)
        size = fragment_wire_size(1000, 2)
        link = LinkSession(size + size // 2)  # room for one, drops on the second
        outcomes = scheduler.on_meeting(FakeTerminal(p=0.5), link)
        assert len(outcomes) == 1 and outcomes[0].saved
        assert link.dropped
        assert item.key in scheduler.queue
        assert scheduler.tables[item.key].fragments_saved == 1

    @pytest.mark.parametrize("sent", [0, 2], ids=["data-index", "parity-index"])
    def test_dropped_transfer_builds_no_fragment(self, sent):
        item = make_item("a", priority=0.99, n=4, k=2, size=1000)
        scheduler = build_scheduler([item])
        for _ in range(sent):
            scheduler.tables[item.key] = scheduler.tables[item.key].add_fragment(0.5)
        scheduler.enqueue(item, scheduler.success_of(item.key))
        built = []
        scheduler.fragment_for = lambda key, i: built.append((key, i))
        link = LinkSession(fragment_wire_size(1000, 2) - 1)
        assert scheduler.on_meeting(FakeTerminal(p=0.5), link) == []
        assert link.dropped and built == []
        assert item.key in scheduler.queue
        assert scheduler.tables[item.key].fragments_saved == sent

    def test_pull_order_and_fifo_ties(self):
        a = make_item("a", priority=0.9, size=100)
        b = make_item("b", priority=0.5, size=100)
        scheduler = build_scheduler([a, b])
        scheduler.enqueue(a, 0.0)
        scheduler.enqueue(b, 0.3)
        # deficits 0.9 vs 0.2: a first even though b was... a arrived first anyway;
        # order asserted against the comparator oracle below
        outcomes = scheduler.on_meeting(FakeTerminal(p=0.99), LinkSession(10**6))
        assert [o.item_id for o in outcomes] == ["a", "b"]

    def test_requeued_only_while_below_target(self):
        # channel exactly matches the target: proba == priority stops the item
        exact = make_item("a", priority=0.7, n=3, k=1, size=100)
        scheduler = build_scheduler([exact])
        scheduler.enqueue(exact, 0.0)
        scheduler.on_meeting(FakeTerminal(p=0.7), LinkSession(10**6))
        assert exact.key not in scheduler.queue
        assert scheduler.tables[exact.key].fragments_saved == 1

    def test_post_meeting_soundness(self):
        big = make_item("big", priority=0.9, size=5000)
        small = make_item("small", priority=0.8, size=100)
        scheduler = build_scheduler([big, small])
        scheduler.enqueue(big, 0.0)
        scheduler.enqueue(small, 0.0)
        terminal = FakeTerminal(p=0.1, quota=fragment_wire_size(100, 1) + 10)
        link = LinkSession(10**9)
        scheduler.on_meeting(terminal, link)
        assert link.reachable and len(scheduler.queue) > 0
        for key in scheduler.queue.keys():
            item = scheduler.index.get(key)
            assert terminal.free_bytes() < fragment_wire_size(item.size_bytes, item.k)

    def test_free_space_read_once_between_saves(self):
        items = [make_item(f"i{j}", priority=0.9, size=100) for j in range(4)]
        scheduler = build_scheduler(items)
        for item in items:
            scheduler.enqueue(item, 0.0)
        terminal = FakeTerminal(p=0.5, quota=2 * fragment_wire_size(100, 1))
        scheduler.on_meeting(terminal, LinkSession(10**9))
        assert [s[0] for s in terminal.saved] == ["i0", "i1"]  # a third does not fit
        assert terminal.reads == 3  # before each save, then once to find nothing fits

    def test_fragment_conservation(self):
        item = make_item("a", priority=1.0, n=3, k=2, size=300)
        scheduler = build_scheduler([item])
        scheduler.enqueue(item, 0.0)
        total = 0
        for _ in range(5):
            outcomes = scheduler.on_meeting(FakeTerminal(p=0.01), LinkSession(10**6))
            total += sum(o.saved for o in outcomes)
        assert total == 3  # n exhausted; later meetings save nothing
        assert scheduler.tables[item.key].fragments_saved == 3
        # still short of its target: stays queued for an eventual server flush
        assert item.key in scheduler.queue

    def test_exhausted_item_passed_over_before_any_free_space_read(self):
        item = make_item("a", priority=1.0, n=2, k=1, size=100, lifetime=50.0)
        scheduler = build_scheduler([item])
        scheduler.enqueue(item, 0.0)
        scheduler.on_meeting(FakeTerminal(p=0.1), LinkSession(10**6))
        assert scheduler.tables[item.key].fragments_saved == 2
        terminal = FakeTerminal(p=0.1)
        # expired too, yet neither saved nor retired: exhaustion is tested first
        assert scheduler.on_meeting(terminal, LinkSession(10**6), now=60.0) == []
        assert terminal.saved == [] and terminal.reads == 0
        assert item.key in scheduler.queue

    def test_same_session_batch_vs_independent(self):
        # one fragment on terminal X, then two more on terminal Y in one
        # session: the correlated pair must score strictly below two
        # independent saves at the same probability
        item = make_item("a", priority=1.0, n=3, k=2, size=300)
        scheduler = build_scheduler([item])
        scheduler.enqueue(item, 0.0)
        one_fragment = fragment_wire_size(300, 2)
        first = scheduler.on_meeting(FakeTerminal("x", p=0.9), LinkSession(one_fragment))
        assert [o.fragment_index for o in first] == [0]
        base = scheduler.tables[item.key]
        assert base == new_table(2).add_fragment(0.9)
        second = scheduler.on_meeting(FakeTerminal("y", p=0.6), LinkSession(10**6))
        assert [o.fragment_index for o in second] == [1, 2]
        got = scheduler.tables[item.key]
        assert got == base.add_batch_same_terminal(0.6, 2)  # batch path, bit-exact
        independent = base.add_fragment(0.6).add_fragment(0.6)
        assert got.success < independent.success
        assert got.success == pytest.approx(
            enumeration_success(2, [(0.9, 1), (0.6, 2)]), abs=1e-12
        )
        assert independent.success == pytest.approx(
            enumeration_success(2, [(0.9, 1), (0.6, 1), (0.6, 1)]), abs=1e-12
        )

    def test_re_encounter_same_terminal_is_independent(self):
        item = make_item("a", priority=1.0, n=2, k=1, size=100)
        scheduler = build_scheduler([item])
        scheduler.enqueue(item, 0.0)
        terminal = FakeTerminal("same", p=0.6)
        wire = fragment_wire_size(100, 1)
        scheduler.on_meeting(terminal, LinkSession(wire))
        scheduler.on_meeting(terminal, LinkSession(wire))
        # separate sessions on one terminal count as independent saves,
        # not as a continuation of the earlier batch
        independent = new_table(1).add_fragment(0.6).add_fragment(0.6)
        assert scheduler.tables[item.key] == independent
        assert scheduler.tables[item.key].success == pytest.approx(0.84)

    def test_expired_item_retired_at_pull(self):
        item = make_item("a", priority=0.9, n=2, k=1, size=100, lifetime=50.0)
        scheduler = build_scheduler([item])
        scheduler.enqueue(item, 0.0)
        outcomes = scheduler.on_meeting(FakeTerminal(), LinkSession(10**6), now=60.0)
        assert outcomes == []
        assert len(scheduler.queue) == 0

    def test_item_above_free_space_is_never_offered(self):
        item = make_item("a", priority=0.9, n=2, k=1, size=100)
        scheduler = build_scheduler([item])
        scheduler.enqueue(item, 0.0)
        table_before = scheduler.tables[item.key]
        terminal = FakeTerminal(quota=fragment_wire_size(100, 1) - 1)
        link = LinkSession(10**6)
        assert scheduler.on_meeting(terminal, link) == []
        assert terminal.saved == [] and link.remaining == 10**6
        assert scheduler.tables[item.key] == table_before
        assert item.key in scheduler.queue  # retained for other terminals

    def test_deterministic_outcomes(self):
        def one_run():
            items = [
                make_item(f"i{j}", priority=0.6 + 0.05 * j, n=3, k=2, size=200 + j)
                for j in range(6)
            ]
            scheduler = build_scheduler(items)
            for item in items:
                scheduler.enqueue(item, 0.0)
            return scheduler.on_meeting(FakeTerminal(p=0.37), LinkSession(3000))

        assert one_run() == one_run()

    def test_declared_success_reported_to_terminal(self):
        item = make_item("a", priority=0.9, n=1, k=1, size=100)
        scheduler = build_scheduler([item])
        scheduler.enqueue(item, 0.0)
        terminal = FakeTerminal(p=0.4)
        scheduler.on_meeting(terminal, LinkSession(10**6))
        (_, _, _, declared) = terminal.saved[0]
        assert declared == pytest.approx(0.4)  # post-save estimate


import dataclasses
import graphlib
import pickle
import random

import pytest

from oppbak.model import (
    ConflictReport,
    DataItem,
    IntegrityError,
    Location,
    UnknownItemError,
    UsageError,
    VersionIndex,
    detect_conflict,
    propagate_priority,
)
from oppbak.peer import Replica
from oppbak.reliability import ReliabilityTable
from oppbak.scheduler import SaveOutcome
from oppbak.sim import (
    DataProducedEvent,
    EncounterEvent,
    InternetWindowEvent,
    RestoreAttemptEvent,
    TerminalFailureEvent,
)

from conftest import brute_closure, held, make_fragment, make_item


class TestDataItem:
    def test_validation(self):
        with pytest.raises(UsageError):
            make_item(priority=1.5)
        with pytest.raises(UsageError):
            make_item(n=2, k=3)
        with pytest.raises(UsageError):
            make_item(size=-1)
        with pytest.raises(UsageError):
            make_item(version=0)

    def test_expiry(self):
        item = make_item(lifetime=100.0)
        assert not item.expired(99.9)
        assert item.expired(100.0)
        assert not make_item().expired(1e9)


def _frozen_records() -> list:
    """One of each frozen value record the engine keeps per version, save or event."""
    item = make_item("a", version=2, deps=(("a", 1),))
    return [
        item,
        make_fragment("a", version=2),
        ReliabilityTable.fresh(2),
        SaveOutcome("a", 2, 0, 300, True),
        EncounterEvent(1.0, "t00", "t01", 2.0, 3.0),
        InternetWindowEvent(1.0, "t00", 2.0, 3.0),
        DataProducedEvent(1.0, "t00", item),
        TerminalFailureEvent(1.0, "t00"),
        RestoreAttemptEvent(1.0, "t00"),
    ]


class TestCompactRecords:
    """The records held per version, save, replica and event carry no instance dict."""

    @pytest.mark.parametrize("record", _frozen_records(), ids=lambda r: type(r).__name__)
    def test_frozen_record_is_slotted_hashable_and_replaceable(self, record):
        assert not hasattr(record, "__dict__")
        for copied in (dataclasses.replace(record), pickle.loads(pickle.dumps(record))):
            assert copied == record and hash(copied) == hash(record)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, dataclasses.fields(record)[0].name, None)

    def test_replica_is_slotted(self):
        assert not hasattr(Replica(*held(make_fragment()), 0.0, 100), "__dict__")

    def test_key_is_built_once(self):
        item = make_item("a", version=3)
        assert item.key == ("a", 3)
        assert item.key is item.key
        assert pickle.loads(pickle.dumps(item)).key == ("a", 3)

    def test_key_takes_no_part_in_equality_hash_or_repr(self):
        item = make_item("a", version=3)
        compared = tuple(getattr(item, f.name) for f in dataclasses.fields(item) if f.compare)
        assert "key" not in {f.name for f in dataclasses.fields(item) if f.compare}
        assert hash(item) == hash(compared)
        assert "key=" not in repr(item)

    def test_set_priority_result_keeps_key_equality_and_hash(self):
        index = VersionIndex()
        item = make_item("a", version=1, priority=0.5)
        index.register(item)
        index.set_priority(item.key, 0.9)
        raised = index.get(item.key)
        assert raised.key == ("a", 1) and raised.priority == 0.9
        assert raised == dataclasses.replace(item, priority=0.9) != item
        assert hash(raised) == hash(dataclasses.replace(item, priority=0.9))
        lowered = dataclasses.replace(raised, priority=0.5)
        assert lowered == item and hash(lowered) == hash(item) and lowered.key == item.key


class TestVersionIndex:
    def test_register_and_lookup(self, index: VersionIndex):
        item = make_item()
        index.register(item)
        assert index.get(item.key) == item
        assert index.latest_version("a") == 1
        with pytest.raises(UnknownItemError):
            index.get(("nope", 1))
        with pytest.raises(UnknownItemError):
            index.latest_version("nope")

    def test_versions_and_newest_on_server(self, index: VersionIndex):
        index.register(make_item("b"))
        index.register(make_item(version=1))
        index.register(make_item(version=3, deps=(("a", 1),)))
        index.register(make_item(version=7, deps=(("a", 3),)))
        assert index.versions_of("a") == [1, 3, 7]
        assert index.latest_version("a") == 7
        assert index.latest_on_server("a") is None
        index.mark_on_server(("a", 3))
        index.mark_on_server(("a", 1))
        assert index.latest_on_server("a") == 3
        assert index.latest_on_server("b") is None
        assert index.latest_on_server("never-registered") is None
        index.versions_of("a").clear()  # a copy: the index keeps its list
        assert index.versions_of("a") == [1, 3, 7]

    def test_version_must_increase(self, index: VersionIndex):
        index.register(make_item(version=1))
        index.register(make_item(version=2, deps=(("a", 1),)))
        with pytest.raises(UsageError):
            index.register(make_item(version=2))

    def test_dangling_dep_rejected(self, index: VersionIndex):
        with pytest.raises(IntegrityError):
            index.register(make_item(deps=(("ghost", 1),)))

    def test_refused_registration_changes_nothing(self, index: VersionIndex):
        index.register(make_item("base"))
        # a registered dependency first, then one never registered or the version itself
        for deps in ((("base", 1), ("ghost", 1)), (("base", 1), ("a", 1))):
            with pytest.raises(IntegrityError):
                index.register(make_item("a", deps=deps))
        assert ("a", 1) not in index and len(index) == 1
        assert not index.has_dependents(("base", 1))
        with pytest.raises(UnknownItemError):
            index.versions_of("a")
        index.register(make_item("a", deps=(("base", 1),)))
        assert index.closure_of(("a", 1)) == (("a", 1), ("base", 1))

    def test_acyclic_after_random_growth(self, index: VersionIndex, rng: random.Random):
        keys = []
        for i in range(60):
            deps = tuple(rng.sample(keys, k=min(len(keys), rng.randrange(3))))
            item = make_item(f"i{i}", deps=deps)
            index.register(item)
            keys.append(item.key)
            graph = {key: index.get(key).temporal_deps for key in index.keys()}
            assert len(list(graphlib.TopologicalSorter(graph).static_order())) == len(keys)


class TestPinning:
    def test_dependent_off_server_pins(self, index: VersionIndex):
        index.register(make_item(version=1))
        index.register(make_item(version=2, deps=(("a", 1),)))
        assert index.pinned(("a", 1))
        assert not index.pinned(("a", 2))

    def test_dependent_on_server_unpins(self, index: VersionIndex):
        index.register(make_item(version=1))
        index.register(make_item(version=2, deps=(("a", 1),)))
        index.mark_on_server(("a", 2))
        assert not index.pinned(("a", 1))

    def test_own_server_copy_unpins(self, index: VersionIndex):
        index.register(make_item(version=1))
        index.register(make_item(version=2, deps=(("a", 1),)))
        index.mark_on_server(("a", 1))
        assert not index.pinned(("a", 1))

    def test_transitive_chain(self, index: VersionIndex):
        index.register(make_item("base"))
        index.register(make_item("mid", deps=(("base", 1),)))
        index.register(make_item("top", deps=(("mid", 1),)))
        assert index.pinned(("base", 1))
        index.mark_on_server(("mid", 1))
        # top still off-server and transitively dependent on base
        assert index.pinned(("base", 1))
        index.mark_on_server(("top", 1))
        assert not index.pinned(("base", 1))

    def test_ancestor_reached_only_through_a_diamond(self, index: VersionIndex):
        index.register(make_item("base"))
        index.register(make_item("left", deps=(("base", 1),)))
        index.register(make_item("right", deps=(("base", 1),)))
        index.register(make_item("top", deps=(("left", 1), ("right", 1))))
        index.mark_on_server(("left", 1))
        index.mark_on_server(("right", 1))
        assert index.transitive_dependents(("base", 1)) == {("left", 1), ("right", 1), ("top", 1)}
        assert index.pinned(("base", 1))  # top is off the server
        index.mark_on_server(("top", 1))
        assert not index.pinned(("base", 1))


class TestDependencyWalk:
    @staticmethod
    def _growing_dag(index: VersionIndex, rng: random.Random):
        """Register 30 versions with up to 3 dependencies each; yield the edges after each."""
        edges = {}
        for i in range(30):
            deps = tuple(rng.sample(list(edges), k=min(len(edges), rng.randrange(4))))
            item = make_item(f"i{i}", deps=deps)
            index.register(item)
            edges[item.key] = deps
            yield edges

    @classmethod
    def _random_dag(cls, index: VersionIndex, rng: random.Random) -> dict:
        for edges in cls._growing_dag(index, rng):
            pass
        return edges

    def test_closure_matches_brute_force(self, rng: random.Random):
        for _ in range(20):
            index = VersionIndex()
            edges = self._random_dag(index, rng)
            roots = rng.sample(list(edges), k=rng.randrange(1, 4))
            assert index.dependency_closure(roots) == brute_closure(edges, roots)

    def test_deps_and_dependents_are_converse(self, rng: random.Random):
        # after every register: the stored closures and dependents grow with the graph
        for _ in range(10):
            index = VersionIndex()
            for edges in self._growing_dag(index, rng):
                keys = list(edges)
                dependents = {key: index.transitive_dependents(key) for key in keys}
                for a in keys:
                    assert index.closure_of(a) == tuple(sorted(brute_closure(edges, [a])))
                    deps = index.transitive_deps(a)
                    assert a not in deps
                    for b in keys:
                        assert (b in deps) == (a in dependents[b])
                    assert index.has_dependents(a) == bool(dependents[a])

    def test_unregistered_dependency_errors(self, index: VersionIndex):
        with pytest.raises(IntegrityError):
            index.dependency_closure([("ghost", 1)])


class TestPropagatePriority:
    def test_raise_direct_dep(self, index: VersionIndex):
        index.register(make_item("old", priority=0.4))
        new = make_item("new", priority=0.9, deps=(("old", 1),))
        index.register(new)
        assert propagate_priority(index, new) == {("old", 1): 0.9}
        assert index.get(("old", 1)).priority == 0.9

    def test_lower_priority_is_noop(self, index: VersionIndex):
        index.register(make_item("old", priority=0.7))
        new = make_item("new", priority=0.2, deps=(("old", 1),))
        index.register(new)
        assert propagate_priority(index, new) == {}
        assert index.get(("old", 1)).priority == 0.7

    def test_transitive_chain_raised(self, index: VersionIndex):
        index.register(make_item("base", priority=0.1))
        index.register(make_item("mid", priority=0.5, deps=(("base", 1),)))
        new = make_item("new", priority=0.8, deps=(("mid", 1),))
        index.register(new)
        raised = propagate_priority(index, new)
        assert raised == {("base", 1): 0.8, ("mid", 1): 0.8}

    def test_matches_exhaustive_reachability(self, index: VersionIndex, rng: random.Random):
        keys = []
        for i in range(40):
            deps = tuple(rng.sample(keys, k=min(len(keys), rng.randrange(3))))
            item = make_item(f"i{i}", priority=rng.random(), deps=deps)
            index.register(item)
            keys.append(item.key)
        new = make_item("probe", priority=0.95, deps=tuple(rng.sample(keys, 4)))
        # exhaustive reachability over the raw dependency edges
        reachable, frontier = set(), list(new.temporal_deps)
        while frontier:
            key = frontier.pop()
            if key not in reachable:
                reachable.add(key)
                frontier.extend(index.get(key).temporal_deps)
        before = {key: index.get(key).priority for key in reachable}
        expected = {key for key, p in before.items() if p < new.priority}
        raised = propagate_priority(index, new)
        assert set(raised) == expected
        assert all(
            index.get(k).priority == max(before[k], new.priority) for k in reachable
        )

    def test_idempotent(self, index: VersionIndex, rng: random.Random):
        keys = []
        for i in range(25):
            deps = tuple(rng.sample(keys, k=min(len(keys), rng.randrange(2))))
            item = make_item(f"i{i}", priority=rng.random(), deps=deps)
            index.register(item)
            keys.append(item.key)
        new = make_item("probe", priority=0.9, deps=tuple(rng.sample(keys, 3)))
        propagate_priority(index, new)
        snapshot = {k: index.get(k).priority for k in keys}
        assert propagate_priority(index, new) == {}
        assert {k: index.get(k).priority for k in keys} == snapshot

    def test_dangling_dep_errors(self, index: VersionIndex):
        new = make_item("new", priority=0.9, deps=(("ghost", 1),))
        with pytest.raises(IntegrityError):
            propagate_priority(index, new)


class TestDetectConflict:
    def _two_version_index(self) -> VersionIndex:
        index = VersionIndex()
        index.register(make_item(version=1))
        index.register(make_item(version=2, deps=(("a", 1),)))
        return index

    def test_newer_on_peer_old_from_server(self):
        index = self._two_version_index()
        index.mark_on_server(("a", 1))
        report = detect_conflict(index.records_for("a", {("a", 2): ["t03"]}), Location.SERVER, 1)
        assert isinstance(report, ConflictReport)
        assert report.restored_version == 1
        assert report.newer_version == 2
        assert report.newer_location is Location.PEER
        assert report.newer_peers == ("t03",)

    def test_single_version_no_conflict(self):
        index = VersionIndex()
        index.register(make_item(version=1))
        index.mark_on_server(("a", 1))
        assert detect_conflict(index.records_for("a", {}), Location.SERVER, 1) is None

    def test_same_version_everywhere_no_conflict(self):
        index = VersionIndex()
        index.register(make_item(version=1))
        index.mark_on_server(("a", 1))
        holders = {("a", 1): ["t02"]}
        assert detect_conflict(index.records_for("a", holders), Location.SERVER, 1) is None

    def test_vice_versa_direction(self):
        index = self._two_version_index()
        index.mark_on_server(("a", 2))
        report = detect_conflict(index.records_for("a", {("a", 1): ["t02"]}), Location.PEER, 1)
        assert report is not None
        assert report.newer_location is Location.SERVER

    def test_unknown_item_errors(self):
        index = VersionIndex()
        with pytest.raises(UnknownItemError):
            index.records_for("ghost", {})
        with pytest.raises(UnknownItemError):
            detect_conflict([], Location.SERVER, 1)

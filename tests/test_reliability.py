import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oppbak.model import IntegrityError, UsageError, VersionIndex
from oppbak.reliability import composite_success, new_table

from conftest import (
    brute_closure,
    enumeration_success,
    joint_restore_probability,
    make_item,
)


class TestFreshTable:
    def test_boundary_values(self):
        assert new_table(1).table == (1.0, 0.0)
        assert new_table(3).table == (1.0, 0.0, 0.0, 0.0)

    def test_fresh_success_is_zero(self):
        for k in range(1, 9):
            assert new_table(k).success == 0.0

    def test_k_zero_rejected(self):
        with pytest.raises(UsageError):
            new_table(0)


class TestAddFragment:
    def test_single_bernoulli(self):
        assert new_table(1).add_fragment(0.5).success == 0.5

    def test_two_of_one_needed(self):
        table = new_table(1).add_fragment(0.9).add_fragment(0.8)
        assert table.success == pytest.approx(1 - 0.1 * 0.2, abs=1e-15)

    def test_majority_of_three(self):
        table = new_table(2)
        for _ in range(3):
            table = table.add_fragment(0.5)
        assert table.success == pytest.approx(0.5, abs=1e-15)

    def test_enumerated_mixed_case(self):
        # the independent oracle owns this expected value
        expected = enumeration_success(2, [(0.9, 1), (0.9, 1), (0.1, 1)])
        assert expected == pytest.approx(0.828, abs=1e-12)
        table = new_table(2).add_fragment(0.9).add_fragment(0.9).add_fragment(0.1)
        assert table.success == pytest.approx(expected, abs=1e-12)

    def test_zero_probability_only_counts(self):
        before = new_table(3).add_fragment(0.4)
        after = before.add_fragment(0.0)
        assert after.table == before.table
        assert after.fragments_saved == before.fragments_saved + 1

    def test_out_of_range_rejected(self):
        with pytest.raises(UsageError):
            new_table(1).add_fragment(1.0001)
        with pytest.raises(UsageError):
            new_table(1).add_fragment(-0.1)


class TestBatch:
    def test_all_or_nothing_pair(self):
        assert new_table(2).add_batch_same_terminal(0.5, 2).success == 0.5

    def test_certain_channel(self):
        assert new_table(2).add_batch_same_terminal(1.0, 2).success == 1.0

    def test_m1_bit_identical_to_add(self, rng: random.Random):
        for _ in range(300):
            table = new_table(rng.randint(1, 5))
            for _ in range(rng.randrange(6)):
                table = table.add_fragment(rng.random())
            p = rng.random()
            assert table.add_batch_same_terminal(p, 1) == table.add_fragment(p)

    def test_m_zero_rejected(self):
        with pytest.raises(UsageError):
            new_table(2).add_batch_same_terminal(0.5, 0)

    def test_matches_two_outcome_model(self, rng: random.Random):
        for _ in range(100):
            k = rng.randint(1, 4)
            m = rng.randint(1, 5)
            p = rng.random()
            dp = new_table(k).add_batch_same_terminal(p, m).success
            assert dp == pytest.approx(enumeration_success(k, [(p, m)]), abs=1e-12)


class TestInvariants:
    def test_oracle_equivalence_small(self, rng: random.Random):
        for _ in range(250):
            k = rng.randint(1, 5)
            batches = [
                (rng.random(), rng.randint(1, 3))
                for _ in range(rng.randrange(9))
            ]
            table = new_table(k)
            for p, m in batches:
                table = table.add_batch_same_terminal(p, m)
            assert table.success == pytest.approx(
                enumeration_success(k, batches), abs=1e-12
            )

    def test_product_form_after_k_adds(self, rng: random.Random):
        for _ in range(300):
            k = rng.randint(1, 8)
            ps = [rng.random() for _ in range(k)]
            table = new_table(k)
            for p in ps:
                table = table.add_fragment(p)
            assert table.success == pytest.approx(math.prod(ps), abs=1e-12)

    def test_rows_monotone_and_bounded(self, rng: random.Random):
        for _ in range(200):
            k = rng.randint(1, 6)
            table = new_table(k)
            for _ in range(rng.randrange(12)):
                previous = table
                table = table.add_fragment(rng.random())
                for l in range(k + 1):
                    assert table.table[l] >= previous.table[l] - 1e-15
                    assert -1e-15 <= table.table[l] <= 1 + 1e-15
                    if l < k:
                        assert table.table[l] >= table.table[l + 1] - 1e-15
                assert table.table[0] == 1.0
                for l in range(table.fragments_saved + 1, k + 1):
                    assert table.table[l] == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 5),
        ps=st.lists(st.floats(0.0, 1.0, allow_nan=False), max_size=10),
        seed=st.integers(0, 2**16),
    )
    def test_order_independence(self, k, ps, seed):
        def fold(sequence):
            table = new_table(k)
            for p in sequence:
                table = table.add_fragment(p)
            return table.success

        shuffled = list(ps)
        random.Random(seed).shuffle(shuffled)
        assert fold(ps) == pytest.approx(fold(shuffled), abs=1e-12)


class TestCompositeSuccess:
    def _tables_for(self, index: VersionIndex, values: dict) -> dict:
        tables = {}
        for key, p in values.items():
            tables[key] = new_table(1).add_fragment(p)
        return tables

    def test_no_deps(self, index: VersionIndex):
        item = make_item()
        index.register(item)
        tables = self._tables_for(index, {item.key: 0.8})
        assert composite_success(item, tables, index) == pytest.approx(0.8)

    def test_dependency_free_reads_its_own_table(self, index: VersionIndex):
        item = make_item()
        index.register(item)
        table = new_table(3).add_fragment(0.7).add_batch_same_terminal(0.9, 2)
        assert composite_success(item, {item.key: table}, index) == table.success
        with pytest.raises(IntegrityError):
            composite_success(item, {}, index)
        index.mark_on_server(item.key)
        assert composite_success(item, {}, index) == 1.0

    def test_single_dep_multiplies(self, index: VersionIndex):
        index.register(make_item("old"))
        item = make_item("new", deps=(("old", 1),))
        index.register(item)
        tables = self._tables_for(index, {("old", 1): 0.5, ("new", 1): 0.8})
        assert composite_success(item, tables, index) == pytest.approx(0.4)

    def test_diamond_counted_once(self, index: VersionIndex):
        index.register(make_item("D"))
        index.register(make_item("B", deps=(("D", 1),)))
        index.register(make_item("C", deps=(("D", 1),)))
        item = make_item("A", deps=(("B", 1), ("C", 1)))
        index.register(item)
        values = {(x, 1): 0.9 for x in "ABCD"}
        tables = self._tables_for(index, values)
        got = composite_success(item, tables, index)
        assert got == pytest.approx(0.9**4, abs=1e-12)
        oracle = joint_restore_probability(
            {x: 0.9 for x in "ABCD"},
            {"A": ["B", "C"], "B": ["D"], "C": ["D"]},
            "A",
        )
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_server_side_dep_is_free(self, index: VersionIndex):
        index.register(make_item("old"))
        item = make_item("new", deps=(("old", 1),))
        index.register(item)
        index.mark_on_server(("old", 1))
        tables = self._tables_for(index, {("new", 1): 0.8})
        assert composite_success(item, tables, index) == pytest.approx(0.8)

    def test_missing_dep_table_errors(self, index: VersionIndex):
        index.register(make_item("old"))
        item = make_item("new", deps=(("old", 1),))
        index.register(item)
        tables = self._tables_for(index, {("new", 1): 0.8})
        with pytest.raises(IntegrityError):
            composite_success(item, tables, index)

    def test_product_over_the_sorted_closure_is_exact(self, rng: random.Random):
        for _ in range(20):
            index, edges = VersionIndex(), {}
            for j in range(12):
                deps = tuple(rng.sample(list(edges), k=min(len(edges), rng.randrange(3))))
                item = make_item(f"i{j:02d}", deps=deps)
                index.register(item)
                edges[item.key] = deps
                if rng.random() < 0.2:
                    index.mark_on_server(item.key)
            tables = self._tables_for(index, {key: rng.random() for key in edges})
            for key in edges:
                want = 1.0
                for k in sorted(brute_closure(edges, [key])):
                    want *= 1.0 if index.is_on_server(k) else tables[k].success
                assert composite_success(index.get(key), tables, index) == want

    def test_random_dags_match_joint_oracle(self, index: VersionIndex, rng: random.Random):
        names = [f"i{j}" for j in range(8)]
        deps: dict[str, list[str]] = {}
        own: dict[str, float] = {}
        for j, name in enumerate(names):
            parents = rng.sample(names[:j], k=min(j, rng.randrange(3)))
            deps[name] = parents
            own[name] = rng.random()
            index.register(
                make_item(name, deps=tuple((p, 1) for p in parents))
            )
        tables = self._tables_for(index, {(n, 1): own[n] for n in names})
        for name in names:
            got = composite_success(index.get((name, 1)), tables, index)
            want = joint_restore_probability(own, deps, name)
            assert got == pytest.approx(want, abs=1e-12)

"""Unit and property tests for repro.engine.join and repro.engine.aggregate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.aggregate import group_reduce, grouping
from repro.engine.column import Column
from repro.engine.join import hash_join


class TestHashJoin:
    def test_simple_equi_join(self):
        left = Column("l", "int64", data=[1, 2, 3])
        right = Column("r", "int64", data=[3, 1, 1])
        lo, ro = hash_join(left, right)
        pairs = sorted(zip(lo.tolist(), ro.tolist()))
        assert pairs == [(0, 1), (0, 2), (2, 0)]

    def test_no_matches(self):
        left = Column("l", "int64", data=[1, 2])
        right = Column("r", "int64", data=[5, 6])
        lo, ro = hash_join(left, right)
        assert lo.shape == (0,) and ro.shape == (0,)

    def test_empty_side(self):
        left = Column("l", "int64", data=[])
        right = Column("r", "int64", data=[1])
        lo, ro = hash_join(left, right)
        assert lo.shape == (0,)

    def test_with_candidates(self):
        left = Column("l", "int64", data=[1, 2, 3, 2])
        right = Column("r", "int64", data=[2, 2])
        lo, ro = hash_join(left, right, left_candidates=np.array([0, 1]))
        pairs = sorted(zip(lo.tolist(), ro.tolist()))
        assert pairs == [(1, 0), (1, 1)]

    def test_duplicates_both_sides_product(self):
        left = Column("l", "int64", data=[7, 7])
        right = Column("r", "int64", data=[7, 7, 7])
        lo, ro = hash_join(left, right)
        assert lo.shape == (6,)

    @settings(max_examples=40, deadline=None)
    @given(
        lvals=st.lists(st.integers(0, 10), min_size=0, max_size=40),
        rvals=st.lists(st.integers(0, 10), min_size=0, max_size=40),
    )
    def test_matches_nested_loop_reference(self, lvals, rvals):
        left = Column("l", "int64", data=np.array(lvals, dtype=np.int64))
        right = Column("r", "int64", data=np.array(rvals, dtype=np.int64))
        lo, ro = hash_join(left, right)
        got = sorted(zip(lo.tolist(), ro.tolist()))
        expected = sorted(
            (i, j)
            for i, lv in enumerate(lvals)
            for j, rv in enumerate(rvals)
            if lv == rv
        )
        assert got == expected


class TestGroupAggregate:
    """``grouping`` numbers the groups with one sort, ``group_reduce``
    reduces each (the SQL GROUP BY kernels)."""

    def test_grouped_count(self):
        keys = np.array([2, 1, 2, 2])
        order, starts, sizes = grouping([keys])
        np.testing.assert_array_equal(keys[order[starts]], [1, 2])
        np.testing.assert_array_equal(group_reduce("count", None, starts, sizes), [1, 3])

    def test_grouped_avg(self):
        keys = np.array([1, 1, 2])
        vals = np.array([1.0, 3.0, 10.0])
        order, starts, sizes = grouping([keys])
        np.testing.assert_array_equal(keys[order[starts]], [1, 2])
        np.testing.assert_allclose(
            group_reduce("avg", vals[order], starts, sizes), [2.0, 10.0]
        )

    def test_grouped_min_max_sum(self):
        keys = np.array([0, 1, 0, 1])
        vals = np.array([5, 2, 3, 8])
        order, starts, sizes = grouping([keys])
        ordered = vals[order]
        assert group_reduce("min", ordered, starts, sizes).tolist() == [3, 2]
        assert group_reduce("max", ordered, starts, sizes).tolist() == [5, 8]
        assert group_reduce("sum", ordered, starts, sizes).tolist() == [8, 10]

    def test_empty_input(self):
        _, starts, sizes = grouping([np.empty(0, dtype=np.int64)])
        assert starts.shape == (0,)
        assert group_reduce("count", None, starts, sizes).shape == (0,)

    def test_unknown_aggregate(self):
        with pytest.raises(ValueError):
            group_reduce("median", np.array([1.0]), np.array([0]), np.array([1]))

    def test_missing_values_for_sum(self):
        with pytest.raises(ValueError):
            group_reduce("sum", None, np.array([0]), np.array([1]))

    @settings(max_examples=40, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 5), st.integers(-100, 100)),
            min_size=1,
            max_size=60,
        )
    )
    def test_grouped_sum_matches_dict_reference(self, pairs):
        keys = np.array([p[0] for p in pairs], dtype=np.int64)
        vals = np.array([p[1] for p in pairs], dtype=np.int64)
        order, starts, sizes = grouping([keys])
        sums = group_reduce("sum", vals[order], starts, sizes)
        expected = {}
        for g, v in pairs:
            expected[g] = expected.get(g, 0) + v
        got = dict(zip(keys[order[starts]].tolist(), sums.tolist()))
        assert got == expected

"""Unit and property tests for repro.engine.select."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.column import Column
from repro.engine.kernels import theta_range
from repro.engine.select import mask_select, range_select


@pytest.fixture
def col():
    return Column("v", "int64", data=[5, 1, 9, 3, 7, 3])


class TestThetaSelect:
    """Comparisons select as SQL runs them: ``theta_range`` of the
    operator, then ``range_select``."""

    def test_equality(self, col):
        np.testing.assert_array_equal(range_select(col, *theta_range("==", 3)), [3, 5])

    def test_less_than(self, col):
        np.testing.assert_array_equal(range_select(col, *theta_range("<", 5)), [1, 3, 5])

    def test_with_candidates_subsets(self, col):
        cands = np.array([0, 2, 4], dtype=np.int64)
        np.testing.assert_array_equal(
            range_select(col, *theta_range(">=", 7), candidates=cands), [2, 4]
        )


class TestRangeSelect:
    def test_closed_range(self, col):
        np.testing.assert_array_equal(range_select(col, 3, 7), [0, 3, 4, 5])

    def test_open_bounds(self, col):
        np.testing.assert_array_equal(
            range_select(col, 3, 7, lo_inclusive=False, hi_inclusive=False), [0]
        )

    def test_half_open(self, col):
        np.testing.assert_array_equal(range_select(col, None, 3), [1, 3, 5])
        np.testing.assert_array_equal(range_select(col, 7, None), [2, 4])

    def test_empty_result(self, col):
        assert range_select(col, 100, 200).shape == (0,)

    def test_with_candidates(self, col):
        cands = np.array([1, 3, 5], dtype=np.int64)
        np.testing.assert_array_equal(
            range_select(col, 2, 4, candidates=cands), [3, 5]
        )


class TestMaskAndSetOps:
    def test_mask_select(self, col):
        mask = np.array([True, False, True, False, False, False])
        np.testing.assert_array_equal(mask_select(mask), [0, 2])

    def test_mask_select_over_candidates(self, col):
        cands = np.array([2, 4], dtype=np.int64)
        np.testing.assert_array_equal(
            mask_select(np.array([False, True]), cands), [4]
        )


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(-1000, 1000), min_size=0, max_size=200),
    lo=st.integers(-1000, 1000),
    span=st.integers(0, 500),
)
def test_range_select_matches_reference(values, lo, span):
    """range_select must agree with a plain boolean-mask reference."""
    col = Column("v", "int64", data=np.array(values, dtype=np.int64))
    hi = lo + span
    got = range_select(col, lo, hi)
    arr = np.array(values, dtype=np.int64)
    expected = np.flatnonzero((arr >= lo) & (arr <= hi))
    np.testing.assert_array_equal(got, expected)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.integers(-50, 50), min_size=1, max_size=100))
def test_theta_select_partition(values):
    """<, ==, > of the same constant must partition all rows."""
    col = Column("v", "int64", data=np.array(values, dtype=np.int64))
    const = values[0]
    lt, eq, gt = (range_select(col, *theta_range(op, const)) for op in ("<", "==", ">"))
    merged = np.sort(np.concatenate([lt, eq, gt]))
    np.testing.assert_array_equal(merged, np.arange(len(values)))

"""Unit and property tests for the single-unit imprint and its manager.

The single-unit imprint is a :class:`SegmentedImprints` whose one segment
spans the whole column (``segment_rows=len(column)``): the paper's index,
as the E-series benches report it.  Multi-segment behaviour (zone-map
skips, appends, persistence) is covered by ``test_imprints_segments.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.imprints import ImprintsManager, SegmentedImprints
from repro.engine.column import Column
from repro.engine.select import range_select
from repro.engine.table import Table


def make_column(values, dtype=np.float64):
    return Column("v", np.dtype(dtype), data=np.asarray(values, dtype=dtype))


class TestBuild:
    def test_empty_column_raises(self):
        col = Column("v", "float64")
        with pytest.raises(ValueError, match="empty column"):
            SegmentedImprints(col, segment_rows=len(col))

    def test_vpc_from_dtype(self):
        imp = SegmentedImprints(make_column(np.arange(100)), segment_rows=100)
        assert imp.vpc == 8  # 64-byte lines / 8-byte doubles
        imp16 = SegmentedImprints(
            make_column(np.arange(100), dtype=np.uint16), segment_rows=100
        )
        assert imp16.vpc == 32

    def test_line_count(self):
        imp = SegmentedImprints(make_column(np.arange(100)), segment_rows=100)
        assert imp.n_segments == 1
        assert imp.n_lines == 13  # ceil(100 / 8)

    def test_custom_cacheline(self):
        imp = SegmentedImprints(
            make_column(np.arange(64)), segment_rows=64, cacheline_bytes=128
        )
        assert imp.vpc == 16

    def test_stats_accounting(self):
        imp = SegmentedImprints(make_column(np.arange(10_000)), segment_rows=10_000)
        s = imp.stats()
        assert s.n_rows == 10_000
        assert s.column_bytes == 80_000
        assert s.index_bytes == imp.nbytes
        assert 0 < s.overhead < 1


class TestQuery:
    def test_matches_scan_on_sorted(self):
        col = make_column(np.arange(5000))
        imp = SegmentedImprints(col, segment_rows=len(col))
        got = imp.query(1000, 2000)
        np.testing.assert_array_equal(got, range_select(col, 1000, 2000))

    def test_matches_scan_on_shuffled(self):
        rng = np.random.default_rng(9)
        vals = np.arange(5000, dtype=np.float64)
        rng.shuffle(vals)
        col = make_column(vals)
        imp = SegmentedImprints(col, segment_rows=len(col))
        np.testing.assert_array_equal(
            imp.query(1000, 2000), range_select(col, 1000, 2000)
        )

    def test_exclusive_bounds(self):
        col = make_column(np.arange(100))
        imp = SegmentedImprints(col, segment_rows=len(col))
        np.testing.assert_array_equal(
            imp.query(10, 12, lo_inclusive=False, hi_inclusive=False), [11]
        )

    def test_half_open(self):
        imp = SegmentedImprints(make_column(np.arange(100)), segment_rows=100)
        np.testing.assert_array_equal(imp.query(None, 3), [0, 1, 2, 3])
        np.testing.assert_array_equal(imp.query(96, None), [96, 97, 98, 99])

    def test_empty_range(self):
        imp = SegmentedImprints(make_column(np.arange(100)), segment_rows=100)
        assert imp.query(1000, 2000).shape == (0,)

    def test_candidates_superset_of_exact(self):
        rng = np.random.default_rng(4)
        col = make_column(rng.normal(size=3000))
        imp = SegmentedImprints(col, segment_rows=len(col))
        exact = imp.query(-0.5, 0.5)
        cands = imp.candidate_rows(-0.5, 0.5)
        assert np.isin(exact, cands).all()

    def test_scanned_fraction_small_on_sorted(self):
        imp = SegmentedImprints(
            make_column(np.arange(100_000)), segment_rows=100_000
        )
        # A 1% range over sorted data touches a small sliver of lines.
        assert imp.scanned_fraction(0, 1000) < 0.05

    def test_false_positive_rate_bounds(self):
        rng = np.random.default_rng(5)
        imp = SegmentedImprints(
            make_column(rng.normal(size=10_000)), segment_rows=10_000
        )
        fpr = imp.false_positive_rate(-0.1, 0.1)
        assert 0.0 <= fpr <= 1.0


class TestStaleness:
    def test_stale_after_append(self):
        col = make_column(np.arange(100))
        imp = SegmentedImprints(col, segment_rows=len(col))
        assert not imp.stale
        col.append([1.0])
        assert imp.stale


class TestManager:
    def _table(self, n=2000):
        t = Table("pts", [("x", "float64")])
        rng = np.random.default_rng(0)
        t.append_columns({"x": rng.uniform(0, 100, n)})
        return t

    def test_lazy_build_on_first_query(self):
        t = self._table()
        mgr = ImprintsManager()
        assert mgr.get(t, "x") is None
        out = mgr.range_select(t, "x", 10, 20)
        assert mgr.get(t, "x") is not None
        assert mgr.builds == 1
        np.testing.assert_array_equal(out, range_select(t.column("x"), 10, 20))

    def test_reuse_without_rebuild(self):
        t = self._table()
        mgr = ImprintsManager()
        mgr.range_select(t, "x", 10, 20)
        mgr.range_select(t, "x", 30, 40)
        assert mgr.builds == 1

    def test_rebuild_after_append(self):
        t = self._table()
        mgr = ImprintsManager()
        mgr.range_select(t, "x", 10, 20)
        t.append_columns({"x": [15.0, 16.0]})
        out = mgr.range_select(t, "x", 10, 20)
        assert mgr.builds == 2
        np.testing.assert_array_equal(out, range_select(t.column("x"), 10, 20))

    def test_invalidate_column(self):
        t = self._table()
        mgr = ImprintsManager()
        mgr.range_select(t, "x", 10, 20)
        mgr.invalidate(t, "x")
        assert mgr.get(t, "x") is None

    def test_invalidate_table(self):
        t = self._table()
        mgr = ImprintsManager()
        mgr.range_select(t, "x", 10, 20)
        mgr.invalidate(t)
        assert mgr.get(t, "x") is None

    def test_nbytes_and_stats(self):
        t = self._table()
        mgr = ImprintsManager()
        mgr.range_select(t, "x", 10, 20)
        assert mgr.nbytes > 0
        assert ("pts", "x") in mgr.stats()


#: One segment over every drawn column (the single-unit imprint), a
#: length no cache line divides (rounded up to whole lines), and a small
#: multi-segment grid.
SEGMENT_ROWS = st.sampled_from([1 << 20, 37, 16])


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(
            min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
        ),
        min_size=1,
        max_size=500,
    ),
    lo=st.floats(-1e9, 1e9),
    span=st.floats(0, 1e9),
    max_bins=st.sampled_from([2, 8, 64]),
    cacheline=st.sampled_from([8, 64, 256]),
    segment_rows=SEGMENT_ROWS,
)
def test_imprint_query_equals_scan(values, lo, span, max_bins, cacheline, segment_rows):
    """THE correctness invariant: imprint select == full-scan select,
    for arbitrary data, bin budgets, cacheline sizes and segmentations."""
    col = make_column(values)
    imp = SegmentedImprints(
        col,
        segment_rows=segment_rows,
        max_bins=max_bins,
        cacheline_bytes=cacheline,
    )
    hi = lo + span
    np.testing.assert_array_equal(imp.query(lo, hi), range_select(col, lo, hi))


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.integers(0, 100), min_size=1, max_size=300),
    lo=st.integers(-10, 110),
    span=st.integers(0, 60),
    segment_rows=SEGMENT_ROWS,
)
def test_imprint_no_false_negatives_on_ints(values, lo, span, segment_rows):
    col = make_column(values, dtype=np.int64)
    imp = SegmentedImprints(col, segment_rows=segment_rows)
    hi = lo + span
    exact = set(range_select(col, lo, hi).tolist())
    cands = set(imp.candidate_rows(lo, hi).tolist())
    assert exact <= cands

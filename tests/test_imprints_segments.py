"""Unit and property tests for the segmented imprints index.

Covers the three claims the segmentation makes: exact queries (identical
to a scan), zone-map skip semantics, and incremental
appends (only new segments get built — no more O(n) rebuilds).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.imprints import ImprintsManager, SegmentedImprints
from repro.core.imprints.persist import ImprintFile, save_segmented
from repro.engine import durable
from repro.core.query import QueryStats
from repro.engine.column import Column
from repro.engine.select import range_select
from repro.engine.table import Table
from repro.obs import queries


def make_column(values, dtype=np.float64):
    return Column("v", np.dtype(dtype), data=np.asarray(values, dtype=dtype))


class TestBuild:
    def test_empty_column_raises(self):
        with pytest.raises(ValueError):
            SegmentedImprints(Column("v", "float64"))

    def test_segment_count(self):
        imp = SegmentedImprints(make_column(np.arange(10_000)), segment_rows=4096)
        assert imp.n_segments == 3  # 4096 + 4096 + 1808
        assert imp.segments[-1].stop == 10_000

    def test_segments_aligned_to_cachelines(self):
        # segment_rows is rounded up to a whole number of cache lines.
        imp = SegmentedImprints(make_column(np.arange(1000)), segment_rows=100)
        assert imp.segment_rows % imp.vpc == 0
        for seg in imp.segments[:-1]:
            assert (seg.stop - seg.start) == imp.segment_rows

    def test_zone_maps(self):
        imp = SegmentedImprints(make_column(np.arange(8192)), segment_rows=4096)
        assert imp.segments[0].zmin == 0 and imp.segments[0].zmax == 4095
        assert imp.segments[1].zmin == 4096 and imp.segments[1].zmax == 8191

    def test_stats_aggregate(self):
        imp = SegmentedImprints(make_column(np.arange(10_000)), segment_rows=4096)
        s = imp.stats()
        assert s.n_rows == 10_000
        assert s.column_bytes == 80_000
        assert s.index_bytes == imp.nbytes
        assert s.n_lines == sum(seg.n_lines for seg in imp.segments)


class TestQuery:
    @pytest.mark.parametrize("batches", [1, 2, 8])
    def test_matches_scan_on_shuffled(self, batches):
        """Exact whether the column arrived whole or in appended batches."""
        rng = np.random.default_rng(9)
        vals = np.arange(20_000, dtype=np.float64)
        rng.shuffle(vals)
        first, *rest = np.array_split(vals, batches)
        col = make_column(first)
        imp = SegmentedImprints(col, segment_rows=2048)
        for batch in rest:
            col.append(batch)
            imp.extend()
        assert imp.n_rows == vals.shape[0]
        np.testing.assert_array_equal(
            imp.query(1000, 2000),
            range_select(col, 1000, 2000),
        )

    def test_exclusive_bounds(self):
        imp = SegmentedImprints(make_column(np.arange(100)))
        np.testing.assert_array_equal(
            imp.query(10, 12, lo_inclusive=False, hi_inclusive=False), [11]
        )

    def test_half_open(self):
        imp = SegmentedImprints(make_column(np.arange(10_000)), segment_rows=2048)
        np.testing.assert_array_equal(imp.query(None, 3), [0, 1, 2, 3])
        np.testing.assert_array_equal(
            imp.query(9996, None), [9996, 9997, 9998, 9999]
        )

    def test_nan_values_probe_not_skip(self):
        vals = np.arange(200, dtype=np.float64)
        vals[17] = np.nan
        col = make_column(vals)
        imp = SegmentedImprints(col, segment_rows=64)
        np.testing.assert_array_equal(
            imp.query(10, 20), range_select(col, 10, 20)
        )

    def test_candidates_superset_of_exact(self):
        rng = np.random.default_rng(4)
        col = make_column(rng.normal(size=9000))
        imp = SegmentedImprints(col, segment_rows=1024)
        exact = imp.query(-0.5, 0.5)
        cands = imp.candidate_rows(-0.5, 0.5)
        assert np.isin(exact, cands).all()


class TestZoneMapSkips:
    def test_disjoint_segments_skipped(self):
        # Sorted data: a narrow range hits exactly one segment.
        imp = SegmentedImprints(make_column(np.arange(40_960)), segment_rows=4096)

        c = QueryStats()
        imp.query(10_000, 10_100, stats=c)
        assert c.n_segments_probed == 1
        assert c.n_segments_skipped == imp.n_segments - 1

    def test_covering_range_skips_all_probes(self):
        imp = SegmentedImprints(make_column(np.arange(40_960)), segment_rows=4096)

        c = QueryStats()
        out = imp.query(None, None, stats=c)
        assert c.n_segments_probed == 0
        assert c.n_segments_skipped == imp.n_segments
        assert out.shape[0] == 40_960

    def test_scanned_fraction_counts_probes_only(self):
        imp = SegmentedImprints(make_column(np.arange(40_960)), segment_rows=4096)
        assert imp.scanned_fraction(0, 40_960) == 0.0  # all wholesale accepts
        assert 0.0 < imp.scanned_fraction(10_000, 10_100) < 0.05


class TestIncrementalAppend:
    def test_append_builds_only_new_segments(self):
        t = Table("pts", [("x", "float64")])
        rng = np.random.default_rng(0)
        t.append_columns({"x": rng.uniform(0, 100, 100_000)})
        mgr = ImprintsManager(segment_rows=8192)
        mgr.range_select(t, "x", 10, 20)
        assert mgr.builds == 1
        first_builds = mgr.segment_builds
        assert first_builds == mgr.get(t, "x").n_segments

        t.append_columns({"x": rng.uniform(0, 100, 9000)})
        out = mgr.range_select(t, "x", 10, 20)
        assert mgr.builds == 2  # one column-level refresh event...
        # ... but only the trailing partial + new segments were built:
        # 100_000 = 12 full x 8192 + partial 1696; +9000 rows -> rebuild the
        # partial and add one new segment = 2 segment builds, not 14.
        assert mgr.segment_builds - first_builds == 2
        np.testing.assert_array_equal(out, range_select(t.column("x"), 10, 20))

    def test_append_on_segment_boundary_keeps_old_segments(self):
        t = Table("pts", [("x", "float64")])
        t.append_columns({"x": np.arange(8192, dtype=np.float64)})
        mgr = ImprintsManager(segment_rows=8192)
        mgr.range_select(t, "x", 0, 10)
        before = [id(seg) for seg in mgr.get(t, "x").segments]
        t.append_columns({"x": np.arange(100, dtype=np.float64)})
        mgr.range_select(t, "x", 0, 10)
        after = [id(seg) for seg in mgr.get(t, "x").segments]
        assert after[: len(before)] == before  # immutable prefix untouched
        assert len(after) == len(before) + 1

    def test_extend_noop_when_fresh(self):
        col = make_column(np.arange(1000))
        imp = SegmentedImprints(col)
        assert imp.extend() == 0


class TestZonesNeverStale:
    """``extend()`` rebuilds a partial trailing segment in place: same
    segment count, new ``zmax``.  The scanner's zone arrays must follow,
    or rows appended above the old maximum are skipped."""

    OLD, NEW, SEGMENT = 1000, 20, 256  # 4 segments before and after

    def _grow(self, column):
        column.append(np.arange(5000, 5000 + self.NEW, dtype=np.float64))
        return np.arange(self.OLD, self.OLD + self.NEW)

    def test_imprint_finds_rows_appended_to_the_partial_segment(self):
        column = make_column(np.arange(self.OLD))
        imp = SegmentedImprints(column, segment_rows=self.SEGMENT)
        assert imp.query(5000, 6000).shape[0] == 0  # zone arrays built
        want = self._grow(column)
        assert imp.extend() == 1
        assert imp.n_segments == 4
        np.testing.assert_array_equal(imp.query(5000, 6000), want)
        np.testing.assert_array_equal(imp.zones.stops, [256, 512, 768, 1020])

    def test_packed_column_finds_rows_appended_to_the_partial_segment(self):
        column = make_column(np.arange(self.OLD))
        column.pack(segment_rows=self.SEGMENT)
        imp = SegmentedImprints(column, segment_rows=self.SEGMENT)  # zones from the blocks
        assert range_select(column, 5000, 6000).shape[0] == 0  # packed scan
        want = self._grow(column)
        column.pack(segment_rows=self.SEGMENT)
        assert len(column.packed.blocks) == 4
        np.testing.assert_array_equal(range_select(column, 5000, 6000), want)
        imp.extend()
        np.testing.assert_array_equal(imp.query(5000, 6000), want)

    def test_a_cancelled_extend_leaves_the_index_as_it_was(self, monkeypatch):
        column = make_column(np.arange(self.OLD))
        imp = SegmentedImprints(column, segment_rows=self.SEGMENT)
        want = self._grow(column)

        def cancelled():
            raise RuntimeError("deadline")

        monkeypatch.setattr(queries, "check_deadline", cancelled)
        with pytest.raises(RuntimeError):
            imp.extend()
        assert (imp.n_rows, imp.n_segments, int(imp.zones.stops[-1])) == (1000, 4, 1000)
        monkeypatch.undo()
        imp.extend()
        np.testing.assert_array_equal(imp.query(5000, 6000), want)
        np.testing.assert_array_equal(imp.query(0, 6000), np.arange(self.OLD + self.NEW))


class TestSegmentedPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        col = make_column(rng.uniform(0, 1000, 30_000))
        imp = SegmentedImprints(col, segment_rows=4096)
        path = tmp_path / "x.imprint"
        save_segmented(imp, "tbl", "x", path)
        raw = durable.read_file(path, "imprint file")
        back = ImprintFile(raw, path).restore(col)
        assert back.n_segments == imp.n_segments
        for lo, hi in [(0, 10), (500, 600), (990, 1000), (-5, 2000)]:
            np.testing.assert_array_equal(
                back.query(lo, hi), imp.query(lo, hi)
            )

    def test_manager_restores_dotted_table_names(self, tmp_path):
        # The regression the header-key fix exists for: a table name with
        # dots cannot be recovered from "<table>.<column>.imprint".
        t = Table("ahn2.tile.042", [("x", "float64")])
        rng = np.random.default_rng(8)
        t.append_columns({"x": rng.uniform(0, 100, 5000)})
        mgr = ImprintsManager()
        want = mgr.range_select(t, "x", 10, 20)
        mgr.save(tmp_path / "imp")

        mgr2 = ImprintsManager()
        assert mgr2.load({t.name: t}, tmp_path / "imp") == 1
        np.testing.assert_array_equal(mgr2.range_select(t, "x", 10, 20), want)
        assert mgr2.builds == 0


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(
        st.floats(
            min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
        ),
        min_size=1,
        max_size=600,
    ),
    lo=st.floats(-1e9, 1e9),
    span=st.floats(0, 1e9),
    segment_rows=st.sampled_from([8, 64, 1024]),
)
def test_segmented_query_equals_scan(values, lo, span, segment_rows):
    """THE correctness invariant, segmented edition: segmented imprint
    select == full-scan select for arbitrary data and segment sizes."""
    col = make_column(values)
    imp = SegmentedImprints(col, segment_rows=segment_rows)
    hi = lo + span
    np.testing.assert_array_equal(
        imp.query(lo, hi), range_select(col, lo, hi)
    )

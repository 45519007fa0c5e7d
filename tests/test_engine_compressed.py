"""Tests for the segmented compressed execution format
(repro.engine.compressed) and its dispatch from the select operators.

Parity is the whole contract: a packed select must return exactly the
oids the plain scan returns, while the
scan stats prove it skipped what the zone maps let it skip.
"""

import numpy as np
import pytest

from repro.core.sfc import morton_encode, quantize
from repro.datasets.lidar import generate_points, make_scene
from repro.engine.column import Column
from repro.engine.compressed import CompressedColumn
from repro.engine.kernels import RangePredicate, theta_range
from repro.engine.scan import ScanStats
from repro.engine.select import range_select
from repro.engine.table import Table
from repro.gis.envelope import Box
from repro.obs.resources import ResourceTracker

THETA_OPS = ["==", "<", "<=", ">", ">="]


@pytest.fixture(scope="module")
def values():
    rng = np.random.default_rng(23)
    # Sorted-ish blocks so zone maps have something to prune.
    parts = [
        np.sort(rng.integers(lo, lo + 5000, 20_000))
        for lo in (0, 40_000, 80_000, 120_000)
    ]
    return np.concatenate(parts).astype(np.int64)


@pytest.fixture(scope="module")
def packed(values):
    return CompressedColumn.from_values("v", values, segment_rows=8192)


@pytest.fixture(scope="module")
def packed_by_split(values):
    """``values`` packed at 8192-row segments and split four ways finer,
    so parity is checked across both segment granularities."""
    return {
        split: CompressedColumn.from_values("v", values, segment_rows=8192 // split)
        for split in (1, 4)
    }


@pytest.fixture(scope="module")
def las_morton():
    """x, y, z as LAS centimetre integers, rows along the Z-order curve
    of (x, y): the coordinate layout the paper's loader keeps."""
    extent = Box(85_000, 445_000, 87_000, 447_000)
    cloud = generate_points(make_scene(extent, seed=7), 30_000, seed=7)
    codes = morton_encode(
        quantize(cloud["x"], extent.xmin, extent.xmax),
        quantize(cloud["y"], extent.ymin, extent.ymax),
    )
    order = np.argsort(codes, kind="stable")
    return {
        name: np.round((cloud[name][order] - origin) / 0.01).astype(np.int64)
        for name, origin in (("x", extent.xmin), ("y", extent.ymin), ("z", 0.0))
    }


def plain_range(values, lo, hi, lo_inc=True, hi_inc=True):
    mask = np.ones(values.shape[0], dtype=bool)
    if lo is not None:
        mask &= (values >= lo) if lo_inc else (values > lo)
    if hi is not None:
        mask &= (values <= hi) if hi_inc else (values < hi)
    return np.flatnonzero(mask).astype(np.int64)


class TestCompressedColumn:
    def test_segmentation(self, packed, values):
        assert packed.n_rows == values.shape[0]
        assert len(packed.blocks) == -(-values.shape[0] // 8192)
        assert sum(b.count for b in packed.blocks) == values.shape[0]

    def test_decode_all_round_trips(self, packed, values):
        np.testing.assert_array_equal(packed.decode_all(), values)

    def test_compresses(self, packed, las_morton):
        assert packed.nbytes < packed.plain_nbytes / 2
        for name, column in las_morton.items():
            coords = CompressedColumn.from_values(name, column, segment_rows=4096)
            assert coords.nbytes <= coords.plain_nbytes / 2, name

    @pytest.mark.parametrize("split", [1, 4])
    def test_range_select_parity(self, packed_by_split, values, split):
        packed = packed_by_split[split]
        cases = [
            (41_000, 43_000, True, True),
            (0, 200_000, True, True),
            (-10, -1, True, True),
            (None, 42_000, True, False),
            (119_999, None, False, True),
        ]
        for lo, hi, lo_inc, hi_inc in cases:
            got = packed.select(RangePredicate(lo, hi, lo_inc, hi_inc))
            np.testing.assert_array_equal(
                got, plain_range(values, lo, hi, lo_inc, hi_inc)
            )

    @pytest.mark.parametrize("split", [1, 4])
    @pytest.mark.parametrize("op", THETA_OPS)
    def test_theta_select_parity(self, packed_by_split, values, op, split):
        packed = packed_by_split[split]
        fn = {
            "==": np.equal,
            "<": np.less,
            "<=": np.less_equal,
            ">": np.greater,
            ">=": np.greater_equal,
        }[op]
        constant = int(values[12_345])
        got = packed.select(theta_range(op, constant))
        np.testing.assert_array_equal(
            got, np.flatnonzero(fn(values, constant)).astype(np.int64)
        )

    def test_zone_pruning_stats(self, packed):
        stats = ScanStats()
        packed.select(RangePredicate(41_000, 43_000), stats)
        # Values 41k-43k live only in the second quarter's segments.
        assert stats.segments_skipped > 0
        assert stats.segments_probed > 0
        assert stats.packed_probes == stats.segments_probed
        assert stats.encoded_bytes < packed.plain_nbytes / 2

    def test_all_skip_costs_nothing(self, packed):
        stats = ScanStats()
        result = packed.select(RangePredicate(10**9, 2 * 10**9), stats)
        assert result.shape == (0,)
        assert stats.segments_probed == 0
        assert stats.encoded_bytes == 0
        assert stats.materialized_bytes == 0

    def test_full_segments_short_circuit(self, packed, values):
        stats = ScanStats()
        result = packed.select(RangePredicate(None, None), stats)
        assert result.shape[0] == values.shape[0]
        assert stats.segments_probed == 0
        assert stats.segments_full == len(packed.blocks)

    def test_row_count_mismatch_rejected(self, values):
        with pytest.raises(ValueError):
            CompressedColumn(
                "v",
                "int64",
                8192,
                int(values.shape[0]) + 1,
                CompressedColumn.from_values("v", values, 8192).blocks,
            )


class TestColumnMirror:
    def test_pack_and_drop(self, values):
        col = Column("v", "int64")
        col.append(values)
        assert col.packed is None
        packed = col.pack(segment_rows=8192)
        assert col.packed is packed
        col.adopt_packed(None)
        assert col.packed is None

    def test_append_invalidates(self, values):
        col = Column("v", "int64")
        col.append(values)
        col.pack(segment_rows=8192)
        col.append(np.array([1], dtype=np.int64))
        assert col.packed is None

    def test_adopt_rejects_wrong_length(self, values):
        col = Column("v", "int64")
        col.append(values[:100])
        mirror = CompressedColumn.from_values("v", values, 8192)
        with pytest.raises(ValueError):
            col.adopt_packed(mirror)


class TestSelectDispatch:
    """engine.select must route through the packed path when (and only
    when) it can, with identical answers either way."""

    @pytest.fixture()
    def column(self, values):
        col = Column("v", "int64")
        col.append(values)
        col.pack(segment_rows=8192)
        return col

    def test_range_parity_with_plain(self, column, values):
        packed_result = range_select(column, 41_000, 43_000)
        column.adopt_packed(None)
        plain_result = range_select(column, 41_000, 43_000)
        np.testing.assert_array_equal(packed_result, plain_result)

    @pytest.mark.parametrize("op", THETA_OPS)
    def test_theta_parity_with_plain(self, column, values, op):
        packed_result = range_select(column, *theta_range(op, 42_000))
        column.adopt_packed(None)
        plain_result = range_select(column, *theta_range(op, 42_000))
        np.testing.assert_array_equal(packed_result, plain_result)

    def test_candidates_bypass_packed(self, column, values):
        # A candidate-list select inspects only those rows; the packed
        # path covers whole columns, so results must match the subset.
        candidates = np.arange(0, values.shape[0], 3, dtype=np.int64)
        got = range_select(column, 41_000, 43_000, candidates=candidates)
        subset = values[candidates]
        expected = candidates[(subset >= 41_000) & (subset <= 43_000)]
        np.testing.assert_array_equal(got, expected)

    def test_non_numeric_bound_bypasses_packed(self, column, values):
        # Exotic constants (anything the zone-map algebra cannot compare;
        # here a 0-d array) must keep the select on the plain numpy scan.
        def encoded_bytes(lo):
            with ResourceTracker() as tracker:
                got = range_select(column, lo, 43_000)
            np.testing.assert_array_equal(
                got, np.flatnonzero((values >= 41_000) & (values <= 43_000))
            )
            return tracker.usage.encoded_bytes

        assert encoded_bytes(41_000) > 0
        assert encoded_bytes(np.array(41_000)) == 0

    def test_packed_attribution_counts_encoded_bytes(self, column, values):
        tracker = ResourceTracker()
        with tracker:
            range_select(column, 41_000, 43_000)
        packed_bytes = tracker.usage.bytes_touched
        assert 0 < packed_bytes < values.nbytes / 2

        column.adopt_packed(None)
        tracker2 = ResourceTracker()
        with tracker2:
            range_select(column, 41_000, 43_000)
        assert tracker2.usage.bytes_touched == values.nbytes

    def test_all_skip_attribution_is_free(self, column):
        tracker = ResourceTracker()
        with tracker:
            result = range_select(column, 10**9, 2 * 10**9)
        assert result.shape == (0,)
        assert tracker.usage.bytes_touched == 0


class TestTableCompression:
    def test_compress_reports_schemes(self, values):
        table = Table("t", [("v", "int64"), ("cls", "uint8")])
        table.append_columns(
            {"v": values, "cls": np.zeros(values.shape[0], dtype=np.uint8)}
        )
        schemes = table.compress(segment_rows=8192)
        assert schemes["v"] == "for"
        report = table.compression_report()
        assert set(report) == {"v", "cls"}
        assert report["v"]["nbytes"] < report["v"]["plain_nbytes"]

"""Tests for the packed predicate kernels (repro.engine.kernels).

The contract is bit-identical parity: every ``range_mask`` result must
equal the numpy evaluation of the same predicate over the decoded
values, whatever the encoding scheme —
that is what lets the select operators swap the packed path in without
changing any answer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.compressed import CompressedColumn
from repro.engine.compression import SCHEMES, encode, for_encode
from repro.engine.kernels import (
    ZONE_FULL,
    ZONE_PROBE,
    ZONE_SKIP,
    RangePredicate,
    range_mask,
    scan_bytes,
    theta_range,
)
from repro.engine.scan import ScanStats, zone_verdicts, zones_of

SCHEME_NAMES = sorted(SCHEMES)
THETA_OPS = ["==", "<", "<=", ">", ">="]


def reference_mask(vals, lo, hi, lo_inc=True, hi_inc=True):
    mask = np.ones(vals.shape[0], dtype=bool)
    if lo is not None:
        mask &= (vals >= lo) if lo_inc else (vals > lo)
    if hi is not None:
        mask &= (vals <= hi) if hi_inc else (vals < hi)
    return mask


class TestZoneVerdict:
    def test_disjoint_below_skips(self):
        zone = zones_of([(0, 1, 0, 10)])
        assert zone_verdicts(zone, RangePredicate(20, 30))[0] == ZONE_SKIP

    def test_disjoint_above_skips(self):
        zone = zones_of([(0, 1, 40, 50)])
        assert zone_verdicts(zone, RangePredicate(20, 30))[0] == ZONE_SKIP

    def test_contained_zone_is_full(self):
        zone = zones_of([(0, 1, 22, 28)])
        assert zone_verdicts(zone, RangePredicate(20, 30))[0] == ZONE_FULL

    def test_overlap_probes(self):
        zone = zones_of([(0, 1, 15, 25)])
        assert zone_verdicts(zone, RangePredicate(20, 30))[0] == ZONE_PROBE

    def test_exclusive_boundary_skips(self):
        # zone max == lo: inclusive probes, exclusive skips.
        zone = zones_of([(0, 1, 10, 20)])
        assert zone_verdicts(zone, RangePredicate(20, 30))[0] == ZONE_PROBE
        assert (
            zone_verdicts(zone, RangePredicate(20, 30, lo_inclusive=False))[0]
            == ZONE_SKIP
        )
        zone = zones_of([(0, 1, 30, 40)])
        assert (
            zone_verdicts(zone, RangePredicate(20, 30, hi_inclusive=False))[0]
            == ZONE_SKIP
        )

    def test_open_ended_bounds(self):
        zone = zones_of([(0, 1, 5, 9)])
        assert zone_verdicts(zone, RangePredicate(None, 10))[0] == ZONE_FULL
        assert zone_verdicts(zone, RangePredicate(6, None))[0] == ZONE_PROBE

    def test_nan_zone_probes(self):
        zone = zones_of([(0, 1, float("nan"), float("nan"))])
        assert zone_verdicts(zone, RangePredicate(0, 1))[0] == ZONE_PROBE

    # A block's header reaches the zone algebra through the segment
    # scanner; these two pin what a column makes of a degenerate header.

    def test_empty_block_skips(self):
        block = encode("plain", np.empty(0, dtype=np.int64))
        stats = ScanStats()
        CompressedColumn("v", "<i8", 8, 0, (block,)).select(RangePredicate(0, 1), stats)
        assert (stats.segments_skipped, stats.segments_probed) == (1, 0)

    def test_zoneless_block_probes(self):
        block = encode("plain", np.array([5], dtype=np.int64))
        stripped = type(block)(
            block.scheme, block.dtype, block.count, block.payload
        )
        stats = ScanStats()
        CompressedColumn("v", "<i8", 8, 1, (stripped,)).select(RangePredicate(0, 1), stats)
        assert (stats.segments_skipped, stats.segments_probed) == (0, 1)


class TestRangeMaskParity:
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_matches_numpy_per_scheme(self, scheme):
        rng = np.random.default_rng(11)
        vals = rng.integers(0, 40, 500).astype(np.int64)
        block = encode(scheme, vals)
        for lo, hi in [(10, 30), (None, 20), (25, None), (39, 39), (41, 50)]:
            for lo_inc in (True, False):
                for hi_inc in (True, False):
                    mask, _ = range_mask(block, lo, hi, lo_inc, hi_inc)
                    np.testing.assert_array_equal(
                        mask, reference_mask(vals, lo, hi, lo_inc, hi_inc)
                    )

    def test_for_stays_packed(self):
        vals = np.arange(1000, dtype=np.int64) + 10**6
        _, packed = range_mask(for_encode(vals), 10**6 + 10, 10**6 + 20)
        assert packed

    def test_delta_zlib_falls_back(self):
        vals = np.linspace(0.0, 1.0, 100)
        _, packed = range_mask(encode("delta_zlib", vals), 0.2, 0.8)
        assert not packed

    def test_float_bounds_on_for(self):
        # Fractional bounds must round inward onto the integer domain.
        vals = np.arange(100, dtype=np.int64)
        mask, packed = range_mask(for_encode(vals), 9.5, 20.5)
        assert packed
        np.testing.assert_array_equal(mask, (vals >= 10) & (vals <= 20))

    def test_huge_magnitude_float_bound_decodes(self):
        # Beyond 2^53 a float compare on int64 is not exact; parity
        # demands the decode fallback there.
        vals = np.array([2**60, 2**60 + 1, 2**60 + 2], dtype=np.int64)
        bound = 0.5 + 2**60  # rounds to exactly 2**60 in float64
        mask, packed = range_mask(
            for_encode(vals), bound, None, lo_inclusive=False
        )
        assert not packed
        np.testing.assert_array_equal(mask, vals > bound)

    def test_negative_reference(self):
        vals = np.array([-50, -10, -30, -50, -1], dtype=np.int64)
        mask, packed = range_mask(for_encode(vals), -40, -5)
        assert packed
        np.testing.assert_array_equal(mask, (vals >= -40) & (vals <= -5))


class TestThetaMaskParity:
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    @pytest.mark.parametrize("op", THETA_OPS)
    def test_matches_numpy(self, scheme, op):
        rng = np.random.default_rng(13)
        vals = rng.integers(0, 10, 300).astype(np.int64)
        block = encode(scheme, vals)
        fn = {
            "==": np.equal,
            "<": np.less,
            "<=": np.less_equal,
            ">": np.greater,
            ">=": np.greater_equal,
        }[op]
        mask, _ = range_mask(block, *theta_range(op, 4))
        np.testing.assert_array_equal(mask, fn(vals, 4))

    def test_unknown_op(self):
        from repro.engine.compression import CompressionError

        # ``!=`` is no range: no predicate of the engine is a complement.
        for op in ("<>", "!="):
            with pytest.raises(CompressionError):
                theta_range(op, 1)


class TestByteAccounting:
    def test_scan_bytes_packed_vs_decoded(self):
        vals = np.arange(10_000, dtype=np.int64)
        block = for_encode(vals)
        assert scan_bytes(block, packed=True) == block.nbytes
        assert scan_bytes(block, packed=False) == block.plain_nbytes
        assert block.nbytes < block.plain_nbytes / 2


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.integers(-(2**62), 2**62), min_size=1, max_size=150
    ),
    bounds=st.tuples(
        st.one_of(st.none(), st.integers(-(2**62), 2**62)),
        st.one_of(st.none(), st.integers(-(2**62), 2**62)),
    ),
    inclusive=st.tuples(st.booleans(), st.booleans()),
    scheme=st.sampled_from(SCHEME_NAMES),
)
def test_range_mask_parity_property(values, bounds, inclusive, scheme):
    vals = np.array(values, dtype=np.int64)
    lo, hi = bounds
    lo_inc, hi_inc = inclusive
    mask, _ = range_mask(encode(scheme, vals), lo, hi, lo_inc, hi_inc)
    np.testing.assert_array_equal(
        mask, reference_mask(vals, lo, hi, lo_inc, hi_inc)
    )

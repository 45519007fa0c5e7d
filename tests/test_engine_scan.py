"""Tests for the segment scanner (repro.engine.scan).

The scanner is driven here with a fake prober over hand-made zone maps,
so every verdict, tick, credit and heat record can be pinned without an
index or an encoding underneath; the last class runs the two real
probers (imprint vectors, packed blocks) through a cancelled scan.
"""

import numpy as np
import pytest

from repro.core.imprints import SegmentedImprints
from repro.engine import scan as scan_mod
from repro.engine.column import Column
from repro.engine.compressed import CompressedColumn
from repro.engine.kernels import (
    ZONE_FULL,
    ZONE_PROBE,
    ZONE_SKIP,
    RangePredicate,
    bounds_mask,
)
from repro.engine.scan import ScanStats, scan_segments, zone_verdicts
from repro.obs.heat import disable_heat, enable_heat
from repro.obs.metrics import MetricsRegistry
from repro.obs.queries import QueryCancelled, QueryRegistry
from repro.obs.resources import ResourceTracker

#: Ten-row segments over ``VALUES``, with the degenerate kinds mixed in:
#: an empty one, one without a zone map and one with a NaN zone map.
SEGMENTS = [
    (0, 10, 0, 9),
    (10, 20, 10, 19),
    (20, 20, 0, 0),  # empty
    (20, 30, None, None),  # no zone map
    (30, 40, float("nan"), float("nan")),
    (40, 50, 40, 49),
]
VALUES = np.arange(50)


def fake_prober(predicate, calls=None):
    """The numpy answer per segment, billed as 3 encoded bytes per row on
    even segments and 5 materialized bytes per row on odd ones."""
    lo, hi, lo_inc, hi_inc, negate = predicate

    def probe(i):
        if calls is not None:
            calls.append(i)
        start, stop = SEGMENTS[i][:2]
        mask = bounds_mask(VALUES[start:stop], lo, hi, lo_inc, hi_inc)
        if negate:
            mask = ~mask
        oids = np.flatnonzero(mask).astype(np.int64) + start
        rows = stop - start
        return (oids, 3 * rows, 0) if i % 2 == 0 else (oids, 0, 5 * rows)

    return probe


@pytest.fixture
def probe_hook():
    yield lambda hook: setattr(scan_mod, "probe_hook", hook)
    scan_mod.probe_hook = None


@pytest.fixture
def heat():
    disable_heat()
    yield enable_heat(registry=MetricsRegistry())
    disable_heat()


class TestZoneVerdicts:
    def test_skip_full_probe(self):
        assert zone_verdicts(SEGMENTS, RangePredicate(5, 19)) == [
            ZONE_PROBE,
            ZONE_FULL,
            ZONE_SKIP,
            ZONE_PROBE,
            ZONE_PROBE,
            ZONE_SKIP,
        ]

    def test_negate_complements_all_but_probe_and_empty(self):
        assert zone_verdicts(SEGMENTS, RangePredicate(5, 19, negate=True)) == [
            ZONE_PROBE,
            ZONE_SKIP,
            ZONE_SKIP,  # an empty segment matches nothing either way
            ZONE_PROBE,
            ZONE_PROBE,
            ZONE_FULL,
        ]

    def test_exclusive_bounds_reach_the_zone_algebra(self):
        seg = [(0, 10, 0, 9)]
        assert zone_verdicts(seg, RangePredicate(9, None)) == [ZONE_PROBE]
        assert zone_verdicts(seg, RangePredicate(9, None, lo_inclusive=False)) == [ZONE_SKIP]
        assert zone_verdicts(seg, RangePredicate(None, 9, hi_inclusive=False)) == [ZONE_PROBE]


class TestScanSegments:
    @pytest.mark.parametrize(
        "predicate",
        [
            RangePredicate(5, 19),
            RangePredicate(5, 19, negate=True),
            RangePredicate(None, 44, hi_inclusive=False),
            RangePredicate(100, 200),
            RangePredicate(None, None),
        ],
    )
    @pytest.mark.parametrize("threads", [1, 4])
    def test_gathers_the_numpy_answer_in_segment_order(self, predicate, threads):
        lo, hi, lo_inc, hi_inc, negate = predicate
        mask = np.ones(VALUES.shape[0], dtype=bool)
        if lo is not None:
            mask &= (VALUES >= lo) if lo_inc else (VALUES > lo)
        if hi is not None:
            mask &= (VALUES <= hi) if hi_inc else (VALUES < hi)
        got = scan_segments(
            "v", SEGMENTS, predicate, fake_prober(predicate), threads=threads
        )
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, np.flatnonzero(~mask if negate else mask))

    def test_only_probe_segments_reach_the_prober(self):
        calls = []
        predicate = RangePredicate(5, 19)
        scan_segments("v", SEGMENTS, predicate, fake_prober(predicate, calls))
        assert calls == [0, 3, 4]

    def test_stats_and_tracker_count_probed_segments_only(self):
        predicate = RangePredicate(5, 19)
        stats = ScanStats()
        with ResourceTracker() as tracker:
            out = scan_segments(
                "v", SEGMENTS, predicate, fake_prober(predicate), stats=stats
            )
        assert (stats.segments_skipped, stats.segments_full, stats.segments_probed) == (2, 1, 3)
        assert stats.packed_probes == 2  # segments 0 and 4 billed encoded bytes
        assert (stats.encoded_bytes, stats.materialized_bytes) == (60, 50)
        assert stats.rows_out == out.shape[0]
        usage = tracker.usage
        assert (usage.rows_touched, usage.bytes_touched) == (30, 110)
        assert (usage.encoded_bytes, usage.materialized_bytes) == (60, 50)

    def test_one_heat_record_per_scan(self, heat):
        predicate = RangePredicate(5, 19)
        scan_segments("v", SEGMENTS, predicate, fake_prober(predicate), threads=4)
        assert heat.registry.counter("heat.updates").value == 1
        rows = {row["segment"]: row for row in heat.snapshot(top=50)["segments"]}
        # Heat decays by the second; round the EWMA back to event counts.
        counts = lambda r: (round(r["probes"]), round(r["skips"]), round(r["fulls"]))  # noqa: E731
        assert {s: counts(r) for s, r in rows.items()} == {
            0: (1, 0, 0),
            1: (0, 0, 1),
            2: (0, 1, 0),
            3: (1, 0, 0),
            4: (1, 0, 0),
            5: (0, 1, 0),
        }
        assert round(rows[0]["encoded_bytes"]) == 30
        assert round(rows[3]["materialized_bytes"]) == 50

    def test_progress_counts_every_segment_and_ticks_per_probe(self, probe_hook):
        predicate = RangePredicate(5, 19)
        seen = []
        with QueryRegistry().track("test") as query:
            probe_hook(lambda i: seen.append((i, query.to_dict()["segments_done"])))
            scan_segments("v", SEGMENTS, predicate, fake_prober(predicate), threads=1)
            record = query.to_dict()
        # Skips and the wholesale accept are done up front (3 of 6).
        assert seen == [(0, 3), (3, 4), (4, 5)]
        assert (record["segments_total"], record["segments_done"]) == (6, 6)


class TestCancelledScanIsBilled:
    """A scan cancelled after k probes is charged for k segments — the
    same on the imprint and the packed prober."""

    N, SEGMENT = 4096, 256

    def _select(self, packed):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 100, self.N)  # every zone straddles [40, 60]
        if packed:
            column = CompressedColumn.from_values("v", values, self.SEGMENT)
            return column.range_select
        return SegmentedImprints(Column("v", "float64", data=values), self.SEGMENT).query

    @pytest.mark.parametrize("packed", [False, True], ids=["imprint", "packed"])
    def test_k_probes_k_segments(self, probe_hook, heat, packed):
        select = self._select(packed)
        with ResourceTracker() as whole:
            select(40, 60, threads=1)
        per_segment = whole.usage.bytes_touched // (self.N // self.SEGMENT)
        k = 3

        def cancel_after_k(i):
            if i == k:
                raise QueryCancelled("q-test", 0.0, 0.0)

        probe_hook(cancel_after_k)
        with ResourceTracker() as tracker, pytest.raises(QueryCancelled):
            select(40, 60, threads=1)
        assert tracker.usage.rows_touched == k * self.SEGMENT
        assert tracker.usage.bytes_touched == k * per_segment
        probed = [r for r in heat.snapshot(top=50)["segments"] if round(r["probes"]) == 2]
        assert sorted(r["segment"] for r in probed) == list(range(k))

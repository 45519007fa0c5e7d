"""Tests for the segment scanner (repro.engine.scan).

The scanner is driven here with a fake prober over hand-made zone maps,
so every verdict, tick, credit and heat record can be pinned without an
index or an encoding underneath; the last classes run the real probers
(imprint vectors, packed blocks, two imprints fused) through a cancelled
scan, and bill the plain select and SQL's pushed range the same way.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PointCloudDB
from repro.core.imprints import SegmentedImprints
from repro.core.imprints.segments import RangeTerm, select_conjunction
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
from repro.engine.select import range_select
from repro.engine.scan import (
    Conjunct,
    ScanStats,
    conjunction_verdicts,
    scan_segments,
    zone_verdicts,
    zones_of,
)
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
ZONES = zones_of(SEGMENTS)
VALUES = np.arange(50)


def fake_prober(predicate, calls=None):
    """The numpy answer per segment, billed as 3 encoded bytes per row on
    even segments and 5 materialized bytes per row on odd ones."""
    lo, hi, lo_inc, hi_inc = predicate

    def probe(i, own):
        assert list(own) == [ZONE_PROBE]  # only straddling segments get here
        if calls is not None:
            calls.append(i)
        start, stop = SEGMENTS[i][:2]
        mask = bounds_mask(VALUES[start:stop], lo, hi, lo_inc, hi_inc)
        oids = np.flatnonzero(mask).astype(np.int64) + start
        rows = stop - start
        return oids, [(3 * rows, 0) if i % 2 == 0 else (0, 5 * rows)]

    return probe


def scan_one(predicate, probe=None, **kwargs):
    """The one-term scan of ``VALUES`` every test of the loop runs."""
    probe = probe if probe is not None else fake_prober(predicate)
    return scan_segments([Conjunct("v", ZONES, predicate)], probe, **kwargs)


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
        assert zone_verdicts(ZONES, RangePredicate(5, 19)).tolist() == [
            ZONE_PROBE,
            ZONE_FULL,
            ZONE_SKIP,
            ZONE_PROBE,
            ZONE_PROBE,
            ZONE_SKIP,
        ]

    def test_exclusive_bounds_reach_the_zone_algebra(self):
        seg = zones_of([(0, 10, 0, 9)])
        assert zone_verdicts(seg, RangePredicate(9, None)).tolist() == [ZONE_PROBE]
        assert zone_verdicts(seg, RangePredicate(9, None, lo_inclusive=False)).tolist() == [
            ZONE_SKIP
        ]
        assert zone_verdicts(seg, RangePredicate(None, 9, hi_inclusive=False)).tolist() == [
            ZONE_PROBE
        ]


def scalar_rule(start, stop, zmin, zmax, predicate):
    """One segment's verdict as the scanner decided it segment by
    segment, with numpy scalar zones: the reference for the array rule."""
    if stop <= start:
        return ZONE_SKIP
    if zmin is None or zmax is None:
        return ZONE_PROBE
    lo, hi, lo_inclusive, hi_inclusive = predicate
    if lo is not None and (zmax < lo or (not lo_inclusive and zmax <= lo)):
        return ZONE_SKIP
    if hi is not None and (zmin > hi or (not hi_inclusive and zmin >= hi)):
        return ZONE_SKIP
    lo_full = lo is None or (zmin >= lo if lo_inclusive else zmin > lo)
    hi_full = hi is None or (zmax <= hi if hi_inclusive else zmax < hi)
    return ZONE_FULL if lo_full and hi_full else ZONE_PROBE


def _zone_values(dtype):
    """Values of ``dtype`` weighted to the edges where promotion bites:
    past 2^53 for int64, above 2^63 for uint64, ±inf and NaN for floats."""
    if dtype.kind == "f":
        return st.floats(width=8 * dtype.itemsize)
    info = np.iinfo(dtype)
    edges = [info.min, info.max, 0, 1, 2**53, 2**53 + 1, 2**63, 2**63 + 1, -(2**53) - 1]
    return st.one_of(
        st.integers(int(info.min), int(info.max)),
        st.sampled_from([e for e in edges if info.min <= e <= info.max]),
    )


@st.composite
def zone_cases(draw):
    dtype = np.dtype(draw(st.sampled_from(["int8", "uint8", "int64", "uint64", "float32", "float64"])))
    values = _zone_values(dtype)
    segments, pos = [], 0
    for _ in range(draw(st.integers(1, 10))):
        size = draw(st.sampled_from([0, 1, 7]))
        if draw(st.integers(0, 5)) == 0:
            zmin = zmax = None
        else:  # either order: a degenerate header has zmin > zmax
            zmin, zmax = dtype.type(draw(values)), dtype.type(draw(values))
        segments.append((pos, pos + size, zmin, zmax))
        pos += size
    edges = [z for segment in segments for z in segment[2:] if z is not None]
    bound = st.one_of(
        st.none(),
        values,  # a Python scalar
        values.map(dtype.type),
        st.floats(),  # float bounds on integer zones
        st.integers(-(2**70), 2**70),  # outside every dtype's range
        *([st.sampled_from(edges), st.sampled_from(edges).map(lambda z: z.item())] if edges else []),
    )
    predicate = RangePredicate(
        draw(bound), draw(bound), draw(st.booleans()), draw(st.booleans())
    )
    return segments, predicate


class TestArrayRuleIsScalarRule:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(zone_cases())
    def test_element_by_element(self, case):
        segments, predicate = case
        got = zone_verdicts(zones_of(segments), predicate).tolist()
        assert got == [scalar_rule(*segment, predicate) for segment in segments]

    def test_edges_of_wide_integers(self):
        """The cases the property test is weighted towards, pinned."""
        big = np.int64(2**53 + 1)  # rounds to 2^53 as a float64
        zone = zones_of([(0, 1, big, big)])
        predicate = RangePredicate(float(2**53), None, lo_inclusive=False)
        assert zone_verdicts(zone, predicate)[0] == ZONE_SKIP
        top = np.uint64(2**63 + 1)
        zone = zones_of([(0, 1, top, top)])
        assert zone_verdicts(zone, RangePredicate(-1, 2**63))[0] == ZONE_SKIP
        zone = zones_of([(0, 1, top, top)])
        assert zone_verdicts(zone, RangePredicate(-1, 2**64))[0] == ZONE_FULL
        zone = zones_of([(0, 1, np.int8(5), np.int8(9))])
        assert zone_verdicts(zone, RangePredicate(-1000, 1000))[0] == ZONE_FULL


class TestConjunction:
    """Several range predicates over one grid: the rule is written once."""

    def test_any_skip_skips_all_full_accepts_the_rest_probes(self):
        # One column per segment, one row per term.
        own = np.array(
            [
                [ZONE_FULL, ZONE_SKIP, ZONE_FULL, ZONE_FULL, ZONE_PROBE],
                [ZONE_PROBE, ZONE_SKIP, ZONE_FULL, ZONE_PROBE, ZONE_PROBE],
                [ZONE_SKIP, ZONE_SKIP, ZONE_FULL, ZONE_FULL, ZONE_PROBE],
            ],
            dtype=np.int8,
        )
        assert conjunction_verdicts(own).tolist() == [
            ZONE_SKIP,
            ZONE_SKIP,
            ZONE_FULL,
            ZONE_PROBE,
            ZONE_PROBE,
        ]
        # A term without zone maps is PROBE everywhere: it can neither
        # skip a segment nor let the others accept it.
        no_zone = zone_verdicts(zones_of([(0, 8, None, None)]), RangePredicate(0, 1))
        full = np.array([ZONE_FULL], dtype=np.int8)
        assert conjunction_verdicts(np.stack([full, no_zone])).tolist() == [ZONE_PROBE]

    def test_scan_of_two_terms(self, heat):
        """``v`` in [5, 29] and ``w`` = 2 * ``v`` in [30, 200]: the prober
        sees only the undecided segments, with each term's own verdict."""
        bounds = [(0, 10), (10, 20), (20, 30), (30, 40)]
        v = Conjunct(
            "v", zones_of([(a, b, a, b - 1) for a, b in bounds]), RangePredicate(5, 29)
        )
        w = Conjunct(
            "w",
            zones_of([(a, b, 2 * a, 2 * b - 2) for a, b in bounds]),
            RangePredicate(30, 200),
        )
        seen = {}

        def probe(i, own):
            seen[i] = list(own)
            start, stop = bounds[i]
            rows = np.arange(start, stop)
            keep = (rows >= 5) & (rows <= 29) & (2 * rows >= 30) & (2 * rows <= 200)
            return rows[keep].astype(np.int64), [(0, 7), (11, 0)]

        stats = ScanStats()
        with ResourceTracker() as tracker:
            got = scan_segments([v, w], probe, stats=stats)
        # Segment 0: w is disjoint; 1: w straddles; 2: both cover; 3: v disjoint.
        assert seen == {1: [ZONE_FULL, ZONE_PROBE]}
        np.testing.assert_array_equal(got, np.arange(15, 30))
        assert (stats.segments_skipped, stats.segments_full, stats.segments_probed) == (2, 1, 1)
        assert (stats.encoded_bytes, stats.materialized_bytes) == (11, 7)
        assert tracker.usage.bytes_touched == 18
        # One heat update per term, each with its own bytes.
        assert heat.registry.counter("heat.updates").value == 2
        rows = {(r["column"], r["segment"]): r for r in heat.snapshot(top=50)["segments"]}
        assert round(rows["v", 1]["materialized_bytes"]) == 7
        assert round(rows["w", 1]["encoded_bytes"]) == 11
        assert round(rows["v", 0]["skips"]) == round(rows["w", 3]["skips"]) == 1

    def test_terms_must_share_the_grid(self):
        a = Conjunct("a", zones_of([(0, 10, 0, 9)]), RangePredicate(0, 5))
        b = Conjunct("b", zones_of([(0, 5, 0, 4), (5, 10, 5, 9)]), RangePredicate(0, 5))
        with pytest.raises(ValueError):
            scan_segments([a, b], fake_prober(RangePredicate(0, 5)))


class TestScanSegments:
    @pytest.mark.parametrize(
        "predicate",
        [
            RangePredicate(5, 19),
            RangePredicate(5, 19, lo_inclusive=False, hi_inclusive=False),
            RangePredicate(None, 44, hi_inclusive=False),
            RangePredicate(100, 200),
            RangePredicate(None, None),
        ],
    )
    @pytest.mark.parametrize("terms", [1, 4])
    def test_gathers_the_numpy_answer_in_segment_order(self, predicate, terms):
        """The answer of ``terms`` identical conjuncts is the answer of one."""
        lo, hi, lo_inc, hi_inc = predicate
        mask = np.ones(VALUES.shape[0], dtype=bool)
        if lo is not None:
            mask &= (VALUES >= lo) if lo_inc else (VALUES > lo)
        if hi is not None:
            mask &= (VALUES <= hi) if hi_inc else (VALUES < hi)
        one_term = fake_prober(predicate)

        def probe(i, own):
            assert len(own) == terms and len(set(own)) == 1
            return one_term(i, own[:1])

        got = scan_segments([Conjunct("v", ZONES, predicate)] * terms, probe)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, np.flatnonzero(mask))

    def test_only_probe_segments_reach_the_prober(self):
        calls = []
        predicate = RangePredicate(5, 19)
        scan_one(predicate, fake_prober(predicate, calls))
        assert calls == [0, 3, 4]

    def test_stats_and_tracker_count_probed_segments_only(self):
        predicate = RangePredicate(5, 19)
        stats = ScanStats()
        with ResourceTracker() as tracker:
            out = scan_one(predicate, stats=stats)
        assert (stats.segments_skipped, stats.segments_full, stats.segments_probed) == (2, 1, 3)
        assert stats.packed_probes == 2  # segments 0 and 4 billed encoded bytes
        assert (stats.encoded_bytes, stats.materialized_bytes) == (60, 50)
        assert stats.rows_out == out.shape[0]
        usage = tracker.usage
        assert (usage.rows_touched, usage.bytes_touched) == (30, 110)
        assert (usage.encoded_bytes, usage.materialized_bytes) == (60, 50)

    def test_one_heat_record_per_scan(self, heat):
        predicate = RangePredicate(5, 19)
        scan_one(predicate)
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
            scan_one(predicate)
            record = query.to_dict()
        # Skips and the wholesale accept are done up front (3 of 6).
        assert seen == [(0, 3), (3, 4), (4, 5)]
        assert (record["segments_total"], record["segments_done"]) == (6, 6)


class TestCancelledScanIsBilled:
    """A scan cancelled after k probes is charged for k segments — the
    same on the imprint, the packed and the fused two-column prober."""

    N, SEGMENT = 4096, 256

    def _select(self, prober):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 100, self.N)  # every zone straddles [40, 60]
        if prober == "packed":
            packed = CompressedColumn.from_values("v", values, self.SEGMENT)
            return lambda lo, hi: packed.select(RangePredicate(lo, hi))
        index = SegmentedImprints(Column("v", "float64", data=values), self.SEGMENT)
        if prober == "imprint":
            return index.query
        other = Column("w", "float64", data=values[::-1].copy())
        other_index = SegmentedImprints(other, self.SEGMENT)
        return lambda lo, hi: select_conjunction(
            index,
            [
                RangeTerm(index.column, index, RangePredicate(lo, hi)),
                RangeTerm(other, other_index, RangePredicate(lo, hi)),
            ],
        )

    @pytest.mark.parametrize("prober", ["imprint", "packed", "fused"])
    def test_k_probes_k_segments(self, probe_hook, heat, prober):
        select = self._select(prober)
        with ResourceTracker() as whole:
            select(40, 60)
        usage = whole.usage
        assert usage.bytes_touched == usage.encoded_bytes + usage.materialized_bytes > 0
        per_segment = whole.usage.bytes_touched // (self.N // self.SEGMENT)
        k = 3

        def cancel_after_k(i):
            if i == k:
                raise QueryCancelled("q-test", 0.0, 0.0)

        probe_hook(cancel_after_k)
        with ResourceTracker() as tracker, pytest.raises(QueryCancelled):
            select(40, 60)
        assert tracker.usage.rows_touched == k * self.SEGMENT
        assert tracker.usage.bytes_touched == k * per_segment
        probed = [
            r
            for r in heat.snapshot(top=50)["segments"]
            if r["column"] == "v" and round(r["probes"]) == 2
        ]
        assert sorted(r["segment"] for r in probed) == list(range(k))


class TestPlainSelectBillsThroughScan:
    """The unsegmented plain select and SQL's pushed range bill through
    the scanner's one billing function too, like the probers above."""

    N = 4096

    @pytest.fixture
    def column(self):
        values = np.random.default_rng(5).uniform(0, 100, self.N)
        return Column("v", "float64", data=values)

    @pytest.mark.parametrize("step", [None, 7])
    def test_rows_and_bytes_read(self, column, step):
        candidates = None if step is None else np.arange(0, self.N, step, dtype=np.int64)
        rows = self.N if candidates is None else candidates.shape[0]
        with ResourceTracker() as tracker:
            range_select(column, 40, 60, candidates=candidates)
        usage = tracker.usage
        assert usage.rows_touched == rows
        assert (usage.encoded_bytes, usage.materialized_bytes) == (0, 8 * rows)
        assert usage.bytes_touched == usage.encoded_bytes + usage.materialized_bytes

    def test_heat_is_the_whole_column_segment(self, column, heat):
        range_select(column, 40, 60)
        assert heat.registry.counter("heat.updates").value == 1
        (row,) = heat.snapshot(top=50)["segments"]
        assert (row["column"], row["segment"]) == ("v", -1)
        assert (round(row["probes"]), round(row["materialized_bytes"])) == (1, 8 * self.N)
        assert round(row["encoded_bytes"]) == 0

    def test_sql_pushed_range(self, column, heat):
        db = PointCloudDB()
        db.create_pointcloud("pts")
        values = column.values
        db.load_points("pts", {"x": values, "y": values[::-1].copy(), "z": values})
        with ResourceTracker() as tracker:
            db.sql("SELECT count(*) FROM pts WHERE z BETWEEN 40 AND 60")
        usage = tracker.usage
        assert usage.bytes_touched == usage.encoded_bytes + usage.materialized_bytes > 0
        assert {row["column"] for row in heat.snapshot(top=50)["segments"]} == {"z"}

"""The fused two-axis imprint filter against brute-force numpy.

``SpatialSelect._filter`` hands its x / y (/ z) ranges to one conjunctive
segment scan.  Whatever the manager happens to hold for the secondary
axes — a current index, none, a stale one, one on another segment grid,
one that went through disk — the oids must equal the numpy answer bit
for bit, and the statistics must say what was done: which columns'
imprints were ANDed, how the probed segments were compared, and what
that read.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.imprints import ImprintsManager, SegmentedImprints
from repro.core.imprints.bitvec import values_per_cacheline
from repro.core.imprints.segments import DENSE_LINE_SHARE, RangeTerm, select_conjunction
from repro.core.query import QueryStats, SpatialSelect
from repro.engine import scan as scan_mod
from repro.engine.column import TYPE_MAP, Column
from repro.engine.compressed import CompressedColumn
from repro.engine.kernels import ZONE_PROBE, ZONE_SKIP, RangePredicate
from repro.engine.scan import ScanStats
from repro.engine.table import Table
from repro.gis.envelope import Box
from repro.gis.geometry import LineString, Polygon
from repro.gis.predicates import points_satisfy
from repro.obs.heat import disable_heat, enable_heat
from repro.obs.metrics import MetricsRegistry
from repro.obs.resources import ResourceTracker

SEGMENT_ROWS = 256  # 32 cache lines of 8 doubles
VPC = 8

BOXES = {
    "nothing": Box(200, 200, 300, 300),
    "everything": Box(-10, -10, 110, 110),
    "point": Box(50, 50, 50, 50),
    "small": Box(40, 40, 43, 41),
    "wide": Box(10, 20, 60, 90),
}
Z_RANGE = (8.0, 11.0)
#: Non-box queries: the fused filter takes their envelope, refine the rest.
SHAPES = {
    "polygon": (Polygon([(10, 10), (70, 15), (55, 80), (12, 60)]), "contains", 0.0),
    "dwithin": (LineString([(0, 50), (50, 55), (100, 40)]), "dwithin", 4.0),
}


def make_data(kind, n, seed=0):
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(0, 100, n), rng.uniform(0, 100, n)
    z = rng.normal(10, 3, n)
    if kind == "sorted":
        x, y = np.sort(x), np.sort(y)[::-1].copy()
    elif kind == "constant":
        x, y, z = np.full(n, 50.0), np.full(n, 50.0), np.full(n, 10.0)
    elif kind == "nan_inf":
        for values in (x, y, z):
            where = rng.choice(n, size=max(n // 20, 3), replace=False)
            values[where] = rng.choice([np.nan, np.inf, -np.inf], where.shape[0])
    return {"x": x, "y": y, "z": z}


def make_table(columns):
    table = Table("pts", [("x", "float64"), ("y", "float64"), ("z", "float64")])
    table.append_columns(columns)
    return table


def brute_force(table, box, z_range, predicate="contains", distance=0.0):
    x, y, z = (np.asarray(table.column(c).values) for c in "xyz")
    if isinstance(box, Box):
        mask = (x >= box.xmin) & (x <= box.xmax) & (y >= box.ymin) & (y <= box.ymax)
    else:
        with np.errstate(invalid="ignore"):  # ±inf coordinates
            mask = points_satisfy(x, y, box, predicate, distance)
    if z_range is not None:
        mask &= (z >= z_range[0]) & (z <= z_range[1])
    return np.flatnonzero(mask).astype(np.int64)


def manager_for(segment_rows=SEGMENT_ROWS):
    return ImprintsManager(segment_rows=segment_rows)


class IndexState:
    """How the manager's indexes stand just before each query."""

    def __init__(self, name, table, tmp_path):
        self.name, self.table, self.tmp_path = name, table, tmp_path
        self.manager = manager_for()
        if name in ("both", "stale", "reloaded"):
            for column in "xyz":
                self.manager.ensure(table, column)
        if name == "reloaded":
            self.manager.save(tmp_path)
            self.manager = manager_for()
            assert self.manager.load({"pts": table}, tmp_path) == 3
        if name == "other_grid":
            # x and y on different grids: whichever goes first, the other
            # cannot lend its vectors or zone maps.
            self.manager._imprints[("pts", "x")] = SegmentedImprints(
                table.column("x"), 2 * SEGMENT_ROWS
            )
            self.manager.ensure(table, "y")

    def before_query(self):
        if self.name == "primary_only":
            self.manager.invalidate(self.table)
        if self.name == "stale":
            self.table.append_columns(make_data("random", 5, seed=len(self.table)))

    def check_columns(self, stats, with_z):
        used = set(stats.imprint_columns)
        if self.name in ("both", "stale", "reloaded"):
            assert used == ({"x", "y", "z"} if with_z else {"x", "y"})
        elif self.name == "primary_only":
            assert len(used - {"z"}) == 1
        else:  # other_grid: z is on y's grid
            assert used in ({"x"}, {"y"}, {"y", "z"})


@pytest.mark.parametrize("n_rows", [3003, 100], ids=["ragged", "one_partial_segment"])
@pytest.mark.parametrize("kind", ["random", "sorted", "constant", "nan_inf"])
@pytest.mark.parametrize(
    "state", ["both", "primary_only", "stale", "other_grid", "reloaded"]
)
def test_fused_filter_equals_numpy(state, kind, n_rows, tmp_path):
    table = make_table(make_data(kind, n_rows))
    index_state = IndexState(state, table, tmp_path)
    select = SpatialSelect(table, manager=index_state.manager)
    queries = {name: (box, "contains", 0.0) for name, box in BOXES.items()}
    queries.update(SHAPES)
    for name, (geometry, predicate, distance) in queries.items():
        for z_range in (None, Z_RANGE):
            index_state.before_query()
            result = select.query(geometry, predicate, distance, z_range=z_range)
            expected = brute_force(table, geometry, z_range, predicate, distance)
            assert result.oids.dtype == np.int64
            np.testing.assert_array_equal(
                result.oids, expected, err_msg=f"{name} z={z_range}"
            )
            stats = result.stats
            index_state.check_columns(stats, z_range is not None)
            n_segments = -(-len(table) // index_state.manager.get(
                table, stats.imprint_columns[0]
            ).segment_rows)
            assert stats.n_segments_skipped + stats.n_segments_probed == n_segments
            assert stats.n_probes_dense + stats.n_probes_gather <= stats.n_segments_probed


class TestIndexLifecycle:
    def test_cold_query_builds_one_index(self):
        table = make_table(make_data("random", 3003))
        manager = manager_for()
        result = SpatialSelect(table, manager=manager).query(Box(10, 10, 20, 60))
        assert manager.builds == 1
        assert manager.get(table, "x") is not None and manager.get(table, "y") is None
        assert result.stats.imprint_columns == ("x",)
        assert result.stats.imprint_build_seconds > 0.0

    def test_cold_3d_query_builds_two(self):
        table = make_table(make_data("random", 3003))
        manager = manager_for()
        SpatialSelect(table, manager=manager).query(Box(10, 10, 60, 20), z_range=Z_RANGE)
        assert manager.builds == 2
        assert manager.get(table, "x") is None
        assert manager.get(table, "y") is not None and manager.get(table, "z") is not None

    def test_secondary_is_maintained_never_created(self):
        table = make_table(make_data("random", 3003))
        manager = manager_for()
        manager.ensure(table, "y")
        select = SpatialSelect(table, manager=manager)
        select.query(Box(10, 10, 20, 60))  # x goes first, y is held: both used
        assert manager.builds == 2
        table.append_columns(make_data("random", 300, seed=9))
        result = select.query(Box(10, 10, 20, 60))
        # Both extended (incremental), nothing new created.
        assert manager.builds == 4
        assert not manager.get(table, "y").stale
        assert manager.get(table, "z") is None
        assert result.stats.imprint_columns == ("x", "y")
        np.testing.assert_array_equal(
            result.oids, brute_force(table, Box(10, 10, 20, 60), None)
        )


    def test_ensure_hands_back_the_seconds_this_call_built(self):
        table = make_table(make_data("random", 3003))
        manager = manager_for()
        assert manager._ensure(table, "x", create=False) == (None, 0.0)
        index, seconds = manager._ensure(table, "x")
        assert index is manager.get(table, "x") and seconds > 0.0
        assert manager._ensure(table, "x") == (index, 0.0)
        table.append_columns(make_data("random", 10, seed=1))
        extended, seconds = manager._ensure(table, "x", create=False)
        assert extended is index and seconds > 0.0 and not index.stale


class TestDenseGatherCut:
    """One 512-row segment whose cache line ``k`` holds the value ``k``
    eight times: every line has its own imprint bin, so a range over
    ``m`` values leaves exactly ``m`` of the 64 lines alive."""

    LINES = 64

    def _select(self):
        x = np.repeat(np.arange(self.LINES, dtype=np.float64), VPC)
        table = make_table({"x": x, "y": np.zeros_like(x), "z": np.zeros_like(x)})
        manager = manager_for(self.LINES * VPC)
        for column in "xy":
            manager.ensure(table, column)
        return SpatialSelect(table, manager=manager)

    def _query(self, last_value):
        with ResourceTracker() as tracker:
            result = self._select().query(Box(0, -1, last_value, 1))
        np.testing.assert_array_equal(result.oids, np.arange((last_value + 1) * VPC))
        stats = result.stats
        return (stats.n_probes_dense, stats.n_probes_gather), tracker.usage.bytes_touched

    def test_one_line_is_gathered(self):
        assert self._query(0) == ((0, 1), VPC * 8)

    def test_exactly_the_cut_still_gathers(self):
        at_cut = int(self.LINES * DENSE_LINE_SHARE)
        assert at_cut == self.LINES * DENSE_LINE_SHARE == 8
        # y covers the segment (FULL on its own): only x lines are read.
        assert self._query(at_cut - 1) == ((0, 1), at_cut * VPC * 8)

    def test_one_line_past_the_cut_compares_the_slice(self):
        assert self._query(8) == ((1, 0), self.LINES * VPC * 8)


def _column_values(rng, dtype, n, layout, specials):
    """``n`` values of ``dtype`` in one of three row orders: ``sorted``
    (neighbouring lines share imprint vectors, so the cacheline
    dictionary stores repeats), ``runs`` of repeated values, or
    ``shuffled`` (every line its own vector)."""
    if dtype.kind == "f":
        values = rng.normal(0.0, 100.0, n).astype(dtype)
        if specials:
            where = rng.choice(n, size=max(n // 10, 1))
            values[where] = rng.choice([np.nan, np.inf, -np.inf], where.shape[0])
    else:
        info = np.iinfo(dtype)
        lo, hi = (info.min, info.max) if rng.random() < 0.3 else (0, min(40, info.max))
        values = rng.integers(lo, hi, n, dtype=dtype, endpoint=True)
    if layout == "sorted":
        values = np.sort(values)
    elif layout == "runs":
        values = np.repeat(values, rng.integers(1, 30, n))[:n]
    return values


@st.composite
def conjunctions(draw):
    """A conjunction of 1-3 range terms over columns of one numeric dtype,
    on a grid whose row count may be off the segment and the line grid."""
    dtype = TYPE_MAP[draw(st.sampled_from([t for t in TYPE_MAP if t != "bool"]))]
    vpc = values_per_cacheline(dtype.itemsize)
    segment_lines = draw(st.integers(8, 64))
    n_lines = draw(st.integers(segment_lines, 3 * segment_lines + 5))
    segment_rows = segment_lines * vpc
    n_rows = n_lines * vpc - draw(st.sampled_from([0, 0, 1, vpc - 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["sorted", "runs", "shuffled"]))
    specials = draw(st.booleans())
    terms = []
    for k in range(draw(st.integers(1, 3))):
        values = _column_values(rng, dtype, n_rows, layout, specials)
        column = Column(f"c{k}", dtype, data=values)
        indexed = k == 0 or draw(st.booleans())
        index = SegmentedImprints(column, segment_rows=segment_rows) if indexed else None
        # Bounds at zone edges, at values, open, or a narrow range
        # between neighbouring distinct values (few lines alive: gather).
        edges = [
            f(values[start : start + segment_rows])
            for start in range(0, n_rows, segment_rows)
            for f in (np.min, np.max)
        ]
        distinct = np.unique(values)
        at = draw(st.integers(0, distinct.shape[0] - 1))
        near = distinct[at : at + draw(st.integers(1, 3))]
        candidates = [None, near[0], near[-1], *edges, *values[rng.choice(n_rows, 4)]]
        if draw(st.booleans()):
            lo, hi = near[0], near[-1]
        else:
            lo, hi = (candidates[draw(st.integers(0, len(candidates) - 1))] for _ in "lh")
        predicate = RangePredicate(lo, hi, draw(st.booleans()), draw(st.booleans()))
        terms.append(RangeTerm(column, index, predicate))
    return terms


def numpy_answer(terms):
    mask = np.ones(len(terms[0].column), dtype=bool)
    for term in terms:
        values = np.asarray(term.column.values)
        lo, hi, lo_inclusive, hi_inclusive, _ = term.predicate
        if lo is not None:
            mask &= values >= lo if lo_inclusive else values > lo
        if hi is not None:
            mask &= values <= hi if hi_inclusive else values < hi
    return np.flatnonzero(mask)


class TestLeanProberAgainstBruteForce:
    """``select_conjunction``'s gather form (lines picked with ``take``,
    oids rebuilt from one ``nonzero``) and its dense form against the
    numpy mask, oid for oid, over every numeric dtype (``vpc`` 8-64)."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(conjunctions())
    def test_oids_equal_numpy(self, terms):
        scan = ScanStats()
        with np.errstate(invalid="ignore"):
            got = select_conjunction(terms[0].index, terms, scan=scan)
            want = numpy_answer(terms)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        assert scan.dense_probes + scan.gather_probes <= scan.segments_probed


class TestAccounting:
    def _select(self, columns="xyz"):
        table = make_table(make_data("sorted", 3003))
        manager = manager_for()
        for column in columns:
            manager.ensure(table, column)
        return table, SpatialSelect(table, manager=manager)

    def test_zone_map_answers_read_nothing(self):
        _, select = self._select()
        for box in (BOXES["nothing"], BOXES["everything"]):
            with ResourceTracker() as tracker:
                stats = select.query(box).stats
            assert (stats.n_segments_probed, tracker.usage.bytes_touched) == (0, 0)
            assert (stats.n_probes_dense, stats.n_probes_gather) == (0, 0)

    def test_each_segment_counts_once_however_many_axes(self):
        _, select = self._select()
        stats = select.query(Box(10, 20, 60, 90), z_range=Z_RANGE).stats
        assert stats.n_segments_skipped + stats.n_segments_probed == 12
        assert stats.imprint_columns == ("x", "y", "z")

    def test_an_axis_that_fell_back_to_comparing_is_visible(self):
        table, select = self._select(columns="x")
        stats = select.query(Box(10, 0, 20, 100)).stats
        assert stats.imprint_columns == ("x",)  # no y: compared, not probed
        assert stats.n_probes_dense > 0

    def test_heat_records_once_per_conjunct_column(self):
        table, select = self._select()
        disable_heat()
        heat = enable_heat(registry=MetricsRegistry())
        try:
            stats = QueryStats()
            select.manager.select_conjunction(
                table, [("x", 10, 60), ("y", 20, 90), ("z", *Z_RANGE)], stats=stats
            )
            assert heat.registry.counter("heat.updates").value == 3
            columns = {row["column"] for row in heat.snapshot(top=100)["segments"]}
            assert columns == {"x", "y", "z"}
        finally:
            disable_heat()


class TestVerdictConjunction:
    def test_the_filter_goes_through_scan_py(self, monkeypatch):
        """The filter's and the packed scan's skip/probe counts are exactly
        what the one conjunction rule in ``engine/scan.py`` returned: one
        array call per scan, one verdict per segment."""
        table = make_table(make_data("sorted", 3003))
        manager = manager_for()
        for column in "xy":
            manager.ensure(table, column)
        select = SpatialSelect(table, manager=manager)
        returned = []
        rule = scan_mod.conjunction_verdicts

        def recording(own):
            returned.append(rule(own).tolist())
            return np.asarray(returned[-1], dtype=np.int8)

        monkeypatch.setattr(scan_mod, "conjunction_verdicts", recording)
        stats = select.query(Box(10, 20, 60, 90)).stats
        assert len(returned) == 1  # once per scan
        (verdicts,) = returned
        assert len(verdicts) == 12  # one per segment
        assert stats.n_segments_probed == verdicts.count(ZONE_PROBE) > 0
        assert stats.n_segments_skipped == 12 - verdicts.count(ZONE_PROBE) > 0

        packed = CompressedColumn.from_values("x", table.column("x").values, SEGMENT_ROWS)
        scan = ScanStats()
        packed.range_select(10, 60, stats=scan)
        assert len(returned) == 2
        assert scan.segments_probed == returned[1].count(ZONE_PROBE) > 0
        assert scan.segments_skipped == returned[1].count(ZONE_SKIP) > 0


def test_build_seconds_are_billed_to_the_thread_that_built():
    """One thread rebuilds its column on every query, the other only ever
    probes a warm one: the builder is always billed, the prober never —
    whatever the interleaving."""
    table = make_table(make_data("random", 2000))
    manager = manager_for()
    manager.ensure(table, "y")
    wrong = []

    def builder():
        for _ in range(60):
            manager.invalidate(table, "x")
            stats = QueryStats()
            manager.range_select(table, "x", 10, 20, stats=stats)
            if not stats.imprint_build_seconds > 0.0:
                wrong.append("builder not billed")

    def prober():
        for _ in range(300):
            stats = QueryStats()
            manager.range_select(table, "y", 10, 20, stats=stats)
            if stats.imprint_build_seconds != 0.0:
                wrong.append("prober billed")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=f) for f in (builder, prober)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []

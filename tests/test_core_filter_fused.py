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

from repro.core.imprints import ImprintsManager, SegmentedImprints
from repro.core.imprints.segments import DENSE_LINE_SHARE
from repro.core.query import QueryStats, SpatialSelect
from repro.engine import scan as scan_mod
from repro.engine.kernels import ZONE_PROBE
from repro.engine.table import Table
from repro.gis.envelope import Box
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


def brute_force(table, box, z_range):
    x, y, z = (np.asarray(table.column(c).values) for c in "xyz")
    mask = (x >= box.xmin) & (x <= box.xmax) & (y >= box.ymin) & (y <= box.ymax)
    if z_range is not None:
        mask &= (z >= z_range[0]) & (z <= z_range[1])
    return np.flatnonzero(mask).astype(np.int64)


def manager_for(segment_rows=SEGMENT_ROWS):
    return ImprintsManager(threads=1, segment_rows=segment_rows)


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
                table.column("x"), 2 * SEGMENT_ROWS, threads=1
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
    select = SpatialSelect(table, manager=index_state.manager, threads=1)
    for name, box in BOXES.items():
        for z_range in (None, Z_RANGE):
            for threads in (1, 4):
                index_state.before_query()
                result = select.query(box, z_range=z_range, threads=threads)
                expected = brute_force(table, box, z_range)
                assert result.oids.dtype == np.int64
                np.testing.assert_array_equal(
                    result.oids, expected, err_msg=f"{name} z={z_range} t={threads}"
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
        assert manager._ensure(table, "x", 1, create=False) == (None, 0.0)
        index, seconds = manager._ensure(table, "x", 1)
        assert index is manager.get(table, "x") and seconds > 0.0
        assert manager._ensure(table, "x", 1) == (index, 0.0)
        table.append_columns(make_data("random", 10, seed=1))
        extended, seconds = manager._ensure(table, "x", 1, create=False)
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
        return SpatialSelect(table, manager=manager, threads=1)

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


class TestAccounting:
    def _select(self, columns="xyz"):
        table = make_table(make_data("sorted", 3003))
        manager = manager_for()
        for column in columns:
            manager.ensure(table, column)
        return table, SpatialSelect(table, manager=manager, threads=1)

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
        """The filter's skip/probe counts are exactly what the one
        conjunction rule in ``engine/scan.py`` returned, segment by
        segment."""
        table = make_table(make_data("sorted", 3003))
        manager = manager_for()
        for column in "xy":
            manager.ensure(table, column)
        select = SpatialSelect(table, manager=manager, threads=1)
        returned = []
        rule = scan_mod.conjunction_verdict

        def recording(own):
            returned.append(rule(own))
            return returned[-1]

        monkeypatch.setattr(scan_mod, "conjunction_verdict", recording)
        stats = select.query(Box(10, 20, 60, 90)).stats
        assert len(returned) == 12  # once per segment
        assert stats.n_segments_probed == returned.count(ZONE_PROBE) > 0
        assert stats.n_segments_skipped == 12 - returned.count(ZONE_PROBE) > 0


class _Stats:
    def __init__(self):
        self.n_segments_skipped = self.n_segments_probed = 0
        self.imprint_build_seconds = 0.0


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
            stats = _Stats()
            manager.range_select(table, "x", 10, 20, stats=stats)
            if not stats.imprint_build_seconds > 0.0:
                wrong.append("builder not billed")

    def prober():
        for _ in range(300):
            stats = _Stats()
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

"""Parallel == serial: the morsel-driven execution layer must be invisible.

The contract of the whole parallel rework is that ``threads=N`` returns
byte-identical oid arrays to ``threads=1``, which in turn matches the
brute-force scan.  These tests sweep thread counts x query predicates x
mutation histories against :meth:`SpatialSelect.query_scan`.
"""

import numpy as np
import pytest

from repro.core.imprints import ImprintsManager
from repro.core.query import SpatialSelect
from repro.engine import parallel
from repro.engine.column import Column
from repro.engine.select import range_select, theta_select
from repro.engine.table import Table
from repro.gis.envelope import Box
from repro.gis.geometry import LineString, Polygon

THREAD_SWEEP = [1, 2, 8]


def make_cloud(n=40_000, seed=0, extent=100.0):
    rng = np.random.default_rng(seed)
    table = Table(
        "pts", [("x", "float64"), ("y", "float64"), ("z", "float64")]
    )
    table.append_columns(
        {
            "x": rng.uniform(0, extent, n),
            "y": rng.uniform(0, extent, n),
            "z": rng.normal(10, 3, n),
        }
    )
    return table


QUERIES = {
    "box": dict(geometry=Box(20, 20, 60, 45)),
    "polygon": dict(
        geometry=Polygon([(10, 10), (70, 15), (55, 80), (12, 60)])
    ),
    "dwithin": dict(
        geometry=LineString([(0, 50), (50, 55), (100, 40)]),
        predicate="dwithin",
        distance=4.0,
    ),
    "z_slab": dict(geometry=Box(0, 0, 100, 100), z_range=(8.0, 12.0)),
}


def scan_reference(select, spec):
    """Brute-force oids for a query spec (z-slab intersected by hand)."""
    oids = select.query_scan(
        spec["geometry"],
        spec.get("predicate", "contains"),
        spec.get("distance", 0.0),
    )
    if "z_range" in spec:
        zlo, zhi = spec["z_range"]
        z = np.asarray(select.table.column("z").values)
        oids = oids[(z[oids] >= zlo) & (z[oids] <= zhi)]
    return oids


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    @pytest.mark.parametrize("threads", THREAD_SWEEP)
    def test_query_identical_across_threads(self, name, threads):
        # Small segments force many per-query morsels even at test scale.
        table = make_cloud()
        select = SpatialSelect(
            table, manager=ImprintsManager(segment_rows=4096)
        )
        spec = QUERIES[name]
        kwargs = {k: v for k, v in spec.items() if k != "geometry"}
        serial = select.query(spec["geometry"], threads=1, **kwargs)
        parallel_result = select.query(
            spec["geometry"], threads=threads, **kwargs
        )
        np.testing.assert_array_equal(parallel_result.oids, serial.oids)
        np.testing.assert_array_equal(serial.oids, scan_reference(select, spec))
        assert parallel_result.oids.dtype == np.int64

    @pytest.mark.parametrize("threads", THREAD_SWEEP)
    def test_append_then_query_identical(self, threads):
        table = make_cloud(n=20_000, seed=3)
        select = SpatialSelect(
            table, manager=ImprintsManager(segment_rows=4096)
        )
        box = Box(10, 10, 80, 80)
        select.query(box, threads=threads)  # builds the index
        rng = np.random.default_rng(99)
        table.append_columns(
            {
                "x": rng.uniform(0, 100, 7000),
                "y": rng.uniform(0, 100, 7000),
                "z": rng.normal(10, 3, 7000),
            }
        )
        for name, spec in sorted(QUERIES.items()):
            kwargs = {k: v for k, v in spec.items() if k != "geometry"}
            got = select.query(spec["geometry"], threads=threads, **kwargs)
            np.testing.assert_array_equal(
                got.oids, scan_reference(select, spec), err_msg=name
            )

    def test_segment_stats_reported(self):
        table = make_cloud(n=30_000, seed=5)
        select = SpatialSelect(
            table, manager=ImprintsManager(segment_rows=4096)
        )
        result = select.query(Box(40, 0, 42, 100))
        stats = result.stats
        assert stats.n_segments_probed + stats.n_segments_skipped > 0
        # The full-extent query is answered by zone maps alone, once both
        # axes have them (a query builds only its more selective axis).
        select.manager.ensure(table, "y")
        full = select.query(Box(-10, -10, 110, 110))
        assert full.stats.n_segments_probed == 0
        assert full.stats.n_segments_skipped > 0

    def test_threads_recorded_in_stats(self):
        table = make_cloud(n=2000, seed=6)
        select = SpatialSelect(table)
        assert select.query(Box(0, 0, 50, 50), threads=3).stats.n_threads == 3
        assert select.query(Box(0, 0, 50, 50), threads=1).stats.n_threads == 1


class TestParallelSelectOperators:
    @pytest.mark.parametrize("threads", THREAD_SWEEP)
    def test_range_select_identical(self, threads):
        rng = np.random.default_rng(11)
        col = Column("v", "float64", data=rng.uniform(0, 1000, 150_000))
        serial = range_select(col, 100, 300, threads=1)
        got = range_select(col, 100, 300, threads=threads)
        np.testing.assert_array_equal(got, serial)

    @pytest.mark.parametrize("threads", THREAD_SWEEP)
    def test_range_select_with_candidates(self, threads):
        rng = np.random.default_rng(12)
        col = Column("v", "float64", data=rng.uniform(0, 1000, 150_000))
        cands = np.flatnonzero(rng.random(150_000) < 0.5).astype(np.int64)
        serial = range_select(col, 100, 300, candidates=cands, threads=1)
        got = range_select(col, 100, 300, candidates=cands, threads=threads)
        np.testing.assert_array_equal(got, serial)

    @pytest.mark.parametrize("op", ["==", "!=", "<", "<=", ">", ">="])
    def test_theta_select_identical(self, op):
        rng = np.random.default_rng(13)
        col = Column("v", "int64", data=rng.integers(0, 50, 150_000))
        serial = theta_select(col, op, 25, threads=1)
        got = theta_select(col, op, 25, threads=8)
        np.testing.assert_array_equal(got, serial)


class TestExecutionLayer:
    def test_morsels_cover_exactly(self):
        spans = parallel.morsels(1_000_000, morsel_rows=4096)
        assert spans[0][0] == 0
        assert spans[-1][1] == 1_000_000
        for (a_start, a_stop), (b_start, b_stop) in zip(spans, spans[1:]):
            assert a_stop == b_start
            assert a_stop - a_start == 4096

    def test_morsels_alignment(self):
        spans = parallel.morsels(100, morsel_rows=30, align=8)
        for start, stop in spans[:-1]:
            assert start % 8 == 0 and stop % 8 == 0
        assert spans[-1][1] == 100

    def test_morsels_empty(self):
        assert parallel.morsels(0) == []

    def test_run_tasks_order_preserved(self):
        got = parallel.run_tasks(lambda i: i * i, list(range(100)), threads=8)
        assert got == [i * i for i in range(100)]

    def test_run_tasks_serial_path(self):
        got = parallel.run_tasks(lambda i: i + 1, [1, 2, 3], threads=1)
        assert got == [2, 3, 4]

    def test_run_tasks_propagates_errors(self):
        def boom(i):
            if i == 37:
                raise ValueError("morsel 37")
            return i

        with pytest.raises(ValueError, match="morsel 37"):
            parallel.run_tasks(boom, list(range(100)), threads=4)

    def test_resolve_threads(self):
        assert parallel.resolve_threads(1) == 1
        assert parallel.resolve_threads(7) == 7
        assert parallel.resolve_threads(None) >= 1
        assert parallel.resolve_threads(0) >= 1

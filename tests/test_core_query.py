"""Integration tests for the two-step SpatialSelect pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.imprints import ImprintsManager
from repro.core.query import SpatialSelect
from repro.engine.table import Table
from repro.gis.envelope import Box
from repro.gis.geometry import LineString, MultiPolygon, Polygon


def make_cloud(n=20_000, seed=0, extent=100.0):
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


@pytest.fixture(scope="module")
def cloud():
    return make_cloud()


@pytest.fixture(scope="module")
def select(cloud):
    return SpatialSelect(cloud)


POLY = Polygon([(10, 10), (40, 15), (35, 45), (12, 38)])


class TestBoxQueries:
    def test_box_query_exact_without_refinement(self, select):
        box = Box(20, 20, 30, 30)
        result = select.query(box)
        np.testing.assert_array_equal(result.oids, select.query_scan(box))
        # Box + contains short-circuits: no refinement work at all.
        assert result.stats.refine_stats.n_cells == 0
        assert result.stats.refine_seconds == 0.0

    def test_empty_region(self, select):
        result = select.query(Box(200, 200, 300, 300))
        assert len(result) == 0

    def test_full_region(self, select, cloud):
        result = select.query(Box(-10, -10, 110, 110))
        assert len(result) == len(cloud)


class TestPolygonQueries:
    def test_polygon_matches_scan(self, select):
        result = select.query(POLY)
        np.testing.assert_array_equal(result.oids, select.query_scan(POLY))
        assert result.stats.n_results == len(result)

    def test_polygon_without_grid_matches(self, select):
        with_grid = select.query(POLY)
        np.testing.assert_array_equal(with_grid.oids, select.query_scan(POLY))

    def test_polygon_without_imprints_matches(self, select):
        with_imp = select.query(POLY, use_imprints=True)
        without_imp = select.query(POLY, use_imprints=False)
        np.testing.assert_array_equal(with_imp.oids, without_imp.oids)

    def test_multipolygon(self, select):
        mp = MultiPolygon(
            [
                Polygon([(0, 0), (10, 0), (10, 10), (0, 10)]),
                Polygon([(50, 50), (60, 50), (60, 60), (50, 60)]),
            ]
        )
        result = select.query(mp)
        np.testing.assert_array_equal(result.oids, select.query_scan(mp))

    def test_donut_hole_excluded(self, select):
        donut = Polygon(
            [(10, 10), (50, 10), (50, 50), (10, 50)],
            holes=[[(20, 20), (40, 20), (40, 40), (20, 40)]],
        )
        result = select.query(donut)
        np.testing.assert_array_equal(result.oids, select.query_scan(donut))


class TestDWithinQueries:
    def test_dwithin_line_matches_scan(self, select):
        road = LineString([(0, 50), (50, 55), (100, 40)])
        result = select.query(road, "dwithin", distance=5.0)
        np.testing.assert_array_equal(
            result.oids, select.query_scan(road, "dwithin", 5.0)
        )

    def test_dwithin_envelope_expansion(self, select):
        # Points near but outside the line's envelope must still be found.
        road = LineString([(50, 50), (60, 50)])
        result = select.query(road, "dwithin", distance=10.0)
        scan = select.query_scan(road, "dwithin", 10.0)
        np.testing.assert_array_equal(result.oids, scan)
        assert len(result) > 0


class TestStats:
    def test_filter_counts(self, select, cloud):
        result = select.query(POLY)
        stats = result.stats
        assert stats.n_rows == len(cloud)
        assert stats.n_filter_candidates >= stats.n_results
        assert 0 < stats.filter_selectivity < 1
        assert stats.total_seconds >= 0

    def test_imprints_created_lazily(self, cloud):
        mgr = ImprintsManager()
        sel = SpatialSelect(cloud, manager=mgr)
        assert mgr.builds == 0
        # x-selective box: the cascade probes the x imprint first.
        sel.query(Box(10, 0, 11, 100))
        assert mgr.builds == 1
        assert mgr.get(cloud, "x") is not None
        # A y-selective box then lazily builds the y imprint too.
        sel.query(Box(0, 10, 100, 11))
        assert mgr.builds == 2

    def test_shared_manager_reused(self, cloud):
        mgr = ImprintsManager()
        sel_a = SpatialSelect(cloud, manager=mgr)
        sel_b = SpatialSelect(cloud, manager=mgr)
        sel_a.query(Box(10, 0, 11, 100))
        builds = mgr.builds
        sel_b.query(Box(20, 0, 21, 100))  # same axis: no rebuild
        assert mgr.builds == builds


class TestEdgeCases:
    def test_empty_table(self):
        table = Table("pts", [("x", "float64"), ("y", "float64")])
        sel = SpatialSelect(table)
        result = sel.query(Box(0, 0, 1, 1))
        assert len(result) == 0

    def test_append_then_query_sees_new_rows(self):
        table = make_cloud(n=1000, seed=1)
        sel = SpatialSelect(table)
        before = len(sel.query(Box(0, 0, 100, 100)))
        table.append_columns({"x": [50.0], "y": [50.0], "z": [0.0]})
        after = len(sel.query(Box(0, 0, 100, 100)))
        assert after == before + 1

    def test_custom_column_names(self):
        rng = np.random.default_rng(2)
        table = Table("pc", [("easting", "float64"), ("northing", "float64")])
        table.append_columns(
            {
                "easting": rng.uniform(0, 10, 500),
                "northing": rng.uniform(0, 10, 500),
            }
        )
        sel = SpatialSelect(table, x_column="easting", y_column="northing")
        result = sel.query(Box(2, 2, 5, 5))
        xs = table.column("easting").take(result.oids)
        ys = table.column("northing").take(result.oids)
        assert ((xs >= 2) & (xs <= 5) & (ys >= 2) & (ys <= 5)).all()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 2000),
    x0=st.floats(0, 80),
    y0=st.floats(0, 80),
    w=st.floats(1, 40),
    h=st.floats(1, 40),
)
def test_two_step_equals_brute_force(seed, n, x0, y0, w, h):
    """Headline invariant: the full pipeline (imprints + grid) returns
    exactly the brute-force result for random clouds and query polygons."""
    table = make_cloud(n=n, seed=seed)
    sel = SpatialSelect(table)
    poly = Polygon([(x0, y0), (x0 + w, y0), (x0 + w / 2, y0 + h)])
    result = sel.query(poly)
    np.testing.assert_array_equal(result.oids, sel.query_scan(poly))

"""Unit and property tests for the regular grid and the refinement step."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import RegularGrid
from repro.core.refine import refine, refine_exhaustive
from repro.gis import batch
from repro.gis.envelope import Box
from repro.gis.geometry import LineString, Polygon
from repro.gis.predicates import points_satisfy
from tests.ring_reference import points_in_polygon_reference


class TestRegularGrid:
    def test_cell_counts_near_target(self):
        grid = RegularGrid(Box(0, 0, 100, 100), target_cells=1024)
        assert 900 <= grid.n_cells <= 1200
        assert grid.nx == grid.ny  # square extent -> square grid

    def test_aspect_ratio_respected(self):
        grid = RegularGrid(Box(0, 0, 400, 100), target_cells=1024)
        assert grid.nx > grid.ny

    def test_degenerate_extent(self):
        grid = RegularGrid(Box(5, 5, 5, 5), target_cells=16)
        assert grid.n_cells >= 1
        assert grid.cell_ids(np.array([5.0]), np.array([5.0]))[0] >= 0

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            RegularGrid(Box(0, 0, 1, 1), target_cells=0)

    def test_cell_ids_in_range(self):
        grid = RegularGrid(Box(0, 0, 10, 10), target_cells=100)
        rng = np.random.default_rng(0)
        xs = rng.uniform(0, 10, 500)
        ys = rng.uniform(0, 10, 500)
        ids = grid.cell_ids(xs, ys)
        assert ids.min() >= 0 and ids.max() < grid.n_cells

    def test_boundary_points_clamp(self):
        grid = RegularGrid(Box(0, 0, 10, 10), target_cells=4)
        ids = grid.cell_ids(np.array([10.0]), np.array([10.0]))
        assert ids[0] == grid.n_cells - 1

    def test_cell_box_round_trip(self):
        grid = RegularGrid(Box(0, 0, 10, 10), target_cells=25)
        cids = np.arange(grid.n_cells)
        xmin, ymin, xmax, ymax = grid.cell_boxes(cids)
        centers = grid.cell_ids((xmin + xmax) / 2, (ymin + ymax) / 2)
        np.testing.assert_array_equal(centers, cids)


POLY = Polygon([(2, 2), (8, 3), (7, 8), (3, 7)])
DONUT = Polygon(
    [(0, 0), (10, 0), (10, 10), (0, 10)],
    holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]],
)


class TestRefine:
    def _points(self, n=3000, seed=0):
        rng = np.random.default_rng(seed)
        return rng.uniform(0, 10, n), rng.uniform(0, 10, n)

    def test_matches_exhaustive_polygon(self):
        xs, ys = self._points()
        want = points_in_polygon_reference(xs, ys, POLY)
        np.testing.assert_array_equal(refine(xs, ys, POLY)[0], want)
        np.testing.assert_array_equal(refine_exhaustive(xs, ys, POLY)[0], want)

    def test_matches_exhaustive_donut(self):
        xs, ys = self._points(seed=2)
        want = points_in_polygon_reference(xs, ys, DONUT)
        np.testing.assert_array_equal(refine(xs, ys, DONUT)[0], want)
        np.testing.assert_array_equal(refine_exhaustive(xs, ys, DONUT)[0], want)

    def test_matches_exhaustive_dwithin(self):
        xs, ys = self._points(seed=3)
        line = LineString([(0, 0), (10, 5), (5, 10)])
        got, _ = refine(xs, ys, line, "dwithin", distance=1.5)
        want, _ = refine_exhaustive(xs, ys, line, "dwithin", distance=1.5)
        np.testing.assert_array_equal(got, want)

    def test_empty_candidates(self):
        mask, stats = refine(np.empty(0), np.empty(0), POLY)
        assert mask.shape == (0,)
        assert stats.n_candidates == 0

    def test_grid_avoids_exact_tests(self):
        """The point of the grid: most points decided wholesale."""
        xs, ys = self._points(n=20_000)
        _, stats = refine(xs, ys, POLY, target_cells=1024)
        assert stats.exact_test_fraction < 0.5
        assert stats.points_accepted_wholesale > 0
        assert stats.inside_cells > 0
        assert stats.boundary_cells > 0

    def test_stats_account_for_every_point(self):
        xs, ys = self._points(n=5000, seed=5)
        _, stats = refine(xs, ys, DONUT)
        total = (
            stats.points_accepted_wholesale
            + stats.points_rejected_wholesale
            + stats.points_tested_exact
        )
        assert total == stats.n_candidates
        assert (
            stats.inside_cells + stats.outside_cells + stats.boundary_cells
            == stats.n_cells
        )

    @pytest.mark.parametrize(
        "geom, predicate, distance",
        [
            (POLY, "contains", 0.0),
            (DONUT, "contains", 0.0),
            (LineString([(0, 0), (10, 5), (5, 10)]), "dwithin", 1.5),
        ],
        ids=["polygon", "donut", "dwithin"],
    )
    def test_stats_match_per_cell_reference(self, geom, predicate, distance):
        """Every RefineStats count equals what grouping points by their
        non-empty cell and classifying each cell gives."""
        xs, ys = self._points(n=4000, seed=11)
        mask, stats = refine(xs, ys, geom, predicate, distance, target_cells=64)
        grid = RegularGrid(
            Box(xs.min(), ys.min(), xs.max(), ys.max()), target_cells=64
        )
        cells, inverse, members = np.unique(
            grid.cell_ids(xs, ys), return_inverse=True, return_counts=True
        )
        relations = batch.classify_boxes(
            grid.cell_boxes(cells), geom, predicate, distance
        )
        per_point = relations[inverse]
        assert stats.n_candidates == xs.shape[0]
        assert stats.n_cells == cells.shape[0]
        for relation, n_cells, n_points in (
            (batch.INSIDE, stats.inside_cells, stats.points_accepted_wholesale),
            (batch.OUTSIDE, stats.outside_cells, stats.points_rejected_wholesale),
            (batch.BOUNDARY, stats.boundary_cells, stats.points_tested_exact),
        ):
            assert n_cells == np.count_nonzero(relations == relation)
            assert n_points == members[relations == relation].sum()
            assert n_points == np.count_nonzero(per_point == relation)
        assert stats.inside_cells and stats.boundary_cells
        assert mask[per_point == batch.INSIDE].all()
        assert not mask[per_point == batch.OUTSIDE].any()

    def test_extent_override(self):
        xs, ys = self._points(n=100, seed=7)
        mask, _ = refine(xs, ys, POLY, extent=Box(0, 0, 10, 10))
        want, _ = refine_exhaustive(xs, ys, POLY)
        np.testing.assert_array_equal(mask, want)

    def test_point_within_edge_tolerance_of_a_cell_the_ring_misses(self):
        # The triangle's edge passes about 4e-16 right of x = 1 over
        # y in [3, 3.73], missing cell [0, 1] x [3, 4]; the exact test
        # counts (1 - 1e-16, 3.5) inside, as on that edge.
        angles = np.linspace(0, 2 * np.pi, 3, endpoint=False)
        radii = np.array([1.0, 2.0, 2.0])
        tri = Polygon(
            np.column_stack([2 + radii * np.cos(angles), 2 + radii * np.sin(angles)])
        )
        xs = np.array([1 - 1e-16, 0.5, 2.0, 6.5])
        ys = np.array([3.5, 3.5, 2.0, 6.5])
        mask, _ = refine(xs, ys, tri, extent=Box(0, 0, 7, 7), target_cells=49)
        want, _ = refine_exhaustive(xs, ys, tri)
        np.testing.assert_array_equal(want, [True, False, True, False])
        np.testing.assert_array_equal(mask, want)


@st.composite
def random_polygon(draw):
    """Star-shaped (possibly concave) polygon around a random centre."""
    n = draw(st.integers(3, 12))
    cx = draw(st.floats(2, 8))
    cy = draw(st.floats(2, 8))
    angles = np.linspace(0, 2 * np.pi, n, endpoint=False)
    radii = np.array([draw(st.floats(0.5, 4.0)) for _ in range(n)])
    xs = cx + radii * np.cos(angles)
    ys = cy + radii * np.sin(angles)
    return Polygon(np.column_stack([xs, ys]))


@settings(max_examples=50, deadline=None)
@given(
    poly=random_polygon(),
    seed=st.integers(0, 2**31),
    n=st.integers(1, 500),
    target_cells=st.sampled_from([1, 16, 256, 2048]),
)
def test_refine_equals_exhaustive_for_random_polygons(poly, seed, n, target_cells):
    """Grid refinement must be a pure optimisation: same answer as testing
    every point against every edge, for any polygon shape and any grid
    resolution."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0, 10, n)
    ys = rng.uniform(0, 10, n)
    got, _ = refine(xs, ys, poly, target_cells=target_cells)
    want = points_in_polygon_reference(xs, ys, poly)
    np.testing.assert_array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 300),
    distance=st.floats(0.1, 5.0),
)
def test_refine_dwithin_equals_exhaustive(seed, n, distance):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0, 10, n)
    ys = rng.uniform(0, 10, n)
    line = LineString([(1, 1), (9, 2), (5, 9)])
    got, _ = refine(xs, ys, line, "dwithin", distance)
    want = points_satisfy(xs, ys, line, "dwithin", distance)
    np.testing.assert_array_equal(got, want)

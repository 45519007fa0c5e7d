"""Property tests: batched cell classification == scalar classify_box."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gis import batch
from repro.gis.algorithms import points_in_polygon
from repro.gis.envelope import Box
from repro.gis.geometry import LineString, MultiPolygon, Point, Polygon
from repro.gis.predicates import CellRelation, classify_box

_REL_MAP = {
    CellRelation.OUTSIDE: batch.OUTSIDE,
    CellRelation.INSIDE: batch.INSIDE,
    CellRelation.BOUNDARY: batch.BOUNDARY,
}

DONUT = Polygon(
    [(0, 0), (10, 0), (10, 10), (0, 10)],
    holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]],
)


def _grid_boxes(x0, y0, cell, nx, ny):
    xs, ys = np.meshgrid(np.arange(nx), np.arange(ny))
    xmin = x0 + xs.ravel() * cell
    ymin = y0 + ys.ravel() * cell
    return (xmin, ymin, xmin + cell, ymin + cell)


def _scalar_reference(boxes, geom, predicate, distance):
    xmin, ymin, xmax, ymax = boxes
    out = np.empty(xmin.shape[0], dtype=np.int8)
    for i in range(xmin.shape[0]):
        rel = classify_box(
            Box(xmin[i], ymin[i], xmax[i], ymax[i]), geom, predicate, distance
        )
        out[i] = _REL_MAP[rel]
    return out


class TestAgainstScalar:
    @pytest.mark.parametrize(
        "geom,predicate,distance",
        [
            (Polygon([(2, 2), (8, 3), (7, 8), (3, 7)]), "contains", 0.0),
            (DONUT, "contains", 0.0),
            (Box(2, 2, 7, 7), "contains", 0.0),
            (
                MultiPolygon(
                    [
                        Polygon([(0, 0), (3, 0), (3, 3), (0, 3)]),
                        Polygon([(6, 6), (9, 6), (9, 9), (6, 9)]),
                    ]
                ),
                "contains",
                0.0,
            ),
            (LineString([(0, 0), (10, 5)]), "dwithin", 2.0),
            (Point(5, 5), "dwithin", 3.0),
            (Box(4, 4, 6, 6), "dwithin", 1.5),
            (DONUT, "dwithin", 1.0),
        ],
    )
    def test_grid_matches_scalar(self, geom, predicate, distance):
        boxes = _grid_boxes(-1.0, -1.0, 1.0, 13, 13)
        got = batch.classify_boxes(boxes, geom, predicate, distance)
        want = _scalar_reference(boxes, geom, predicate, distance)
        # INSIDE/OUTSIDE must agree exactly; a batched BOUNDARY where the
        # scalar says INSIDE/OUTSIDE (or vice versa) would be a bug too —
        # the kernels share their decision procedure.
        np.testing.assert_array_equal(got, want)

    def test_segment_box_intersection_touching(self):
        boxes = (
            np.array([0.0]),
            np.array([0.0]),
            np.array([1.0]),
            np.array([1.0]),
        )
        # Touching a corner counts.
        assert batch._segment_intersects_boxes(*boxes, 1.0, 1.0, 2.0, 2.0)[0]
        # Fully outside does not.
        assert not batch._segment_intersects_boxes(*boxes, 2.0, 2.0, 3.0, 2.0)[0]
        # Passing through does.
        assert batch._segment_intersects_boxes(*boxes, -1.0, 0.5, 2.0, 0.5)[0]
        # Parallel to an edge but outside the slab does not.
        assert not batch._segment_intersects_boxes(*boxes, -1.0, 2.0, 2.0, 2.0)[0]

    def test_unknown_predicate(self):
        boxes = _grid_boxes(0, 0, 1.0, 2, 2)
        with pytest.raises(ValueError):
            batch.classify_boxes(boxes, DONUT, "overlaps")

    def test_containment_needs_areal(self):
        boxes = _grid_boxes(0, 0, 1.0, 2, 2)
        with pytest.raises(TypeError):
            batch.classify_boxes(boxes, LineString([(0, 0), (1, 1)]), "contains")


def _star(cx, cy, radii):
    angles = np.linspace(0, 2 * np.pi, len(radii), endpoint=False)
    radii = np.asarray(radii, dtype=np.float64)
    return Polygon(
        np.column_stack([cx + radii * np.cos(angles), cy + radii * np.sin(angles)])
    )


@st.composite
def star_polygon(draw):
    n = draw(st.integers(3, 14))
    cx = draw(st.floats(2, 8))
    cy = draw(st.floats(2, 8))
    return _star(cx, cy, [draw(st.floats(0.5, 4.5)) for _ in range(n)])


def _probe_points(xmin, ymin, xmax, ymax):
    """The cell's four corners and a 5x5 lattice strictly inside it."""
    inner = (np.arange(5) + 0.5) / 5
    gx, gy = np.meshgrid(xmin + inner * (xmax - xmin), ymin + inner * (ymax - ymin))
    xs = np.concatenate([[xmin, xmax, xmin, xmax], gx.ravel()])
    ys = np.concatenate([[ymin, ymin, ymax, ymax], gy.ravel()])
    return xs, ys


@settings(max_examples=40, deadline=None)
@given(
    poly=star_polygon(),
    x0=st.floats(-2, 2),
    y0=st.floats(-2, 2),
    cell=st.floats(0.3, 3.0),
)
# The triangle's edge passes about 4e-16 right of cell 21, [0, 1] x [3, 4],
# and the exact test counts the cell's corner (1, 3) inside.
@example(poly=_star(2.0, 2.0, [1.0, 2.0, 2.0]), x0=0.0, y0=0.0, cell=1.0)
def test_batched_polygon_classification_matches_scalar(poly, x0, y0, cell):
    """Equal verdicts wherever the scalar kernel decides; where only it
    says BOUNDARY, the batched verdict must hold under the exact test on
    the cell's corners and interior lattice."""
    boxes = _grid_boxes(x0, y0, cell, 7, 7)
    got = batch.classify_boxes(boxes, poly)
    want = _scalar_reference(boxes, poly, "contains", 0.0)
    decided = want != batch.BOUNDARY
    np.testing.assert_array_equal(got[decided], want[decided])
    for i in np.flatnonzero(~decided & (got != batch.BOUNDARY)):
        xs, ys = _probe_points(*(side[i] for side in boxes))
        inside = points_in_polygon(xs, ys, poly)
        assert (inside == (got[i] == batch.INSIDE)).all()


@settings(max_examples=30, deadline=None)
@given(
    x0=st.floats(-2, 2),
    y0=st.floats(-2, 2),
    cell=st.floats(0.3, 2.0),
    distance=st.floats(0.1, 5.0),
)
def test_batched_dwithin_safe(x0, y0, cell, distance):
    """Batched dwithin INSIDE/OUTSIDE decisions must never contradict the
    exact point predicate (BOUNDARY is always safe)."""
    from repro.gis.predicates import points_satisfy

    line = LineString([(1, 1), (9, 3), (4, 9)])
    boxes = _grid_boxes(x0, y0, cell, 7, 7)
    relations = batch.classify_boxes(boxes, line, "dwithin", distance)
    rng = np.random.default_rng(0)
    xmin, ymin, xmax, ymax = boxes
    for i in range(xmin.shape[0]):
        if relations[i] == batch.BOUNDARY:
            continue
        px = rng.uniform(xmin[i], xmax[i], 8)
        py = rng.uniform(ymin[i], ymax[i], 8)
        mask = points_satisfy(px, py, line, "dwithin", distance)
        if relations[i] == batch.INSIDE:
            assert mask.all()
        else:
            assert not mask.any()

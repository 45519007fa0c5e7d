"""Unit and property tests for repro.gis.algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gis.algorithms import (
    _EPS,
    dist_points_to_geometry,
    dist_points_to_linestring,
    dist_points_to_polygon,
    dist_points_to_segment,
    linestrings_intersect,
    points_in_polygon,
    points_in_ring,
    ring_intersects_segment,
    segments_intersect,
)
from repro.gis.geometry import LineString, MultiLineString, MultiPolygon, Point, Polygon
from tests.ring_reference import points_in_ring_reference


SQUARE = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
DONUT = Polygon(
    [(0, 0), (10, 0), (10, 10), (0, 10)],
    holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]],
)


class TestPointsInRing:
    def test_inside_outside(self):
        xs = np.array([5.0, 15.0, -1.0])
        ys = np.array([5.0, 5.0, 5.0])
        np.testing.assert_array_equal(
            points_in_ring(xs, ys, SQUARE.shell), [True, False, False]
        )

    def test_boundary_counts_inside(self):
        xs = np.array([0.0, 10.0, 5.0, 0.0])
        ys = np.array([5.0, 10.0, 0.0, 0.0])
        assert points_in_ring(xs, ys, SQUARE.shell).all()

    def test_vertex_ray_degeneracy(self):
        # Ray through a polygon vertex must not double-count crossings.
        tri = Polygon([(0, 0), (4, 2), (0, 4)])
        xs = np.array([1.0, 5.0, -1.0])
        ys = np.array([2.0, 2.0, 2.0])
        got = points_in_ring(xs, ys, tri.shell)
        np.testing.assert_array_equal(got, [True, False, False])

    def test_concave_polygon(self):
        # A "U" shape: the notch is outside.
        u_shape = Polygon(
            [(0, 0), (10, 0), (10, 10), (7, 10), (7, 3), (3, 3), (3, 10), (0, 10)]
        )
        xs = np.array([5.0, 1.5, 8.5])
        ys = np.array([8.0, 8.0, 8.0])
        np.testing.assert_array_equal(
            points_in_ring(xs, ys, u_shape.shell), [False, True, True]
        )

    def test_zero_y_span_ring(self):
        # A flat ring has one band; points on it are on its edges.
        ring = np.array([(0.0, 5.0), (3.0, 5.0), (7.0, 5.0), (0.0, 5.0)])
        xs = np.array([1.0, 7.0, 8.0, 1.0, np.nan])
        ys = np.array([5.0, 5.0, 5.0, 5.5, 5.0])
        got = points_in_ring(xs, ys, ring)
        np.testing.assert_array_equal(got, [True, True, False, False, False])
        np.testing.assert_array_equal(
            got, points_in_ring_reference(xs, ys, ring)
        )


#: Vertex moves that make degenerate edges: copy the previous vertex's y
#: (horizontal edge), its x (vertical edge) or both (repeated vertex).
_TWEAKS = ("keep", "horizontal", "vertical", "repeat")


@st.composite
def star_ring(draw):
    """A closed star-shaped ring, possibly with horizontal, vertical and
    zero-length edges, around the origin or at RD magnitude (where
    ``_EPS`` is below one ulp of the coordinates)."""
    n = draw(st.integers(3, 16))
    cx, cy, size = draw(
        st.sampled_from([(5.0, 5.0, 4.0), (85_000.0, 445_000.0, 300.0)])
    )
    radii = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    tweaks = draw(st.lists(st.sampled_from(_TWEAKS), min_size=n, max_size=n))
    angles = np.linspace(0, 2 * np.pi, n, endpoint=False)
    xs = cx + size * radii * np.cos(angles)
    ys = cy + size * radii * np.sin(angles)
    for i in range(1, n):
        if tweaks[i] in ("horizontal", "repeat"):
            ys[i] = ys[i - 1]
        if tweaks[i] in ("vertical", "repeat"):
            xs[i] = xs[i - 1]
    if draw(st.integers(0, 3)) == 0:
        ys[:] = cy  # zero y-span
    ring = np.column_stack([xs, ys])
    return np.vstack([ring, ring[:1]])


def _knife_edge_points(ring, rng):
    """Vertices, edge midpoints, every y where the banded kernel cuts a
    band or an edge's span starts or stops (and the floats either side),
    random points around the ring, and non-finite coordinates."""
    a, b = ring[:-1], ring[1:]
    lo = np.minimum(a[:, 1], b[:, 1]) - _EPS
    hi = np.maximum(a[:, 1], b[:, 1]) + _EPS
    n_bands = min(4 * a.shape[0], 1024)
    cuts = lo.min() + (hi.max() - lo.min()) * np.arange(n_bands + 1) / n_bands
    knife = np.concatenate([cuts, lo, hi, ring[:, 1]])
    knife = np.concatenate(
        [knife, np.nextafter(knife, -np.inf), np.nextafter(knife, np.inf)]
    )
    pad = max(np.ptp(ring), 1.0) * 0.1
    x_lo, x_hi = ring[:, 0].min() - pad, ring[:, 0].max() + pad
    y_lo, y_hi = ring[:, 1].min() - pad, ring[:, 1].max() + pad
    knife_xs = rng.choice(
        np.concatenate([ring[:, 0], rng.uniform(x_lo, x_hi, 32)]), knife.shape[0]
    )
    mid_y = (y_lo + y_hi) / 2
    xs = np.concatenate(
        [
            ring[:, 0],
            (a[:, 0] + b[:, 0]) / 2,
            knife_xs,
            rng.uniform(x_lo, x_hi, 200),
            [x_lo, x_lo, x_lo, np.nan, np.inf, -np.inf],
        ]
    )
    ys = np.concatenate(
        [
            ring[:, 1],
            (a[:, 1] + b[:, 1]) / 2,
            knife,
            rng.uniform(y_lo, y_hi, 200),
            [np.nan, np.inf, -np.inf, mid_y, mid_y, mid_y],
        ]
    )
    return xs, ys


@settings(max_examples=120, deadline=None)
@given(ring=star_ring(), seed=st.integers(0, 2**32 - 1))
def test_banded_kernel_equals_per_edge_reference(ring, seed):
    """Skipping the edges a point's y-band cannot meet changes no bit of
    the answer, degenerate edges and knife-edge points included."""
    xs, ys = _knife_edge_points(ring, np.random.default_rng(seed))
    # The ±inf points make inf * 0 in the kernel's cross product; the
    # NaN it yields is the right verdict, so the warning is noise here.
    with np.errstate(invalid="ignore"):
        banded = points_in_ring(xs, ys, ring)
    np.testing.assert_array_equal(banded, points_in_ring_reference(xs, ys, ring))


class TestPointsInPolygon:
    def test_hole_excluded(self):
        xs = np.array([5.0, 2.0])
        ys = np.array([5.0, 2.0])
        np.testing.assert_array_equal(
            points_in_polygon(xs, ys, DONUT), [False, True]
        )

    def test_hole_boundary_is_inside(self):
        # OGC: the polygon is a closed set; hole edges belong to it.
        assert points_in_polygon(np.array([4.0]), np.array([5.0]), DONUT)[0]

    def test_multipolygon_union(self):
        mp = MultiPolygon(
            [
                Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]),
                Polygon([(5, 5), (6, 5), (6, 6), (5, 6)]),
            ]
        )
        from repro.gis.algorithms import points_in_multipolygon

        xs = np.array([0.5, 5.5, 3.0])
        ys = np.array([0.5, 5.5, 3.0])
        np.testing.assert_array_equal(
            points_in_multipolygon(xs, ys, mp), [True, True, False]
        )


class TestDistances:
    def test_point_to_segment(self):
        d = dist_points_to_segment(
            np.array([0.0, 5.0, 10.0]), np.array([3.0, 3.0, 4.0]), 0, 0, 10, 0
        )
        np.testing.assert_allclose(d, [3.0, 3.0, 4.0])

    def test_point_to_degenerate_segment(self):
        d = dist_points_to_segment(np.array([3.0]), np.array([4.0]), 0, 0, 0, 0)
        np.testing.assert_allclose(d, [5.0])

    def test_point_to_linestring(self):
        line = LineString([(0, 0), (10, 0), (10, 10)])
        d = dist_points_to_linestring(np.array([5.0, 12.0]), np.array([2.0, 5.0]), line)
        np.testing.assert_allclose(d, [2.0, 2.0])

    def test_point_to_polygon_interior_zero(self):
        d = dist_points_to_polygon(np.array([5.0, 12.0]), np.array([5.0, 5.0]), SQUARE)
        np.testing.assert_allclose(d, [0.0, 2.0])

    def test_point_in_hole_positive_distance(self):
        d = dist_points_to_polygon(np.array([5.0]), np.array([5.0]), DONUT)
        np.testing.assert_allclose(d, [1.0])

    def test_dispatch_point(self):
        d = dist_points_to_geometry(np.array([3.0]), np.array([4.0]), Point(0, 0))
        np.testing.assert_allclose(d, [5.0])

    def test_dispatch_multilinestring(self):
        ml = MultiLineString([[(0, 0), (10, 0)], [(0, 10), (10, 10)]])
        d = dist_points_to_geometry(np.array([5.0]), np.array([4.0]), ml)
        np.testing.assert_allclose(d, [4.0])

    def test_dispatch_unsupported(self):
        with pytest.raises(TypeError):
            dist_points_to_geometry(np.array([0.0]), np.array([0.0]), object())


class TestSegmentIntersection:
    def test_crossing(self):
        assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))

    def test_touching_endpoint(self):
        assert segments_intersect((0, 0), (1, 1), (1, 1), (2, 0))

    def test_collinear_overlap(self):
        assert segments_intersect((0, 0), (2, 0), (1, 0), (3, 0))

    def test_collinear_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (2, 0), (3, 0))

    def test_parallel(self):
        assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))

    def test_ring_intersects_segment(self):
        assert ring_intersects_segment(SQUARE.shell, (-1, 5), (11, 5))
        assert not ring_intersects_segment(SQUARE.shell, (2, 2), (3, 3))

    def test_linestrings_intersect(self):
        a = LineString([(0, 0), (10, 10)])
        b = LineString([(0, 10), (10, 0)])
        c = LineString([(20, 20), (30, 30)])
        assert linestrings_intersect(a, b)
        assert not linestrings_intersect(a, c)


@st.composite
def convex_polygon(draw):
    """Random convex polygon: evenly spaced angles with a random phase
    (guarantees >= 3 distinct vertices for any draw)."""
    n = draw(st.integers(3, 10))
    cx = draw(st.floats(-50, 50))
    cy = draw(st.floats(-50, 50))
    radius = draw(st.floats(1, 30))
    phase = draw(st.floats(0, 2 * np.pi))
    angles = (np.linspace(0, 2 * np.pi, n, endpoint=False) + phase) % (
        2 * np.pi
    )
    angles.sort()
    xs = cx + radius * np.cos(angles)
    ys = cy + radius * np.sin(angles)
    return Polygon(np.column_stack([xs, ys]))


@settings(max_examples=60, deadline=None)
@given(
    poly=convex_polygon(),
    px=st.floats(-100, 100),
    py=st.floats(-100, 100),
)
def test_point_in_convex_polygon_matches_halfplane_test(poly, px, py):
    """Ray casting must agree with the half-plane test on convex polygons."""
    got = points_in_polygon(np.array([px]), np.array([py]), poly)[0]
    ring = poly.shell
    signs = []
    for i in range(ring.shape[0] - 1):
        ax, ay = ring[i]
        bx, by = ring[i + 1]
        signs.append((bx - ax) * (py - ay) - (by - ay) * (px - ax))
    signs = np.array(signs)
    tol = 1e-9 * max(1.0, np.abs(ring).max()) ** 2
    expected = (signs >= -tol).all() or (signs <= tol).all()
    if np.abs(signs).min() > tol:  # skip near-boundary numerical knife edges
        assert got == expected


@settings(max_examples=60, deadline=None)
@given(
    px=st.floats(-20, 20),
    py=st.floats(-20, 20),
    ax=st.floats(-20, 20),
    ay=st.floats(-20, 20),
    bx=st.floats(-20, 20),
    by=st.floats(-20, 20),
)
def test_segment_distance_bounds(px, py, ax, ay, bx, by):
    """Distance to a segment is between distance-to-nearer-endpoint and 0,
    and never exceeds either endpoint distance."""
    d = dist_points_to_segment(np.array([px]), np.array([py]), ax, ay, bx, by)[0]
    d_a = np.hypot(px - ax, py - ay)
    d_b = np.hypot(px - bx, py - by)
    assert d <= min(d_a, d_b) + 1e-9
    assert d >= 0

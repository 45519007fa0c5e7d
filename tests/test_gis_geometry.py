"""Unit tests for repro.gis.envelope and repro.gis.geometry."""

import numpy as np
import pytest

from repro.gis.envelope import Box
from repro.gis.geometry import (
    GeometryError,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
)


class TestBox:
    def test_measures(self):
        b = Box(0, 0, 4, 2)
        assert b.width == 4 and b.height == 2
        assert b.area == 8
        assert b.center == (2, 1)

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            Box(1, 0, 0, 1)

    def test_point_box_allowed(self):
        b = Box(1, 1, 1, 1)
        assert b.area == 0
        assert b.contains_point(1, 1)

    def test_contains_point_boundary(self):
        b = Box(0, 0, 1, 1)
        assert b.contains_point(0, 0)
        assert b.contains_point(1, 1)
        assert not b.contains_point(1.0001, 0.5)

    def test_contains_box(self):
        assert Box(0, 0, 10, 10).contains_box(Box(1, 1, 2, 2))
        assert not Box(0, 0, 10, 10).contains_box(Box(5, 5, 11, 6))

    def test_intersects(self):
        assert Box(0, 0, 2, 2).intersects(Box(1, 1, 3, 3))
        assert Box(0, 0, 2, 2).intersects(Box(2, 2, 3, 3))  # touching counts
        assert not Box(0, 0, 2, 2).intersects(Box(3, 3, 4, 4))

    def test_intersection_and_union(self):
        a, b = Box(0, 0, 2, 2), Box(1, 1, 3, 3)
        assert a.union(b) == Box(0, 0, 3, 3)

    def test_expand(self):
        assert Box(1, 1, 2, 2).expand(1) == Box(0, 0, 3, 3)

    def test_min_distance_to_point(self):
        b = Box(0, 0, 2, 2)
        assert b.min_distance_to_point(1, 1) == 0
        assert b.min_distance_to_point(5, 1) == 3
        assert b.min_distance_to_point(5, 6) == 5  # 3-4-5 triangle


class TestPoint:
    def test_envelope(self):
        assert Point(1, 2).envelope == Box(1, 2, 1, 2)

    def test_wkt(self):
        assert Point(1, 2).wkt() == "POINT (1.0 2.0)"

    def test_nonfinite_raises(self):
        with pytest.raises(GeometryError):
            Point(float("nan"), 0)

    def test_equality_hash(self):
        assert Point(1, 2) == Point(1, 2)
        assert len({Point(1, 2), Point(1, 2)}) == 1


class TestLineString:
    def test_length(self):
        line = LineString([(0, 0), (3, 4), (3, 8)])
        assert line.length == 9.0

    def test_envelope(self):
        assert LineString([(0, 5), (2, 1)]).envelope == Box(0, 1, 2, 5)

    def test_too_few_points(self):
        with pytest.raises(GeometryError):
            LineString([(0, 0)])

    def test_multilinestring(self):
        ml = MultiLineString([[(0, 0), (1, 0)], [(0, 1), (1, 1)]])
        assert len(ml) == 2
        assert ml.length == 2.0
        assert ml.envelope == Box(0, 0, 1, 1)

    def test_empty_multilinestring_raises(self):
        with pytest.raises(GeometryError):
            MultiLineString([])


class TestPolygon:
    def test_auto_close(self):
        poly = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert poly.shell.shape == (5, 2)
        np.testing.assert_array_equal(poly.shell[0], poly.shell[-1])

    def test_area_square(self):
        assert Polygon([(0, 0), (4, 0), (4, 4), (0, 4)]).area == 16.0

    def test_area_with_hole(self):
        poly = Polygon(
            [(0, 0), (10, 0), (10, 10), (0, 10)],
            holes=[[(2, 2), (4, 2), (4, 4), (2, 4)]],
        )
        assert poly.area == 96.0

    def test_area_orientation_independent(self):
        ccw = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        cw = Polygon([(0, 4), (4, 4), (4, 0), (0, 0)])
        assert ccw.area == cw.area == 16.0

    def test_from_box(self):
        poly = Polygon.from_box(Box(0, 0, 2, 3))
        assert poly.area == 6.0
        assert poly.envelope == Box(0, 0, 2, 3)

    def test_degenerate_shell_raises(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (1, 1)])

    def test_multipolygon(self):
        mp = MultiPolygon(
            [
                Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]),
                Polygon([(5, 5), (7, 5), (7, 7), (5, 7)]),
            ]
        )
        assert len(mp) == 2
        assert mp.area == 5.0
        assert mp.envelope == Box(0, 0, 7, 7)


class TestMultiPoint:
    def test_basics(self):
        mp = MultiPoint([(0, 0), (2, 3)])
        assert len(mp) == 2
        assert mp.envelope == Box(0, 0, 2, 3)

"""OGC Simple Features geometry types (the subset the demo needs).

MonetDB exposes "an SQL interface to the Simple Features Access standard of
the Open Geospatial Consortium" (Section 3.3).  These classes are that
object model: Point, MultiPoint, LineString, MultiLineString, Polygon
(shell + holes), and MultiPolygon, each with an envelope, WKT output, and
the measures the demo queries use.  Predicate evaluation lives in
:mod:`repro.gis.algorithms` / :mod:`repro.gis.predicates`.

Vertices are stored as ``(n, 2)`` float64 numpy arrays so predicate kernels
can stay vectorised.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence

import numpy as np

from .envelope import Box


class GeometryError(ValueError):
    """Raised for malformed geometry inputs (too few vertices, open rings)."""


def _as_vertices(coords, min_points: int, what: str) -> np.ndarray:
    arr = np.asarray(coords, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GeometryError(f"{what} needs an (n, 2) coordinate array")
    if arr.shape[0] < min_points:
        raise GeometryError(f"{what} needs at least {min_points} points")
    if not np.isfinite(arr).all():
        raise GeometryError(f"{what} has non-finite coordinates")
    return arr


class Geometry:
    """Base class: everything has an envelope and a WKT form."""

    geom_type: str = "GEOMETRY"

    @property
    def envelope(self) -> Box:
        raise NotImplementedError

    def wkt(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        text = self.wkt()
        return text if len(text) < 80 else text[:77] + "..."


class Point(Geometry):
    """A single position."""

    geom_type = "POINT"
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        x, y = float(x), float(y)
        if not (np.isfinite(x) and np.isfinite(y)):
            raise GeometryError("point coordinates must be finite")
        self.x = x
        self.y = y

    @property
    def envelope(self) -> Box:
        return Box(self.x, self.y, self.x, self.y)

    def wkt(self) -> str:
        return f"POINT ({_fmt(self.x)} {_fmt(self.y)})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Point) and self.x == other.x and self.y == other.y
        )

    def __hash__(self) -> int:
        return hash((self.x, self.y))


class MultiPoint(Geometry):
    """A set of positions (vectorised as one array)."""

    geom_type = "MULTIPOINT"

    def __init__(self, coords) -> None:
        self.coords = _as_vertices(coords, 1, "MULTIPOINT")

    @property
    def envelope(self) -> Box:
        xs, ys = self.coords[:, 0], self.coords[:, 1]
        return Box(xs.min(), ys.min(), xs.max(), ys.max())

    def __len__(self) -> int:
        return self.coords.shape[0]

    def wkt(self) -> str:
        inner = ", ".join(f"({_fmt(x)} {_fmt(y)})" for x, y in self.coords)
        return f"MULTIPOINT ({inner})"


class LineString(Geometry):
    """An open polyline of >= 2 vertices."""

    geom_type = "LINESTRING"

    def __init__(self, coords) -> None:
        self.coords = _as_vertices(coords, 2, "LINESTRING")

    @property
    def envelope(self) -> Box:
        xs, ys = self.coords[:, 0], self.coords[:, 1]
        return Box(xs.min(), ys.min(), xs.max(), ys.max())

    @property
    def length(self) -> float:
        deltas = np.diff(self.coords, axis=0)
        return float(np.hypot(deltas[:, 0], deltas[:, 1]).sum())

    def __len__(self) -> int:
        return self.coords.shape[0]

    def wkt(self) -> str:
        return f"LINESTRING {_ring_wkt(self.coords)}"


class MultiLineString(Geometry):
    """A collection of polylines (a road or river network fragment)."""

    geom_type = "MULTILINESTRING"

    def __init__(self, lines: Iterable) -> None:
        self.lines: List[LineString] = [
            line if isinstance(line, LineString) else LineString(line)
            for line in lines
        ]
        if not self.lines:
            raise GeometryError("MULTILINESTRING needs at least one line")

    @property
    def envelope(self) -> Box:
        env = self.lines[0].envelope
        for line in self.lines[1:]:
            env = env.union(line.envelope)
        return env

    @property
    def length(self) -> float:
        return sum(line.length for line in self.lines)

    def __len__(self) -> int:
        return len(self.lines)

    def wkt(self) -> str:
        inner = ", ".join(_ring_wkt(line.coords) for line in self.lines)
        return f"MULTILINESTRING ({inner})"


class Polygon(Geometry):
    """A shell ring with optional hole rings.

    Rings are stored closed (first vertex == last vertex); an unclosed
    input ring is closed automatically.  The shell must have >= 3 distinct
    vertices.
    """

    geom_type = "POLYGON"

    def __init__(self, shell, holes: Sequence = ()) -> None:
        self.shell = _close_ring(_as_vertices(shell, 3, "POLYGON shell"))
        self.holes: List[np.ndarray] = [
            _close_ring(_as_vertices(h, 3, "POLYGON hole")) for h in holes
        ]

    @property
    def envelope(self) -> Box:
        xs, ys = self.shell[:, 0], self.shell[:, 1]
        return Box(xs.min(), ys.min(), xs.max(), ys.max())

    @property
    def rings(self) -> List[np.ndarray]:
        """Shell first, then holes — the iteration order of every kernel."""
        return [self.shell, *self.holes]

    @property
    def area(self) -> float:
        """Unsigned area: |shell| minus the holes (shoelace formula)."""
        total = abs(_signed_area(self.shell))
        for hole in self.holes:
            total -= abs(_signed_area(hole))
        return total

    def wkt(self) -> str:
        inner = ", ".join(_ring_wkt(r) for r in self.rings)
        return f"POLYGON ({inner})"

    @classmethod
    def from_box(cls, box: Box) -> "Polygon":
        """The rectangle polygon of an envelope."""
        return cls(list(box.corners) + [box.corners[0]])


def is_rectangle(geometry) -> bool:
    """Is ``geometry`` exactly its closed envelope?

    True for a :class:`Box`, and for a hole-free polygon whose closed ring
    has 5 vertices and 4 edges of non-zero length that alternate
    horizontal and vertical: ``Polygon.from_box``, and a rectangle's WKT
    from any start vertex in either orientation.  A slanted or repeated
    edge, a hole or a non-finite vertex makes it False.
    """
    if isinstance(geometry, Box):
        return True
    if not isinstance(geometry, Polygon) or geometry.holes or len(geometry.shell) != 5:
        return False
    ring = geometry.shell.tolist()  # plain floats: 5 vertices beat numpy calls
    if not all(math.isfinite(v) for vertex in ring for v in vertex):
        return False
    # Each edge's axis: 1 horizontal, 2 vertical, 3 slanted, 0 zero-length.
    axes = [(bx != ax) + 2 * (by != ay) for (ax, ay), (bx, by) in zip(ring, ring[1:])]
    return axes in ([1, 2, 1, 2], [2, 1, 2, 1])


class MultiPolygon(Geometry):
    """A collection of polygons (a land-use zone with detached parts)."""

    geom_type = "MULTIPOLYGON"

    def __init__(self, polygons: Iterable) -> None:
        self.polygons: List[Polygon] = [
            p if isinstance(p, Polygon) else Polygon(p) for p in polygons
        ]
        if not self.polygons:
            raise GeometryError("MULTIPOLYGON needs at least one polygon")

    @property
    def envelope(self) -> Box:
        env = self.polygons[0].envelope
        for poly in self.polygons[1:]:
            env = env.union(poly.envelope)
        return env

    @property
    def area(self) -> float:
        return sum(p.area for p in self.polygons)

    def __len__(self) -> int:
        return len(self.polygons)

    def wkt(self) -> str:
        inner = ", ".join(
            "(" + ", ".join(_ring_wkt(r) for r in p.rings) + ")"
            for p in self.polygons
        )
        return f"MULTIPOLYGON ({inner})"


# -- helpers ------------------------------------------------------------------


def _fmt(value: float) -> str:
    """Compact WKT number: drop trailing zeros but stay round-trippable."""
    return repr(float(value))


def _ring_wkt(coords: np.ndarray) -> str:
    return "(" + ", ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in coords) + ")"


def _close_ring(coords: np.ndarray) -> np.ndarray:
    if not np.array_equal(coords[0], coords[-1]):
        coords = np.vstack([coords, coords[0]])
    if coords.shape[0] < 4:  # triangle = 3 distinct + closing vertex
        raise GeometryError("a ring needs at least 3 distinct vertices")
    return coords


def _signed_area(ring: np.ndarray) -> float:
    """Shoelace signed area of a closed ring (positive = CCW)."""
    x, y = ring[:-1, 0], ring[:-1, 1]
    xn, yn = ring[1:, 0], ring[1:, 1]
    return float(0.5 * np.sum(x * yn - xn * y))

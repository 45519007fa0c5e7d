"""Computational-geometry kernels, vectorised over point arrays.

These are the exact predicates run during the *refinement* step (Section
3.3): once the imprints filter and the regular grid have narrowed a query
to boundary-cell points, every surviving point is tested here, in one
call over ``(xs, ys)`` numpy arrays.  The point-in-ring test buckets the
points by y-band, so each point meets only the edges its y can reach.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .geometry import LineString, MultiLineString, MultiPolygon, Point, Polygon

_EPS = 1e-12


# -- point in ring / polygon --------------------------------------------------


def points_in_ring(xs: np.ndarray, ys: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Crossing-number (ray casting) test against one closed ring.

    Boundary points count as inside (closed-set semantics, matching the
    OGC ``ST_Contains`` behaviour the demo queries rely on for points on
    region edges).

    A point can be on an edge or cross its +x ray only if its y is in the
    edge's y-span ± ``_EPS``.  Points are ordered by y-band (a monotone
    function of y) and each edge runs over the bands its span covers, so
    the answer is bit-identical to testing every edge.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    result = np.zeros(xs.shape[0], dtype=bool)
    x1, y1 = ring[:-1, 0], ring[:-1, 1]
    x2, y2 = ring[1:, 0], ring[1:, 1]
    lo = np.minimum(y1, y2) - _EPS
    hi = np.maximum(y1, y2) + _EPS
    y_lo, y_hi = lo.min(), hi.max()
    live = np.flatnonzero((y_lo <= ys) & (ys <= y_hi))
    n_bands = min(4 * lo.shape[0], 1024)
    with np.errstate(divide="ignore", over="ignore"):
        scale = n_bands / (y_hi - y_lo)
    if not 0.0 < scale < np.inf:  # zero or overflowing y-span: one band
        n_bands, scale, y_lo = 1, 0.0, 0.0  # every finite value -> band 0

    def band(v: np.ndarray) -> np.ndarray:
        return np.clip((v - y_lo) * scale, 0, n_bands - 1).astype(np.int16)

    bands = band(ys[live])
    order = live[np.argsort(bands, kind="stable")]  # int16: a radix sort
    starts = np.zeros(n_bands + 1, dtype=np.intp)
    np.cumsum(np.bincount(bands, minlength=n_bands), out=starts[1:])
    px, py = xs[order], ys[order]
    inside = np.zeros(order.shape[0], dtype=bool)
    on_edge = np.zeros(order.shape[0], dtype=bool)
    spans = zip(x1, y1, x2, y2, starts[band(lo)], starts[band(hi) + 1])
    for ax, ay, bx, by, s, t in spans:
        if s == t:
            continue
        sx, sy = px[s:t], py[s:t]
        dy = sy - ay
        # Edge-inclusion: collinear and within the segment's bbox.
        cross = (bx - ax) * dy - (by - ay) * (sx - ax)
        collinear = np.abs(cross) <= _EPS * max(
            1.0, abs(bx - ax) + abs(by - ay)
        )
        if collinear.any():
            on_edge[s:t] |= collinear & (
                (np.minimum(ax, bx) - _EPS <= sx)
                & (sx <= np.maximum(ax, bx) + _EPS)
                & (np.minimum(ay, by) - _EPS <= sy)
                & (sy <= np.maximum(ay, by) + _EPS)
            )
        # Crossing number: does a ray to +x cross this edge?
        crosses = (ay > sy) != (by > sy)
        if not crosses.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            x_at = ax + dy * (bx - ax) / (by - ay)
        inside[s:t] ^= crosses & (sx < x_at)
    result[order] = inside | on_edge
    return result


def points_in_polygon(
    xs: np.ndarray, ys: np.ndarray, polygon: Polygon
) -> np.ndarray:
    """Inside the shell and outside every hole (holes keep their boundary:
    a point on a hole edge is still on the polygon)."""
    result = points_in_ring(xs, ys, polygon.shell)
    for hole in polygon.holes:
        in_hole = points_in_ring(xs, ys, hole)
        on_hole_edge = points_on_ring_boundary(xs, ys, hole)
        result &= ~(in_hole & ~on_hole_edge)
    return result


def points_on_ring_boundary(
    xs: np.ndarray, ys: np.ndarray, ring: np.ndarray
) -> np.ndarray:
    """Points lying (within eps) on the ring's edges."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    on_edge = np.zeros(xs.shape[0], dtype=bool)
    for i in range(ring.shape[0] - 1):
        ax, ay = ring[i]
        bx, by = ring[i + 1]
        on_edge |= dist_points_to_segment(xs, ys, ax, ay, bx, by) <= _EPS
    return on_edge


def points_in_multipolygon(
    xs: np.ndarray, ys: np.ndarray, multi: MultiPolygon
) -> np.ndarray:
    result = np.zeros(np.asarray(xs).shape[0], dtype=bool)
    for poly in multi.polygons:
        result |= points_in_polygon(xs, ys, poly)
    return result


# -- distances ---------------------------------------------------------------


def dist_points_to_segment(
    xs: np.ndarray, ys: np.ndarray, ax: float, ay: float, bx: float, by: float
) -> np.ndarray:
    """Euclidean distance from each point to segment (a, b) (vectorised)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    dx, dy = bx - ax, by - ay
    seg_len2 = dx * dx + dy * dy
    if seg_len2 <= _EPS * _EPS:
        return np.hypot(xs - ax, ys - ay)
    t = ((xs - ax) * dx + (ys - ay) * dy) / seg_len2
    t = np.clip(t, 0.0, 1.0)
    return np.hypot(xs - (ax + t * dx), ys - (ay + t * dy))


def dist_points_to_linestring(
    xs: np.ndarray, ys: np.ndarray, line: LineString
) -> np.ndarray:
    """Min distance from each point to any segment of the polyline."""
    return dist_points_to_ring(xs, ys, line.coords)


def dist_points_to_ring(xs: np.ndarray, ys: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Min distance from each point to the edges of a ring (or of any
    vertex path: a polyline's coordinates)."""
    best = None
    for i in range(ring.shape[0] - 1):
        d = dist_points_to_segment(
            xs, ys, ring[i, 0], ring[i, 1], ring[i + 1, 0], ring[i + 1, 1]
        )
        best = d if best is None else np.minimum(best, d)
    return best


def dist_points_to_polygon(
    xs: np.ndarray, ys: np.ndarray, polygon: Polygon
) -> np.ndarray:
    """Distance to the polygon as a filled region: 0 for interior points."""
    d = dist_points_to_ring(xs, ys, polygon.shell)
    for hole in polygon.holes:
        np.minimum(d, dist_points_to_ring(xs, ys, hole), out=d)
    inside = points_in_polygon(xs, ys, polygon)
    d = np.asarray(d)
    d[inside] = 0.0
    return d


def dist_points_to_geometry(xs: np.ndarray, ys: np.ndarray, geom) -> np.ndarray:
    """Distance from each point to any supported geometry."""
    if isinstance(geom, Point):
        return np.hypot(np.asarray(xs) - geom.x, np.asarray(ys) - geom.y)
    if isinstance(geom, LineString):
        return dist_points_to_linestring(xs, ys, geom)
    if isinstance(geom, MultiLineString):
        best = dist_points_to_linestring(xs, ys, geom.lines[0])
        for line in geom.lines[1:]:
            np.minimum(best, dist_points_to_linestring(xs, ys, line), out=best)
        return best
    if isinstance(geom, Polygon):
        return dist_points_to_polygon(xs, ys, geom)
    if isinstance(geom, MultiPolygon):
        best = dist_points_to_polygon(xs, ys, geom.polygons[0])
        for poly in geom.polygons[1:]:
            np.minimum(best, dist_points_to_polygon(xs, ys, poly), out=best)
        return best
    raise TypeError(f"unsupported geometry for distance: {type(geom).__name__}")


# -- segment intersection ------------------------------------------------------


def segments_intersect(
    p1: Tuple[float, float],
    p2: Tuple[float, float],
    q1: Tuple[float, float],
    q2: Tuple[float, float],
) -> bool:
    """Do closed segments (p1, p2) and (q1, q2) intersect (incl. touching)?"""

    def orient(a, b, c) -> float:
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def on_segment(a, b, c) -> bool:
        return (
            min(a[0], b[0]) - _EPS <= c[0] <= max(a[0], b[0]) + _EPS
            and min(a[1], b[1]) - _EPS <= c[1] <= max(a[1], b[1]) + _EPS
        )

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0:
        return True
    if abs(d1) <= _EPS and on_segment(q1, q2, p1):
        return True
    if abs(d2) <= _EPS and on_segment(q1, q2, p2):
        return True
    if abs(d3) <= _EPS and on_segment(p1, p2, q1):
        return True
    if abs(d4) <= _EPS and on_segment(p1, p2, q2):
        return True
    return False


def ring_intersects_segment(
    ring: np.ndarray, a: Tuple[float, float], b: Tuple[float, float]
) -> bool:
    """Does any ring edge intersect segment (a, b)?"""
    for i in range(ring.shape[0] - 1):
        if segments_intersect(tuple(ring[i]), tuple(ring[i + 1]), a, b):
            return True
    return False


def simplify_coords(coords: np.ndarray, tolerance: float) -> np.ndarray:
    """Douglas-Peucker polyline simplification.

    Keeps the subset of vertices such that every dropped vertex lies
    within ``tolerance`` of the simplified line.  Endpoints always
    survive; closed rings keep their closure.  Used to thin dense
    geometries before rendering or repeated predicate evaluation.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    n = coords.shape[0]
    if n <= 2:
        return coords.copy()
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[-1] = True
    # Iterative stack instead of recursion (rings can be long).
    stack = [(0, n - 1)]
    while stack:
        start, end = stack.pop()
        if end - start < 2:
            continue
        segment = coords[start + 1 : end]
        d = dist_points_to_segment(
            segment[:, 0],
            segment[:, 1],
            coords[start, 0],
            coords[start, 1],
            coords[end, 0],
            coords[end, 1],
        )
        worst = int(np.argmax(d))
        if d[worst] > tolerance:
            split = start + 1 + worst
            keep[split] = True
            stack.append((start, split))
            stack.append((split, end))
    return coords[keep]


def simplify(geom, tolerance: float):
    """Douglas-Peucker simplification of a line or polygon geometry.

    Polygon rings that would collapse below 3 distinct vertices are kept
    unsimplified (validity beats thinning).
    """
    if isinstance(geom, LineString):
        return LineString(simplify_coords(geom.coords, tolerance))
    if isinstance(geom, MultiLineString):
        return MultiLineString(
            [simplify_coords(line.coords, tolerance) for line in geom.lines]
        )
    if isinstance(geom, Polygon):
        def ring_or_original(ring: np.ndarray) -> np.ndarray:
            slim = simplify_coords(ring, tolerance)
            return slim if slim.shape[0] >= 4 else ring

        return Polygon(
            ring_or_original(geom.shell),
            holes=[ring_or_original(h) for h in geom.holes],
        )
    if isinstance(geom, MultiPolygon):
        return MultiPolygon([simplify(p, tolerance) for p in geom.polygons])
    raise TypeError(f"cannot simplify {type(geom).__name__}")


def linestrings_intersect(line_a: LineString, line_b: LineString) -> bool:
    """Segment-pairwise intersection with an envelope short-circuit."""
    if not line_a.envelope.intersects(line_b.envelope):
        return False
    ca, cb = line_a.coords, line_b.coords
    for i in range(ca.shape[0] - 1):
        for j in range(cb.shape[0] - 1):
            if segments_intersect(
                tuple(ca[i]), tuple(ca[i + 1]), tuple(cb[j]), tuple(cb[j + 1])
            ):
                return True
    return False

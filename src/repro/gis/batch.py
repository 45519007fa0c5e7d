"""Vectorised cell classification: many grid cells vs one geometry.

The refinement step classifies every non-empty grid cell against the
query geometry (Section 3.3).  Doing that cell-by-cell in Python costs
more than the point tests it saves, so this module provides the batched
kernels: arrays of cell rectangles in, an int8 relation array out
(0 = outside, 1 = inside, 2 = boundary).  Semantics match
:func:`repro.gis.predicates.classify_box` exactly — INSIDE/OUTSIDE are
exact, BOUNDARY is the conservative fallback.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .algorithms import dist_points_to_segment, points_in_polygon
from .envelope import Box
from .geometry import LineString, MultiLineString, MultiPolygon, Point, Polygon

OUTSIDE = np.int8(0)
INSIDE = np.int8(1)
BOUNDARY = np.int8(2)

BoxArrays = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _segment_intersects_boxes(
    xmin: np.ndarray,
    ymin: np.ndarray,
    xmax: np.ndarray,
    ymax: np.ndarray,
    ax: float,
    ay: float,
    bx: float,
    by: float,
) -> np.ndarray:
    """Liang-Barsky clip test of one segment against many boxes.

    Touching counts as intersecting (closed boxes), matching
    :func:`repro.gis.algorithms.segments_intersect` semantics.
    """
    dx = bx - ax
    dy = by - ay
    n = xmin.shape[0]
    t0 = np.zeros(n)
    t1 = np.ones(n)
    alive = np.ones(n, dtype=bool)
    for p, q in (
        (-dx, ax - xmin),
        (dx, xmax - ax),
        (-dy, ay - ymin),
        (dy, ymax - ay),
    ):
        if isinstance(p, float) and p == 0.0:
            # Parallel to this boundary: reject boxes the line is outside of.
            alive &= q >= 0
            continue
        t = q / p
        if p < 0:
            t0 = np.maximum(t0, t)
        else:
            t1 = np.minimum(t1, t)
    return alive & (t0 <= t1)


def _boxes_min_dist_to_segment(
    xmin, ymin, xmax, ymax, ax: float, ay: float, bx: float, by: float
) -> np.ndarray:
    """Exact min distance from each solid box to one segment."""
    intersects = _segment_intersects_boxes(xmin, ymin, xmax, ymax, ax, ay, bx, by)
    # Corner-to-segment distances.
    best = None
    for cx, cy in ((xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)):
        d = dist_points_to_segment(cx, cy, ax, ay, bx, by)
        best = d if best is None else np.minimum(best, d)
    # Endpoint-to-box distances.
    for px, py in ((ax, ay), (bx, by)):
        ex = np.maximum(np.maximum(xmin - px, 0.0), px - xmax)
        ey = np.maximum(np.maximum(ymin - py, 0.0), py - ymax)
        best = np.minimum(best, np.hypot(ex, ey))
    best[intersects] = 0.0
    return best


def _ring_crosses_boxes(boxes: BoxArrays, ring: np.ndarray) -> np.ndarray:
    xmin, ymin, xmax, ymax = boxes
    crosses = np.zeros(xmin.shape[0], dtype=bool)
    for i in range(ring.shape[0] - 1):
        if crosses.all():
            break
        crosses |= _segment_intersects_boxes(
            xmin, ymin, xmax, ymax, ring[i, 0], ring[i, 1], ring[i + 1, 0], ring[i + 1, 1]
        )
    return crosses


def _vertices_strictly_inside(boxes: BoxArrays, ring: np.ndarray) -> np.ndarray:
    """Boxes holding at least one ring vertex strictly inside."""
    xmin, ymin, xmax, ymax = boxes
    hit = np.zeros(xmin.shape[0], dtype=bool)
    for vx, vy in ring[:-1]:
        hit |= (xmin < vx) & (vx < xmax) & (ymin < vy) & (vy < ymax)
    return hit


def classify_boxes_vs_polygon(boxes: BoxArrays, polygon: Polygon) -> np.ndarray:
    """Vectorised :func:`classify_box_vs_polygon` over box arrays."""
    xmin, ymin, xmax, ymax = boxes
    n = xmin.shape[0]
    relations = np.full(n, OUTSIDE, dtype=np.int8)

    env = polygon.envelope
    touching = ~(
        (xmin > env.xmax) | (xmax < env.xmin) | (ymin > env.ymax) | (ymax < env.ymin)
    )
    if not touching.any():
        return relations

    boundary = np.zeros(n, dtype=bool)
    near = tuple(arr[touching] for arr in boxes)
    for ring in polygon.rings:
        boundary[touching] |= _ring_crosses_boxes(near, ring)
        boundary[touching] |= _vertices_strictly_inside(near, ring)

    undecided = touching & ~boundary
    if undecided.any():
        cx = (xmin[undecided] + xmax[undecided]) / 2
        cy = (ymin[undecided] + ymax[undecided]) / 2
        inside = points_in_polygon(cx, cy, polygon)
        idx = np.flatnonzero(undecided)
        relations[idx[inside]] = INSIDE
    relations[boundary] = BOUNDARY
    return relations


def classify_boxes_vs_box(boxes: BoxArrays, query: Box) -> np.ndarray:
    xmin, ymin, xmax, ymax = boxes
    n = xmin.shape[0]
    relations = np.full(n, BOUNDARY, dtype=np.int8)
    outside = (
        (xmin > query.xmax)
        | (xmax < query.xmin)
        | (ymin > query.ymax)
        | (ymax < query.ymin)
    )
    inside = (
        (xmin >= query.xmin)
        & (xmax <= query.xmax)
        & (ymin >= query.ymin)
        & (ymax <= query.ymax)
    )
    relations[outside] = OUTSIDE
    relations[inside] = INSIDE
    return relations


def _geometry_segments(geom):
    """All segments of a line/polygon geometry as (ax, ay, bx, by) tuples."""
    if isinstance(geom, LineString):
        rings = [geom.coords]
    elif isinstance(geom, MultiLineString):
        rings = [line.coords for line in geom.lines]
    elif isinstance(geom, Polygon):
        rings = geom.rings
    elif isinstance(geom, MultiPolygon):
        rings = [ring for poly in geom.polygons for ring in poly.rings]
    else:
        raise TypeError(f"no segments for {type(geom).__name__}")
    for coords in rings:
        for i in range(coords.shape[0] - 1):
            yield (
                float(coords[i, 0]),
                float(coords[i, 1]),
                float(coords[i + 1, 0]),
                float(coords[i + 1, 1]),
            )


def classify_boxes_dwithin(boxes: BoxArrays, geom, distance: float) -> np.ndarray:
    """Vectorised :func:`classify_box_dwithin` over box arrays."""
    from .algorithms import dist_points_to_geometry

    xmin, ymin, xmax, ymax = boxes
    n = xmin.shape[0]

    if isinstance(geom, Point):
        dmin_x = np.maximum(np.maximum(xmin - geom.x, 0.0), geom.x - xmax)
        dmin_y = np.maximum(np.maximum(ymin - geom.y, 0.0), geom.y - ymax)
        dmin = np.hypot(dmin_x, dmin_y)
    elif isinstance(geom, Box):
        dx = np.maximum(np.maximum(geom.xmin - xmax, xmin - geom.xmax), 0.0)
        dy = np.maximum(np.maximum(geom.ymin - ymax, ymin - geom.ymax), 0.0)
        dmin = np.hypot(dx, dy)
    else:
        dmin = None
        for ax, ay, bx, by in _geometry_segments(geom):
            d = _boxes_min_dist_to_segment(xmin, ymin, xmax, ymax, ax, ay, bx, by)
            dmin = d if dmin is None else np.minimum(dmin, d)
        if isinstance(geom, (Polygon, MultiPolygon)):
            # Boxes overlapping the polygon region are at distance 0.
            polys = geom.polygons if isinstance(geom, MultiPolygon) else [geom]
            overlap = np.zeros(n, dtype=bool)
            for poly in polys:
                overlap |= classify_boxes_vs_polygon(boxes, poly) != OUTSIDE
            dmin[overlap] = 0.0

    relations = np.full(n, BOUNDARY, dtype=np.int8)
    relations[dmin > distance] = OUTSIDE

    # Lipschitz INSIDE bound via the centre distance.
    cx = (xmin + xmax) / 2
    cy = (ymin + ymax) / 2
    half_diag = 0.5 * np.hypot(xmax - xmin, ymax - ymin)
    if isinstance(geom, Box):
        ex = np.maximum(np.maximum(geom.xmin - cx, 0.0), cx - geom.xmax)
        ey = np.maximum(np.maximum(geom.ymin - cy, 0.0), cy - geom.ymax)
        center_dist = np.hypot(ex, ey)
    else:
        center_dist = dist_points_to_geometry(cx, cy, geom)
    inside = center_dist + half_diag <= distance
    relations[inside] = INSIDE
    return relations


def classify_boxes(
    boxes: BoxArrays,
    geom,
    predicate: str = "contains",
    distance: float = 0.0,
) -> np.ndarray:
    """Batched cell classification for any supported predicate.

    ``boxes`` is the tuple ``(xmin, ymin, xmax, ymax)`` of equal-length
    arrays.  Returns int8 relations (module constants OUTSIDE / INSIDE /
    BOUNDARY).
    """
    if predicate in ("contains", "intersects", "within"):
        if isinstance(geom, Box):
            return classify_boxes_vs_box(boxes, geom)
        if isinstance(geom, Polygon):
            return classify_boxes_vs_polygon(boxes, geom)
        if isinstance(geom, MultiPolygon):
            n = boxes[0].shape[0]
            combined = np.full(n, OUTSIDE, dtype=np.int8)
            for poly in geom.polygons:
                rel = classify_boxes_vs_polygon(boxes, poly)
                combined = np.where(rel == INSIDE, INSIDE, combined)
                combined = np.where(
                    (rel == BOUNDARY) & (combined != INSIDE), BOUNDARY, combined
                )
            return combined
        raise TypeError(
            f"containment needs an areal geometry, got {type(geom).__name__}"
        )
    if predicate == "dwithin":
        return classify_boxes_dwithin(boxes, geom, distance)
    raise ValueError(f"unknown spatial predicate {predicate!r}")

"""Reference point-in-ring kernel for parity tests.

This is the straightforward per-edge crossing-number loop: every point
is tested against every edge of the ring.  The production kernel in
:func:`repro.gis.algorithms.points_in_ring` skips (point, edge) pairs
whose y cannot meet the edge; tests require it to equal this loop bit
for bit.  Test-only: nothing under ``src/`` may import it.
"""

from __future__ import annotations

import numpy as np

from repro.gis.algorithms import _EPS, points_on_ring_boundary
from repro.gis.geometry import Polygon


def points_in_ring_reference(
    xs: np.ndarray, ys: np.ndarray, ring: np.ndarray
) -> np.ndarray:
    """Closed-set ray casting against one ring, every edge for every point."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    inside = np.zeros(xs.shape[0], dtype=bool)
    on_edge = np.zeros(xs.shape[0], dtype=bool)
    x1, y1 = ring[:-1, 0], ring[:-1, 1]
    x2, y2 = ring[1:, 0], ring[1:, 1]
    for ax, ay, bx, by in zip(x1, y1, x2, y2):
        # Edge-inclusion: collinear and within the segment's bbox.  An
        # infinite coordinate times a zero edge extent is NaN: not
        # collinear, which is the answer wanted.
        with np.errstate(invalid="ignore"):
            cross = (bx - ax) * (ys - ay) - (by - ay) * (xs - ax)
        collinear = np.abs(cross) <= _EPS * max(
            1.0, abs(bx - ax) + abs(by - ay)
        )
        within = (
            (np.minimum(ax, bx) - _EPS <= xs)
            & (xs <= np.maximum(ax, bx) + _EPS)
            & (np.minimum(ay, by) - _EPS <= ys)
            & (ys <= np.maximum(ay, by) + _EPS)
        )
        on_edge |= collinear & within
        # Crossing number: does a ray to +x cross this edge?
        crosses = (ay > ys) != (by > ys)
        if not crosses.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            x_at = ax + (ys - ay) * (bx - ax) / (by - ay)
        inside ^= crosses & (xs < x_at)
    return inside | on_edge


def points_in_polygon_reference(
    xs: np.ndarray, ys: np.ndarray, polygon: Polygon
) -> np.ndarray:
    """:func:`repro.gis.algorithms.points_in_polygon` on the reference
    ring kernel (hole edges still belong to the polygon)."""
    result = points_in_ring_reference(xs, ys, polygon.shell)
    for hole in polygon.holes:
        in_hole = points_in_ring_reference(xs, ys, hole)
        result &= ~(in_hole & ~points_on_ring_boundary(xs, ys, hole))
    return result

"""Benchmark workloads: the van Oosterom-style spatial query set.

The demo's performance comparisons (Section 4.1) follow the massive
point-cloud benchmark of [18]: rectangles, circles and irregular polygons
of increasing size over AHN2 subsets, plus the Scenario-2 spatio-thematic
queries (Section 4.2).  :func:`standard_queries` reproduces that query
mix, parameterised by the dataset extent so the same specs run at any
scale factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..gis.envelope import Box
from ..gis.geometry import LineString, Polygon


@dataclass(frozen=True)
class QuerySpec:
    """One benchmark query: a geometry plus the predicate to evaluate."""

    name: str
    geometry: object
    predicate: str = "contains"
    distance: float = 0.0


def circle_polygon(cx: float, cy: float, radius: float, segments: int = 32) -> Polygon:
    """A regular polygon approximating a circle (benchmark query type 3
    of [18]; exact circles are not part of Simple Features polygons)."""
    angles = np.linspace(0, 2 * np.pi, segments, endpoint=False)
    return Polygon(
        np.column_stack([cx + radius * np.cos(angles), cy + radius * np.sin(angles)])
    )


def irregular_polygon(
    cx: float, cy: float, scale: float, seed: int = 0, vertices: int = 11
) -> Polygon:
    """A star-convex irregular polygon (the 'province boundary' stand-in)."""
    rng = np.random.default_rng(seed)
    angles = np.linspace(0, 2 * np.pi, vertices, endpoint=False)
    radii = scale * rng.uniform(0.35, 1.0, vertices)
    return Polygon(
        np.column_stack([cx + radii * np.cos(angles), cy + radii * np.sin(angles)])
    )


def standard_queries(extent: Box, seed: int = 0) -> List[QuerySpec]:
    """The benchmark query set over a dataset extent.

    Three sizes (~0.01%, ~1%, ~25% of the extent area) for the rectangle
    family, plus a circle, two irregular polygons, and two ``dwithin``
    corridor queries (the road-buffer shape from Scenario 2).
    """
    cx, cy = extent.center
    w, h = extent.width, extent.height

    def rect(fraction: float, name: str) -> QuerySpec:
        half_w = w * (fraction**0.5) / 2
        half_h = h * (fraction**0.5) / 2
        return QuerySpec(
            name=name,
            geometry=Box(cx - half_w, cy - half_h, cx + half_w, cy + half_h),
        )

    diag = LineString(
        [
            (extent.xmin + 0.1 * w, extent.ymin + 0.2 * h),
            (cx, cy),
            (extent.xmax - 0.1 * w, extent.ymax - 0.15 * h),
        ]
    )

    return [
        rect(0.0001, "rect_small"),
        rect(0.01, "rect_medium"),
        rect(0.25, "rect_large"),
        QuerySpec("circle_medium", circle_polygon(cx, cy, 0.06 * w)),
        QuerySpec(
            "polygon_simple",
            irregular_polygon(cx - 0.2 * w, cy + 0.1 * h, 0.08 * w, seed=seed),
        ),
        QuerySpec(
            "polygon_complex",
            irregular_polygon(
                cx + 0.15 * w, cy - 0.1 * h, 0.2 * w, seed=seed + 1, vertices=41
            ),
        ),
        QuerySpec(
            "corridor_narrow", diag, predicate="dwithin", distance=0.005 * w
        ),
        QuerySpec("corridor_wide", diag, predicate="dwithin", distance=0.03 * w),
    ]

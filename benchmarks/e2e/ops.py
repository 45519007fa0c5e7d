"""Seeded, count-based operation lists.

A run of (workload, seed, points) always executes the identical
list, so the work counters repeat exactly.  Lists are *stratified*: they
are built from blocks holding one op of every class in shuffled order, so
p50 and p90 fall inside one class whatever the seed and the seed only
moves where the queries land, never how many of each kind there are.
``--seed`` never touches the dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

from common import TABLE
from data import extent

#: Box area as a fraction of the extent; one op per class per block.
RECT_AREAS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
#: Area fraction of an ``http_viewport`` request (about 900 rows at 10^7).
VIEWPORT_AREA = 1e-4
VIEWPORT_LIMIT = 10_000

#: Statements of each template per ``sql_thematic`` block: weighted to
#: ``viewport_avg`` so one block is a run's 120 statements, p90 lands in
#: the scan-bound templates and the one-second motorway join is under a
#: third of the timed window.
SQL_BLOCK = (
    ("viewport_avg", 105),
    ("zslab", 6),
    ("intensity_hist", 8),
    ("motorway_dwithin", 1),
)

#: Timed ops of a run: fixed counts, sized once on the reference sandbox
#: (2 cores, 10^7 points) so the timed window lasts about the
#: ``run_seconds`` of ``BENCHMARK.json``.
TIMED_OPS = {
    "rect_clustered": 670,
    "rect_shuffled": 120,
    "poly_clustered": 162,
    "http_viewport": 900,
    "sql_thematic": 120,
}
#: Floor of every list, so p90 has at least 12 samples beyond it.
MIN_TIMED_OPS = 120


@dataclass
class Op:
    """One operation: its class plus whatever the workload needs."""

    kind: str
    geometry: Any = None
    predicate: str = "contains"
    distance: float = 0.0
    sql: str = ""
    params: Dict[str, float] = field(default_factory=dict)
    payload: Dict[str, Any] = field(default_factory=dict)


def op_count(workload: str, scale: float) -> int:
    """Timed ops of a run.  ``scale`` is ``--seconds`` over
    ``run_seconds``: the driver names the window, the lists stay
    count-based (a smoke run lands on the floor)."""
    return max(MIN_TIMED_OPS, round(TIMED_OPS[workload] * scale))


def _square(rng: np.random.Generator, area_fraction: float):
    from repro.gis.envelope import Box

    ext = extent()
    side = ext.width * area_fraction**0.5
    x = ext.xmin + rng.uniform(0, ext.width - side)
    y = ext.ymin + rng.uniform(0, ext.height - side)
    return Box(x, y, x + side, y + side)


def _blocks(rng: np.random.Generator, makers: List, n: int) -> List[Op]:
    out: List[Op] = []
    while len(out) < n:
        block = [make(rng) for make in makers]
        rng.shuffle(block)
        out.extend(block)
    return out[:n]


def rect_ops(seed: int, n: int) -> List[Op]:
    """Square boxes at seeded centres, one per area class per block."""
    rng = np.random.default_rng([seed, 1])
    makers = [
        (lambda r, a=area: Op(kind=f"box_{a:g}", geometry=_square(r, a)))
        for area in RECT_AREAS
    ]
    return _blocks(rng, makers, n)


def _center(rng: np.random.Generator, margin: float):
    ext = extent()
    return (
        ext.xmin + rng.uniform(margin, ext.width - margin),
        ext.ymin + rng.uniform(margin, ext.height - margin),
    )


def _circle32(rng: np.random.Generator) -> Op:
    from repro.gis.geometry import Polygon

    radius = 220.0
    cx, cy = _center(rng, 300.0)
    angle = np.linspace(0.0, 2 * np.pi, 32, endpoint=False)
    ring = np.column_stack([cx + radius * np.cos(angle), cy + radius * np.sin(angle)])
    return Op(kind="circle32", geometry=Polygon(ring))


def _irregular41(rng: np.random.Generator) -> Op:
    from repro.gis.geometry import Polygon

    rx, ry = 260.0, 110.0
    cx, cy = _center(rng, 450.0)
    angle = np.sort(rng.uniform(0.0, 2 * np.pi, 41))
    reach = rng.uniform(0.5, 1.0, 41)
    ring = np.column_stack(
        [cx + rx * reach * np.cos(angle), cy + ry * reach * np.sin(angle)]
    )
    return Op(kind="irregular41", geometry=Polygon(ring))


def _corridor(rng: np.random.Generator) -> Op:
    from repro.gis.geometry import LineString

    length = 550.0
    cx, cy = _center(rng, 450.0)
    xs = np.linspace(cx - length / 2, cx + length / 2, 6)
    ys = cy + rng.uniform(-20.0, 20.0, 6)
    return Op(
        kind="corridor",
        geometry=LineString(np.column_stack([xs, ys])),
        predicate="dwithin",
        distance=25.0,
    )


POLY_MAKERS = [_circle32, _irregular41, _corridor]


def poly_ops(seed: int, n: int) -> List[Op]:
    """32-gon circles, 41-vertex irregular polygons and short dwithin
    corridors, sized so grid refinement outweighs the filter.  Sizes are
    fixed per class (the seed moves centres and vertices), so a class's
    cost does not depend on the seed."""
    return _blocks(np.random.default_rng([seed, 2]), POLY_MAKERS, n)


def viewport_ops(seed: int, n: int) -> List[Op]:
    """Viewport requests alternating columnar and JSON responses."""
    rng = np.random.default_rng([seed, 3])
    out = []
    for i in range(n):
        box = _square(rng, VIEWPORT_AREA)
        fmt = "columnar" if i % 2 == 0 else "json"
        out.append(
            Op(
                kind=fmt,
                geometry=box,
                payload={
                    "table": TABLE,
                    "bbox": [box.xmin, box.ymin, box.xmax, box.ymax],
                    "format": fmt,
                    "limit": VIEWPORT_LIMIT,
                },
            )
        )
    return out


def _sql_op(rng: np.random.Generator, template: str) -> Op:
    if template == "viewport_avg":
        box = _square(rng, VIEWPORT_AREA)
        sql = (
            f"SELECT avg(z) FROM {TABLE} WHERE ST_Contains(ST_MakeEnvelope("
            f"{box.xmin!r}, {box.ymin!r}, {box.xmax!r}, {box.ymax!r}), ST_Point(x, y))"
        )
        return Op(kind=template, sql=sql, geometry=box)
    if template == "zslab":
        # A narrow band of slab positions: the seed moves the slab, the
        # share of the cloud inside it stays about the same.
        lo = float(rng.uniform(7.0, 7.5))
        params = {"lo": lo, "hi": lo + 0.5}
        sql = (
            f"SELECT count(*), avg(z) FROM {TABLE} "
            f"WHERE z BETWEEN {params['lo']!r} AND {params['hi']!r}"
        )
        return Op(kind=template, sql=sql, params=params)
    if template == "intensity_hist":
        params = {"c": float(int(rng.uniform(1490, 1510)))}
        sql = (
            f"SELECT classification, count(*), avg(intensity) FROM {TABLE} "
            f"WHERE intensity > {int(params['c'])} GROUP BY classification"
        )
        return Op(kind=template, sql=sql, params=params)
    if template == "motorway_dwithin":
        sql = (
            f"SELECT max(l.z) FROM {TABLE} l, roads r WHERE r.class = 1 "
            f"AND ST_DWithin(r.geom, ST_Point(l.x, l.y), 30)"
        )
        return Op(kind=template, sql=sql, params={"distance": 30.0})
    raise ValueError(template)


def sql_ops(seed: int, n: int) -> List[Op]:
    """Seeded parameters over the four Scenario-2 templates."""
    makers = [
        (lambda r, t=template: _sql_op(r, t))
        for template, count in SQL_BLOCK
        for _ in range(count)
    ]
    return _blocks(np.random.default_rng([seed, 4]), makers, n)


SQL_BLOCK_SIZE = sum(count for _, count in SQL_BLOCK)

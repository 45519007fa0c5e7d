"""The refinement step: grid-based cell classification + exact point tests.

Section 3.3: after filtering produced "a superset of the solution", the
refinement step evaluates the precise predicate.  "Checking exhaustively
each point is not desirable", so candidate points are bucketed into a
regular grid, each non-empty cell is classified against the query geometry
in a single step, and only points in *boundary* cells are tested
individually.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..gis import batch
from ..gis.envelope import Box
from ..gis.predicates import points_satisfy
from ..obs.trace import maybe_span
from .grid import DEFAULT_TARGET_CELLS, RegularGrid


@dataclass
class RefineStats:
    """Work accounting for one refinement pass (E5 bench metrics)."""

    n_candidates: int = 0
    n_cells: int = 0
    inside_cells: int = 0
    outside_cells: int = 0
    boundary_cells: int = 0
    points_accepted_wholesale: int = 0
    points_rejected_wholesale: int = 0
    points_tested_exact: int = 0
    used_grid: bool = True

    @property
    def exact_test_fraction(self) -> float:
        """Share of candidates that needed an individual predicate test —
        the quantity the grid exists to minimise."""
        if self.n_candidates == 0:
            return 0.0
        return self.points_tested_exact / self.n_candidates


def refine_exhaustive(
    xs: np.ndarray,
    ys: np.ndarray,
    geom,
    predicate: str = "contains",
    distance: float = 0.0,
    threads: Optional[int] = None,
) -> tuple:
    """Baseline refinement: test every candidate point (no grid).

    Returns (boolean mask over candidates, stats).  Used as the ablation
    arm of E5 and as the per-cell kernel for boundary cells.
    ``threads`` is ignored; execution is serial; removed when
    ``benchmarks/e2e/`` stops passing it.
    """
    with maybe_span("refine.exhaustive") as span:
        mask = points_satisfy(xs, ys, geom, predicate, distance)
        stats = RefineStats(
            n_candidates=int(np.asarray(xs).shape[0]),
            points_tested_exact=int(np.asarray(xs).shape[0]),
            used_grid=False,
        )
        span.set(points_tested=stats.points_tested_exact)
    return mask, stats


def refine(
    xs: np.ndarray,
    ys: np.ndarray,
    geom,
    predicate: str = "contains",
    distance: float = 0.0,
    target_cells: int = DEFAULT_TARGET_CELLS,
    extent: Optional[Box] = None,
    threads: Optional[int] = None,
) -> tuple:
    """Grid-accelerated refinement over candidate coordinates.

    Parameters
    ----------
    xs, ys:
        Coordinates of the filter step's candidate points.
    geom, predicate, distance:
        The precise spatial predicate to enforce.
    target_cells:
        Grid resolution budget.
    extent:
        Grid extent override; defaults to the candidates' tight envelope.
    threads:
        Ignored; execution is serial; removed when ``benchmarks/e2e/``
        stops passing it.

    Returns ``(mask, stats)`` where ``mask`` is boolean over the candidate
    arrays — exactly what :func:`refine_exhaustive` returns, just cheaper.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    n = xs.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool), RefineStats()
    if extent is None:
        extent = Box(xs.min(), ys.min(), xs.max(), ys.max())

    grid = RegularGrid(extent, target_cells=target_cells)
    groups = grid.group_points(xs, ys)
    mask = np.zeros(n, dtype=bool)
    stats = RefineStats(n_candidates=n, n_cells=len(groups))

    # Classify every non-empty cell in one vectorised pass.
    with maybe_span("refine.classify") as classify_span:
        cell_ids = np.fromiter(groups.keys(), dtype=np.int64, count=len(groups))
        relations = batch.classify_boxes(
            grid.cell_boxes(cell_ids), geom, predicate, distance
        )

        boundary_members = []
        for relation, members in zip(relations, groups.values()):
            if relation == batch.INSIDE:
                mask[members] = True
                stats.inside_cells += 1
                stats.points_accepted_wholesale += members.shape[0]
            elif relation == batch.OUTSIDE:
                stats.outside_cells += 1
                stats.points_rejected_wholesale += members.shape[0]
            else:
                boundary_members.append(members)
                stats.boundary_cells += 1
                stats.points_tested_exact += members.shape[0]
        classify_span.set(
            n_cells=stats.n_cells,
            inside=stats.inside_cells,
            outside=stats.outside_cells,
            boundary=stats.boundary_cells,
        )

    # Exact tests for all boundary-cell points, in one call.
    if boundary_members:
        with maybe_span("refine.exact") as exact_span:
            tested = np.concatenate(boundary_members)
            mask[tested] = points_satisfy(
                xs[tested], ys[tested], geom, predicate, distance
            )
            exact_span.set(points_tested=stats.points_tested_exact)
    return mask, stats

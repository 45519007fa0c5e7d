"""E5 — Grid refinement vs exhaustive point tests (paper Section 3.3).

Claims reproduced:

* "checking exhaustively each point is not desirable": the regular grid
  decides most candidate points wholesale, only boundary cells fall back
  to per-point tests;
* the exact point-in-ring kernel buckets points by y-band, so an
  exhaustive point test costs the few edges its band reaches, not
  O(vertices).  The grid then pays off only where classifying its cells
  (O(cells x edges), independent of the point count) is amortised over
  many candidates: E5 measures the filter output of the bench cloud and of
  a 10x denser cloud of the same scene, and asserts the paper's claim on
  the denser one;
* cell-budget sweep: the ablation for DESIGN.md's grid-resolution choice.
"""

import numpy as np
import pytest

from repro.bench.harness import Report, best_of
from repro.bench.workloads import circle_polygon, irregular_polygon
from repro.core.refine import refine, refine_exhaustive
from repro.datasets.lidar import generate_points, make_scene
from repro.gis.envelope import Box

#: Density factor of E5's second candidate set.
DENSE = 10


def _window(cloud, extent):
    """Candidate coordinates as the filter step would hand them over."""
    cx, cy = extent.center
    half = 0.35 * extent.width
    window = Box(cx - half, cy - half, cx + half, cy + half)
    mask = (
        (cloud["x"] >= window.xmin)
        & (cloud["x"] <= window.xmax)
        & (cloud["y"] >= window.ymin)
        & (cloud["y"] <= window.ymax)
    )
    return cloud["x"][mask], cloud["y"][mask]


@pytest.fixture(scope="module")
def candidates(cloud, extent):
    return _window(cloud, extent)


@pytest.fixture(scope="module")
def dense_candidates(cloud, extent):
    """The same window over a DENSE-times denser cloud of the same scene."""
    n = DENSE * cloud["x"].shape[0]
    return _window(generate_points(make_scene(extent, seed=7), n, seed=7), extent)


def _polygons(extent):
    cx, cy = extent.center
    return {
        "square(5)": Box(
            cx - 0.2 * extent.width,
            cy - 0.2 * extent.height,
            cx + 0.2 * extent.width,
            cy + 0.2 * extent.height,
        ),
        "circle(32)": circle_polygon(cx, cy, 0.22 * extent.width, segments=32),
        "star(64)": irregular_polygon(cx, cy, 0.25 * extent.width, seed=5, vertices=64),
        "star(256)": irregular_polygon(
            cx, cy, 0.25 * extent.width, seed=6, vertices=256
        ),
    }


class TestRefinementBenchmarks:
    @pytest.mark.parametrize("shape", ["circle(32)", "star(256)"])
    def test_grid(self, benchmark, candidates, extent, shape):
        xs, ys = candidates
        poly = _polygons(extent)[shape]
        benchmark(lambda: refine(xs, ys, poly))

    @pytest.mark.parametrize("shape", ["circle(32)", "star(256)"])
    def test_exhaustive(self, benchmark, candidates, extent, shape):
        xs, ys = candidates
        poly = _polygons(extent)[shape]
        benchmark(lambda: refine_exhaustive(xs, ys, poly))


class TestRefinementReport:
    def test_report_e5(self, benchmark, candidates, dense_candidates, extent):
        def build_report():
            report = Report(
                "E5",
                "grid refinement vs exhaustive",
                headers=[
                    "geometry",
                    "candidates",
                    "grid ms",
                    "exhaustive ms",
                    "speedup",
                    "exact-tested %",
                ],
            )
            speedups = {}
            for dense, (xs, ys) in ((False, candidates), (True, dense_candidates)):
                for name, poly in _polygons(extent).items():
                    if isinstance(poly, Box):
                        continue  # boxes skip refinement entirely in the engine
                    mask_grid, stats = refine(xs, ys, poly)
                    mask_exh, _ = refine_exhaustive(xs, ys, poly)
                    np.testing.assert_array_equal(mask_grid, mask_exh)
                    t_grid = best_of(lambda: refine(xs, ys, poly))
                    t_exh = best_of(lambda: refine_exhaustive(xs, ys, poly))
                    speedups[name, dense] = t_exh / t_grid
                    report.add_row(
                        name,
                        xs.shape[0],
                        t_grid * 1e3,
                        t_exh * 1e3,
                        f"{t_exh / t_grid:.1f}x",
                        f"{stats.exact_test_fraction * 100:.1f}",
                    )
            report.note(
                "the y-banded exact kernel makes a per-point test cost a few "
                "edges; cell classification costs O(cells x edges) whatever "
                "the point count, so the grid wins only on dense candidates"
            )
            report.emit()
            assert all(s > 1.0 for (_, dense), s in speedups.items() if dense), (
                speedups
            )

        benchmark.pedantic(build_report, rounds=1, iterations=1)

    def test_report_e5_cellsweep(self, benchmark, candidates, extent):
        def build_report():
            xs, ys = candidates
            poly = _polygons(extent)["star(64)"]
            report = Report(
                "E5b",
                "refinement grid-resolution sweep (star(64) polygon)",
                headers=[
                    "target cells",
                    "ms",
                    "boundary cells",
                    "exact-tested %",
                ],
            )
            for cells in (16, 64, 256, 1024, 4096, 16384):
                mask, stats = refine(xs, ys, poly, target_cells=cells)
                t = best_of(lambda: refine(xs, ys, poly, target_cells=cells))
                report.add_row(
                    cells,
                    t * 1e3,
                    stats.boundary_cells,
                    f"{stats.exact_test_fraction * 100:.1f}",
                )
            report.note(
                "finer grids shrink the exhaustively tested share until "
                "classification cost dominates (the 1024-cell default)"
            )
            report.emit()

        benchmark.pedantic(build_report, rounds=1, iterations=1)

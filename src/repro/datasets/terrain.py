"""Fractal terrain synthesis: the ground truth under the synthetic AHN2.

AHN2 is a country-wide elevation model of the Netherlands.  We cannot ship
real AHN2 tiles, so the LIDAR generator samples a synthetic heightfield:
diamond-square fractal relief, flattened towards Dutch-polder gentleness,
with a sea-level water mask (the Netherlands is famously wet).  The
heightfield exposes bilinear ``height_at`` sampling so any point density
can be drawn from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..gis.envelope import Box


@dataclass
class Terrain:
    """A sampled heightfield over a world-coordinate extent.

    Attributes
    ----------
    heights:
        (n, n) float64 grid of elevations in metres.
    extent:
        The world rectangle the grid spans.
    sea_level:
        Elevation at or below which a cell counts as water.
    """

    heights: np.ndarray
    extent: Box
    sea_level: float = 0.0

    @property
    def size(self) -> int:
        return self.heights.shape[0]

    def height_at(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Bilinear elevation sample at world coordinates (vectorised)."""
        n = self.size
        fx = (np.asarray(xs) - self.extent.xmin) / max(self.extent.width, 1e-12)
        fy = (np.asarray(ys) - self.extent.ymin) / max(self.extent.height, 1e-12)
        gx = np.clip(fx * (n - 1), 0, n - 1 - 1e-9)
        gy = np.clip(fy * (n - 1), 0, n - 1 - 1e-9)
        ix = gx.astype(np.int64)
        iy = gy.astype(np.int64)
        tx = gx - ix
        ty = gy - iy
        h00 = self.heights[iy, ix]
        h10 = self.heights[iy, ix + 1]
        h01 = self.heights[iy + 1, ix]
        h11 = self.heights[iy + 1, ix + 1]
        return (
            h00 * (1 - tx) * (1 - ty)
            + h10 * tx * (1 - ty)
            + h01 * (1 - tx) * ty
            + h11 * tx * ty
        )

    def is_water(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Water mask at world coordinates."""
        return self.height_at(xs, ys) <= self.sea_level


def _diamond_square(order: int, roughness: float, rng: np.random.Generator) -> np.ndarray:
    """Classic diamond-square fractal on a (2^order + 1) grid in [0, 1]-ish."""
    n = (1 << order) + 1
    grid = np.zeros((n, n), dtype=np.float64)
    corners = rng.uniform(-1, 1, 4)
    grid[0, 0], grid[0, -1], grid[-1, 0], grid[-1, -1] = corners
    step = n - 1
    scale = 1.0
    while step > 1:
        half = step // 2
        # Diamond step: centres of squares.
        for y in range(half, n, step):
            for x in range(half, n, step):
                avg = (
                    grid[y - half, x - half]
                    + grid[y - half, x + half]
                    + grid[y + half, x - half]
                    + grid[y + half, x + half]
                ) / 4.0
                grid[y, x] = avg + rng.uniform(-scale, scale)
        # Square step: edge midpoints.
        for y in range(0, n, half):
            x_start = half if (y // half) % 2 == 0 else 0
            for x in range(x_start, n, step):
                total = 0.0
                count = 0
                if y >= half:
                    total += grid[y - half, x]
                    count += 1
                if y + half < n:
                    total += grid[y + half, x]
                    count += 1
                if x >= half:
                    total += grid[y, x - half]
                    count += 1
                if x + half < n:
                    total += grid[y, x + half]
                    count += 1
                grid[y, x] = total / count + rng.uniform(-scale, scale)
        step = half
        scale *= roughness
    return grid


def generate_terrain(
    extent: Box,
    order: int = 7,
    roughness: float = 0.55,
    relief: float = 25.0,
    sea_level_quantile: float = 0.15,
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> Terrain:
    """Build a synthetic Dutch-ish terrain.

    Parameters
    ----------
    extent:
        World rectangle in metres (RD-like coordinates).
    order:
        Grid refinement: the heightfield is (2^order + 1)^2 samples.
    roughness:
        Diamond-square roughness decay in (0, 1); lower = smoother.
    relief:
        Total elevation span in metres (AHN2 spans roughly -7..+322 m, but
        most of the country sits within a few tens of metres).
    sea_level_quantile:
        Fraction of the terrain that ends up under water.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    if not 0 < roughness < 1:
        raise ValueError("roughness must be in (0, 1)")
    raw = _diamond_square(order, roughness, rng)
    # Normalise to [0, 1] then scale to the requested relief.
    raw -= raw.min()
    peak = raw.max()
    if peak > 0:
        raw /= peak
    heights = raw * relief
    sea_level = float(np.quantile(heights, sea_level_quantile))
    # Shift so sea level sits at NAP 0, like the Dutch datum.
    heights -= sea_level
    return Terrain(heights=heights, extent=extent, sea_level=0.0)

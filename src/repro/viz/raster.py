"""Rasterisation canvas: world-coordinate drawing onto an RGB image.

The demo visualises every query result "in real time using QGIS".  In this
reproduction the visualisation substrate is a small renderer that draws
point/line/polygon layers onto an RGB canvas and writes portable pixmaps
(PPM — a stdlib-only format any image viewer opens).
"""

from __future__ import annotations

from pathlib import Path
from typing import Tuple, Union

import numpy as np

from ..engine.durable import atomic_write_bytes
from ..gis.envelope import Box

PathLike = Union[str, Path]

Color = Tuple[int, int, int]

WHITE: Color = (255, 255, 255)
BLACK: Color = (0, 0, 0)


class Canvas:
    """An RGB raster mapped onto a world-coordinate extent.

    Parameters
    ----------
    extent:
        World rectangle rendered onto the image.
    width:
        Image width in pixels; height follows the extent's aspect ratio
        unless given explicitly.
    background:
        Fill colour.
    """

    def __init__(
        self,
        extent: Box,
        width: int = 512,
        height: int = 0,
        background: Color = WHITE,
    ) -> None:
        if width < 1:
            raise ValueError("width must be positive")
        self.extent = extent
        self.width = width
        if height < 1:
            aspect = extent.height / max(extent.width, 1e-12)
            height = max(1, int(round(width * aspect)))
        self.height = height
        self.pixels = np.empty((self.height, self.width, 3), dtype=np.uint8)
        self.pixels[:] = background

    # -- coordinate transform -------------------------------------------------------

    def to_pixel(self, xs: np.ndarray, ys: np.ndarray):
        """World -> pixel coordinates (row 0 is the north edge)."""
        fx = (np.asarray(xs) - self.extent.xmin) / max(self.extent.width, 1e-12)
        fy = (np.asarray(ys) - self.extent.ymin) / max(self.extent.height, 1e-12)
        px = np.clip((fx * (self.width - 1)).round(), 0, self.width - 1)
        py = np.clip(((1 - fy) * (self.height - 1)).round(), 0, self.height - 1)
        return px.astype(np.int64), py.astype(np.int64)

    # -- primitives -------------------------------------------------------------------

    def draw_points(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        color: Union[Color, np.ndarray] = BLACK,
        size: int = 1,
    ) -> None:
        """Scatter points; ``color`` may be per-point (n, 3) uint8."""
        px, py = self.to_pixel(xs, ys)
        colors = np.asarray(color, dtype=np.uint8)
        per_point = colors.ndim == 2
        for dy in range(-(size - 1), size):
            for dx in range(-(size - 1), size):
                qx = np.clip(px + dx, 0, self.width - 1)
                qy = np.clip(py + dy, 0, self.height - 1)
                self.pixels[qy, qx] = colors if per_point else colors[None, :]

    def draw_line(
        self, x1: float, y1: float, x2: float, y2: float, color: Color = BLACK
    ) -> None:
        """Bresenham line between two world points."""
        (px1, px2), (py1, py2) = self.to_pixel(
            np.array([x1, x2]), np.array([y1, y2])
        )
        x, y = int(px1), int(py1)
        x_end, y_end = int(px2), int(py2)
        dx = abs(x_end - x)
        dy = -abs(y_end - y)
        sx = 1 if x < x_end else -1
        sy = 1 if y < y_end else -1
        err = dx + dy
        while True:
            self.pixels[y, x] = color
            if x == x_end and y == y_end:
                break
            e2 = 2 * err
            if e2 >= dy:
                err += dy
                x += sx
            if e2 <= dx:
                err += dx
                y += sy

    def draw_polyline(self, coords: np.ndarray, color: Color = BLACK) -> None:
        for i in range(coords.shape[0] - 1):
            self.draw_line(
                coords[i, 0], coords[i, 1], coords[i + 1, 0], coords[i + 1, 1], color
            )

    def fill_polygon(self, polygon, color: Color) -> None:
        """Scanline fill of a :class:`~repro.gis.geometry.Polygon`."""
        from ..gis.algorithms import points_in_polygon

        env = polygon.envelope
        if not env.intersects(self.extent):
            return
        # Rasterise only the rows the polygon touches.
        px_min, py_max = self.to_pixel(np.array([env.xmin]), np.array([env.ymin]))
        px_max, py_min = self.to_pixel(np.array([env.xmax]), np.array([env.ymax]))
        for row in range(int(py_min[0]), int(py_max[0]) + 1):
            wy = self.extent.ymax - (row + 0.5) / self.height * self.extent.height
            cols = np.arange(int(px_min[0]), int(px_max[0]) + 1)
            wx = self.extent.xmin + (cols + 0.5) / self.width * self.extent.width
            inside = points_in_polygon(wx, np.full(cols.shape[0], wy), polygon)
            self.pixels[row, cols[inside]] = color

    # -- output ------------------------------------------------------------------------

    def write_ppm(self, path: PathLike) -> Path:
        """Write the canvas as a binary PPM (P6).

        Atomic (temp + fsync + rename): a crash mid-render never leaves
        a torn image for a viewer or a pipeline stage to trip over.
        """
        path = Path(path)
        header = f"P6\n{self.width} {self.height}\n255\n".encode()
        atomic_write_bytes(path, header + self.pixels.tobytes(), label="ppm")
        return path

    def to_ascii(self, columns: int = 80) -> str:
        """ASCII-art view of the canvas (see :func:`ascii_render`)."""
        return ascii_render(self.pixels, columns=columns)


#: Luminance ramp used by :meth:`Canvas.to_ascii` (dark -> bright).
_ASCII_RAMP = " .:-=+*#%@"


def _luminance(pixels: np.ndarray) -> np.ndarray:
    return (
        0.299 * pixels[:, :, 0]
        + 0.587 * pixels[:, :, 1]
        + 0.114 * pixels[:, :, 2]
    )


def ascii_render(pixels: np.ndarray, columns: int = 80) -> str:
    """Down-sample an RGB raster to an ASCII art string.

    Terminal-friendly output for headless demo runs; rows are halved to
    compensate for character aspect ratio.
    """
    if columns < 2:
        raise ValueError("need at least 2 columns")
    height, width, _ = pixels.shape
    rows = max(1, int(columns * height / width / 2))
    gray = _luminance(pixels)
    row_idx = np.linspace(0, height - 1, rows).astype(np.int64)
    col_idx = np.linspace(0, width - 1, columns).astype(np.int64)
    sampled = gray[np.ix_(row_idx, col_idx)]
    levels = (sampled / 256 * len(_ASCII_RAMP)).astype(np.int64)
    levels = np.clip(levels, 0, len(_ASCII_RAMP) - 1)
    return "\n".join(
        "".join(_ASCII_RAMP[level] for level in row) for row in levels
    )


def read_ppm(path: PathLike) -> np.ndarray:
    """Read back a binary PPM written by :meth:`Canvas.write_ppm`."""
    raw = Path(path).read_bytes()
    if not raw.startswith(b"P6"):
        raise ValueError(f"{path}: not a binary PPM")
    parts = raw.split(b"\n", 3)
    width, height = (int(v) for v in parts[1].split())
    pixels = np.frombuffer(parts[3], dtype=np.uint8)
    return pixels.reshape(height, width, 3)

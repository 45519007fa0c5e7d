"""The regular grid used by the refinement step.

Section 3.3: "MonetDB creates a regular grid over the point geometries
selected in the filtering step and assigns each geometry to a grid cell."
The grid is rebuilt per query over the envelope of the filter output, so
its resolution adapts to the query, not the dataset.  It maps points to
flat cell ids and cells to rectangles; refinement looks verdicts up by id.
"""

from __future__ import annotations

import numpy as np

from ..gis.envelope import Box

#: Default number of cells the refinement grid aims for.  A ~32x32 grid
#: keeps cell classification (tens of microseconds per cell) negligible
#: next to the per-point tests it saves.
DEFAULT_TARGET_CELLS = 1024


class RegularGrid:
    """A uniform nx x ny grid over an envelope.

    Parameters
    ----------
    extent:
        The area to cover (normally the envelope of the candidate points
        intersected with the query envelope).
    target_cells:
        Approximate total cell budget; the split between axes follows the
        extent's aspect ratio so cells stay near-square.
    """

    def __init__(self, extent: Box, target_cells: int = DEFAULT_TARGET_CELLS) -> None:
        if target_cells < 1:
            raise ValueError("target_cells must be >= 1")
        self.extent = extent
        width = max(extent.width, 1e-12)
        height = max(extent.height, 1e-12)
        aspect = width / height
        ny = max(1, int(round((target_cells / aspect) ** 0.5)))
        nx = max(1, int(round(target_cells / ny)))
        self.nx = nx
        self.ny = ny
        self._cell_w = width / nx
        self._cell_h = height / ny

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    def cell_ids(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Flat cell id (row-major) per point; points must lie in extent
        (boundary values clamp into the last row/column)."""
        cx = ((np.asarray(xs) - self.extent.xmin) / self._cell_w).astype(np.int64)
        cy = ((np.asarray(ys) - self.extent.ymin) / self._cell_h).astype(np.int64)
        np.clip(cx, 0, self.nx - 1, out=cx)
        np.clip(cy, 0, self.ny - 1, out=cy)
        return cy * self.nx + cx

    def cell_boxes(self, cell_ids: np.ndarray):
        """Rectangles of many cells as (xmin, ymin, xmax, ymax) arrays —
        the input shape of the batched classifier."""
        cell_ids = np.asarray(cell_ids, dtype=np.int64)
        cy, cx = np.divmod(cell_ids, self.nx)
        xmin = self.extent.xmin + cx * self._cell_w
        ymin = self.extent.ymin + cy * self._cell_h
        return (xmin, ymin, xmin + self._cell_w, ymin + self._cell_h)

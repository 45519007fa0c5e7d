"""Per-file quadtree index — the repo's ``lasindex``.

Rapidlasso's ``lasindex`` builds a quadtree over a LAS file and stores,
per quadtree cell, *intervals of point indices* that fall inside it
(Section 2.3 / [18]).  Interval lists are tiny when the file is spatially
sorted (``lassort`` first), and degenerate towards one interval per point
on unsorted data — a cost contrast the E3 bench shows.

The index is persisted next to the LAS file as ``<name>.lax`` (JSON).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Tuple, Union

import numpy as np

from ..gis.envelope import Box

PathLike = Union[str, Path]

#: Default quadtree limits, mirroring lasindex's defaults in spirit.
DEFAULT_LEAF_CAPACITY = 1000
DEFAULT_MAX_DEPTH = 8


def _intervals_from_indices(indices: np.ndarray) -> List[Tuple[int, int]]:
    """Compress a sorted index array into [start, stop) interval pairs."""
    if indices.shape[0] == 0:
        return []
    breaks = np.flatnonzero(np.diff(indices) != 1)
    starts = np.concatenate([[0], breaks + 1])
    stops = np.concatenate([breaks, [indices.shape[0] - 1]])
    return [
        (int(indices[a]), int(indices[b]) + 1) for a, b in zip(starts, stops)
    ]


@dataclass
class QuadLeaf:
    """One quadtree leaf: its cell and the point-index intervals inside."""

    box: Box
    intervals: List[Tuple[int, int]] = field(default_factory=list)


class LasIndex:
    """A quadtree of point-index intervals over one file's points.

    Parameters
    ----------
    xs, ys:
        The file's point coordinates, in file order.
    extent:
        The file bounding box (from the LAS header).
    leaf_capacity / max_depth:
        Quadtree split limits.
    """

    def __init__(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        extent: Box,
        leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
        max_depth: int = DEFAULT_MAX_DEPTH,
    ) -> None:
        if leaf_capacity < 1:
            raise ValueError("leaf_capacity must be >= 1")
        self.extent = extent
        self.leaf_capacity = leaf_capacity
        self.max_depth = max_depth
        self.leaves: List[QuadLeaf] = []
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        self.n_points = xs.shape[0]
        if self.n_points:
            order = np.arange(self.n_points, dtype=np.int64)
            self._build(xs, ys, order, extent, 0)

    def _build(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        indices: np.ndarray,
        box: Box,
        depth: int,
    ) -> None:
        if indices.shape[0] == 0:
            return
        if indices.shape[0] <= self.leaf_capacity or depth >= self.max_depth:
            self.leaves.append(
                QuadLeaf(
                    box=box,
                    intervals=_intervals_from_indices(np.sort(indices)),
                )
            )
            return
        cx, cy = box.center
        west = xs < cx
        south = ys < cy
        quadrants = [
            (west & south, Box(box.xmin, box.ymin, cx, cy)),
            (~west & south, Box(cx, box.ymin, box.xmax, cy)),
            (west & ~south, Box(box.xmin, cy, cx, box.ymax)),
            (~west & ~south, Box(cx, cy, box.xmax, box.ymax)),
        ]
        for mask, sub_box in quadrants:
            self._build(xs[mask], ys[mask], indices[mask], sub_box, depth + 1)

    # -- query -----------------------------------------------------------------

    def candidate_intervals(self, query: Box) -> List[Tuple[int, int]]:
        """Merged point-index intervals of all leaves touching the box."""
        raw: List[Tuple[int, int]] = []
        for leaf in self.leaves:
            if leaf.box.intersects(query):
                raw.extend(leaf.intervals)
        if not raw:
            return []
        raw.sort()
        merged = [list(raw[0])]
        for start, stop in raw[1:]:
            if start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], stop)
            else:
                merged.append([start, stop])
        return [(a, b) for a, b in merged]

    # -- persistence -------------------------------------------------------------

    def save(self, path: PathLike) -> None:
        """Persist as a ``.lax`` JSON sidecar."""
        doc = {
            "extent": [
                self.extent.xmin,
                self.extent.ymin,
                self.extent.xmax,
                self.extent.ymax,
            ],
            "leaf_capacity": self.leaf_capacity,
            "max_depth": self.max_depth,
            "n_points": self.n_points,
            "leaves": [
                {
                    "box": [
                        leaf.box.xmin,
                        leaf.box.ymin,
                        leaf.box.xmax,
                        leaf.box.ymax,
                    ],
                    "intervals": leaf.intervals,
                }
                for leaf in self.leaves
            ],
        }
        Path(path).write_text(json.dumps(doc))

    @classmethod
    def load(cls, path: PathLike) -> "LasIndex":
        """Load a persisted ``.lax`` sidecar."""
        doc = json.loads(Path(path).read_text())
        index = cls.__new__(cls)
        index.extent = Box(*doc["extent"])
        index.leaf_capacity = doc["leaf_capacity"]
        index.max_depth = doc["max_depth"]
        index.n_points = doc["n_points"]
        index.leaves = [
            QuadLeaf(
                box=Box(*leaf["box"]),
                intervals=[tuple(pair) for pair in leaf["intervals"]],
            )
            for leaf in doc["leaves"]
        ]
        return index


def lax_path_for(las_path: PathLike) -> Path:
    """The sidecar path lasindex would write for a LAS file."""
    las_path = Path(las_path)
    return las_path.with_suffix(".lax")

"""The brute-force oracle the benchmark checks answers against.

``SpatialSelect.query_scan`` is the program's own reference, but it
tests every one of 10^7 rows per call (10 s for one polygon), far too
slow to check a run's worth of operations.  The oracle below is the
same brute force made affordable: x/y/z copies of the generated cloud,
bucketed once into a coarse grid, so a check reads only the cells under
the query envelope and then compares every point in them exactly with
plain numpy (and ``points_satisfy`` for non-box geometry).  It shares no
code with the imprint, select or refine layers, and ``--prepare``
validates it against ``query_scan`` before a cache is accepted.

Oids are positions in the clustered store; ``rows(..., shuffled=True)``
maps them through the inverse permutation for ``ahn2_shuffled``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Tuple

import numpy as np

GRID = 256  # cells per axis


def build(root: Path, columns: Dict[str, np.ndarray], perm: np.ndarray, extent) -> None:
    root.mkdir(parents=True, exist_ok=True)
    xs = np.ascontiguousarray(columns["x"])
    ys = np.ascontiguousarray(columns["y"])
    cell = _cell_of(xs, extent.xmin, extent.width) + GRID * _cell_of(
        ys, extent.ymin, extent.height
    )
    order = np.argsort(cell, kind="stable")
    starts = np.searchsorted(cell[order], np.arange(GRID * GRID + 1))
    inverse = np.empty(perm.shape[0], dtype=np.int64)
    inverse[perm] = np.arange(perm.shape[0])
    np.save(root / "x.npy", xs)
    np.save(root / "y.npy", ys)
    np.save(root / "z.npy", np.ascontiguousarray(columns["z"]))
    np.save(root / "order.npy", order.astype(np.int32))
    np.save(root / "starts.npy", starts.astype(np.int64))
    np.save(root / "shuffled_row.npy", inverse.astype(np.int32))
    np.save(
        root / "extent.npy",
        np.array([extent.xmin, extent.ymin, extent.width, extent.height]),
    )


def _cell_of(values: np.ndarray, origin: float, size: float) -> np.ndarray:
    return np.clip(((values - origin) * (GRID / size)).astype(np.int64), 0, GRID - 1)


class Oracle:
    """Memory-mapped view of a prepared oracle directory."""

    def __init__(self, root: Path) -> None:
        load = lambda name: np.load(root / f"{name}.npy", mmap_mode="r")  # noqa: E731
        self.x, self.y, self.z = load("x"), load("y"), load("z")
        self.order, self.starts = load("order"), load("starts")
        self.shuffled_row = load("shuffled_row")
        self.xmin, self.ymin, self.width, self.height = (
            float(v) for v in np.load(root / "extent.npy")
        )

    def _box_rows(self, xmin: float, ymin: float, xmax: float, ymax: float) -> np.ndarray:
        """Sorted oids with xmin <= x <= xmax and ymin <= y <= ymax."""
        ix0, ix1 = _cell_of(np.array([xmin, xmax]), self.xmin, self.width)
        iy0, iy1 = _cell_of(np.array([ymin, ymax]), self.ymin, self.height)
        parts = [
            self.order[self.starts[iy * GRID + ix0] : self.starts[iy * GRID + ix1 + 1]]
            for iy in range(iy0, iy1 + 1)
        ]
        rows = np.concatenate(parts).astype(np.int64)
        xs, ys = self.x[rows], self.y[rows]
        keep = (xs >= xmin) & (xs <= xmax) & (ys >= ymin) & (ys <= ymax)
        return np.sort(rows[keep])

    def rows(
        self,
        geometry,
        predicate: str = "contains",
        distance: float = 0.0,
        shuffled: bool = False,
    ) -> np.ndarray:
        """Sorted oids of the points satisfying the predicate."""
        from repro.gis.envelope import Box
        from repro.gis.predicates import geometry_envelope, points_satisfy

        env = geometry_envelope(geometry)
        if predicate == "dwithin":
            env = env.expand(distance)
        rows = self._box_rows(env.xmin, env.ymin, env.xmax, env.ymax)
        if not isinstance(geometry, Box):
            keep = points_satisfy(
                self.x[rows], self.y[rows], geometry, predicate, distance
            )
            rows = rows[keep]
        if shuffled:
            rows = np.sort(self.shuffled_row[rows].astype(np.int64))
        return rows

    def xyz(self, rows: np.ndarray) -> Tuple[np.ndarray, ...]:
        """x, y, z of clustered-store rows (for response-body checks)."""
        return self.x[rows], self.y[rows], self.z[rows]


def self_check(dataset, columns: Dict[str, np.ndarray], perm: np.ndarray) -> None:
    """Prove the oracle against ``SpatialSelect.query_scan`` (prepare
    time): ten boxes, the extent corner, one polygon, and the shuffled
    row mapping against a plain numpy scan of the permuted columns."""
    from repro import PointCloudDB
    from repro.gis.envelope import Box

    import ops
    from common import TABLE

    oracle = Oracle(dataset.oracle)
    db = PointCloudDB(threads=1)
    db.create_pointcloud(TABLE)
    db.load_points(TABLE, columns)
    select = db.select_for(TABLE)
    boxes = [op.geometry for op in ops.rect_ops(seed=0, n=10)]
    boxes.append(Box(oracle.xmin, oracle.ymin, oracle.xmin + 50.0, oracle.ymin + 50.0))
    for box in boxes:
        if not np.array_equal(select.query_scan(box), oracle.rows(box)):
            raise RuntimeError(f"oracle disagrees with query_scan on {box}")
    polygon = ops.poly_ops(seed=0, n=3)[1]
    if not np.array_equal(
        select.query_scan(polygon.geometry, polygon.predicate, polygon.distance),
        oracle.rows(polygon.geometry, polygon.predicate, polygon.distance),
    ):
        raise RuntimeError(f"oracle disagrees with query_scan on a {polygon.kind}")
    xs, ys = np.asarray(columns["x"])[perm], np.asarray(columns["y"])[perm]
    box = boxes[0]
    scan = np.flatnonzero(
        (xs >= box.xmin) & (xs <= box.xmax) & (ys >= box.ymin) & (ys <= box.ymax)
    )
    if not np.array_equal(scan, oracle.rows(box, shuffled=True)):
        raise RuntimeError("oracle's shuffled row mapping is wrong")

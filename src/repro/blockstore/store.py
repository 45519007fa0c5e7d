"""The block-storage baseline (PostgreSQL pointcloud / Oracle SDO_PC).

Loading re-organises points physically: optionally sort along a
space-filling curve (Oracle uses Hilbert, Section 2.3), chunk into patches
of N points, compress every dimension per patch, and index patch bboxes
with an R-tree.  That reorganisation is precisely why loading is slower
than the paper's flat-table binary appends (E1), while storage is smaller
(E2) and small-window queries competitive (E3).

Queries run the same filter/refine shape as the DBMS: R-tree filter on
patch bboxes, wholesale acceptance of fully inside patches, exact tests
for boundary patches — but must *decompress* every touched patch first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.sfc import sort_order
from ..gis.predicates import (
    CellRelation,
    classify_box,
    geometry_envelope,
    points_satisfy,
)
from .patch import Patch, build_patch
from .rtree import RTree

DEFAULT_PATCH_SIZE = 4096


@dataclass
class BlockLoadStats:
    n_points: int = 0
    n_patches: int = 0
    seconds: float = 0.0
    sort_seconds: float = 0.0
    compress_seconds: float = 0.0
    index_seconds: float = 0.0


@dataclass
class BlockQueryStats:
    patches_total: int = 0
    patches_candidate: int = 0
    patches_inside: int = 0
    patches_boundary: int = 0
    points_decompressed: int = 0
    points_tested: int = 0
    n_results: int = 0
    seconds: float = 0.0


class BlockStore:
    """A patch-based point-cloud store.

    Parameters
    ----------
    patch_size:
        Points per patch (pcpatch default scale).
    sort:
        ``"morton"``, ``"hilbert"`` or ``None`` (load order).  Sorting
        costs load time but shrinks patch bboxes and payloads.
    """

    def __init__(
        self,
        patch_size: int = DEFAULT_PATCH_SIZE,
        sort: Optional[str] = "morton",
    ) -> None:
        if patch_size < 1:
            raise ValueError("patch_size must be >= 1")
        if sort not in (None, "morton", "hilbert"):
            raise ValueError(f"unknown sort curve {sort!r}")
        self.patch_size = patch_size
        self.sort = sort
        self.patches: List[Patch] = []
        self.rtree: Optional[RTree] = None
        self.dimensions: List[str] = []

    # -- loading -----------------------------------------------------------------

    def load(self, columns: Dict[str, np.ndarray]) -> BlockLoadStats:
        """(Re)load the store from a column batch.

        The whole batch is re-blocked: block stores pay this reorganisation
        on every bulk load, unlike the flat table's pure appends.
        """
        stats = BlockLoadStats()
        t0 = time.perf_counter()
        xs = np.asarray(columns["x"], dtype=np.float64)
        ys = np.asarray(columns["y"], dtype=np.float64)
        n = xs.shape[0]
        if n == 0:
            raise ValueError("cannot load an empty batch")
        self.dimensions = list(columns.keys())

        if self.sort is not None:
            perm = sort_order(
                xs,
                ys,
                float(xs.min()),
                float(xs.max()) + 1e-9,
                float(ys.min()),
                float(ys.max()) + 1e-9,
                curve=self.sort,
            )
            columns = {name: np.asarray(arr)[perm] for name, arr in columns.items()}
        t1 = time.perf_counter()

        self.patches = []
        for start in range(0, n, self.patch_size):
            chunk = {
                name: np.asarray(arr)[start : start + self.patch_size]
                for name, arr in columns.items()
            }
            self.patches.append(build_patch(len(self.patches), chunk))
        t2 = time.perf_counter()

        self.rtree = RTree([p.bbox for p in self.patches])
        t3 = time.perf_counter()

        stats.n_points = n
        stats.n_patches = len(self.patches)
        stats.sort_seconds = t1 - t0
        stats.compress_seconds = t2 - t1
        stats.index_seconds = t3 - t2
        stats.seconds = t3 - t0
        return stats

    # -- size --------------------------------------------------------------------

    @property
    def n_points(self) -> int:
        return sum(p.n_points for p in self.patches)

    @property
    def nbytes(self) -> int:
        """Compressed payload bytes across all patches."""
        return sum(p.nbytes for p in self.patches)

    # -- query -------------------------------------------------------------------

    def query(
        self,
        geometry,
        predicate: str = "contains",
        distance: float = 0.0,
        dimensions: Optional[List[str]] = None,
    ) -> tuple:
        """Points satisfying the predicate, as ``(columns_dict, stats)``."""
        if self.rtree is None:
            raise RuntimeError("store is empty: call load() first")
        wanted = dimensions if dimensions is not None else ["x", "y", "z"]
        for name in wanted:
            if name not in self.dimensions:
                raise KeyError(f"store has no dimension {name!r}")

        t0 = time.perf_counter()
        env = geometry_envelope(geometry)
        if predicate == "dwithin":
            env = env.expand(distance)
        candidate_ids = self.rtree.query(env)
        stats = BlockQueryStats(
            patches_total=len(self.patches),
            patches_candidate=len(candidate_ids),
        )
        pieces: Dict[str, List[np.ndarray]] = {name: [] for name in wanted}

        for pid in candidate_ids:
            patch = self.patches[pid]
            relation = classify_box(patch.bbox, geometry, predicate, distance)
            if relation is CellRelation.OUTSIDE:
                continue
            if relation is CellRelation.INSIDE:
                cols = patch.decompress(wanted)
                stats.patches_inside += 1
                stats.points_decompressed += patch.n_points
                for name in wanted:
                    pieces[name].append(cols[name])
                continue
            # Boundary patch: decompress coordinates, test exactly.
            need = list(dict.fromkeys(["x", "y", *wanted]))
            cols = patch.decompress(need)
            stats.patches_boundary += 1
            stats.points_decompressed += patch.n_points
            stats.points_tested += patch.n_points
            mask = points_satisfy(
                cols["x"], cols["y"], geometry, predicate, distance
            )
            for name in wanted:
                pieces[name].append(cols[name][mask])

        out = {
            name: (
                np.concatenate(parts)
                if parts
                else np.empty(0, dtype=np.float64)
            )
            for name, parts in pieces.items()
        }
        stats.n_results = int(out[wanted[0]].shape[0])
        stats.seconds = time.perf_counter() - t0
        return out, stats

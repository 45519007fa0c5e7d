"""File catalog for the file-based baseline.

Section 2.2: AHN2 "is stored and distributed in more than 60,000 LAZ
files.  It is already a large amount of files to be inspected for a simple
selection ... the authors for LAStools had to use a DBMS to store the
metadata of each file in order to avoid the inspection of each file
header."

The catalog supports both regimes:

* ``mode="headers"`` — every query opens every file and reads its header
  (the naive regime whose cost grows with the file count);
* ``mode="metadata"`` — a one-off scan persists per-file bounding boxes to
  a JSON metadata DB; queries prune against it without touching files.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..gis.envelope import Box
from ..las.reader import read_header

PathLike = Union[str, Path]

_METADATA_NAME = "catalog.json"


@dataclass
class CatalogStats:
    """Per-query pruning cost accounting."""

    headers_read: int = 0
    files_matched: int = 0
    prune_seconds: float = 0.0


class FileCatalog:
    """Bounding-box pruning over a directory of LAS/LAZ tiles.

    Parameters
    ----------
    directory:
        The tile directory.
    mode:
        ``"headers"`` (inspect every header per query) or ``"metadata"``
        (build/use the metadata DB).
    """

    def __init__(self, directory: PathLike, mode: str = "metadata") -> None:
        if mode not in ("headers", "metadata"):
            raise ValueError(f"unknown catalog mode {mode!r}")
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise FileNotFoundError(f"no tile directory at {self.directory}")
        self.mode = mode
        self._metadata: Optional[Dict[str, List[float]]] = None
        if mode == "metadata":
            self._metadata = self._load_or_build_metadata()

    # -- metadata DB -------------------------------------------------------------

    @property
    def metadata_path(self) -> Path:
        return self.directory / _METADATA_NAME

    def _tile_paths(self) -> List[Path]:
        return sorted(
            p
            for p in self.directory.iterdir()
            if p.suffix.lower() in (".las", ".laz")
        )

    def _load_or_build_metadata(self) -> Dict[str, List[float]]:
        if self.metadata_path.exists():
            return json.loads(self.metadata_path.read_text())
        return self.rebuild_metadata()

    def rebuild_metadata(self) -> Dict[str, List[float]]:
        """The ETL step: read every header once, persist the bboxes.

        [18]: "Such ETL process had the same cost as the data loading cost
        of a DBMS" — the E1/E3 benches time this against database loading.
        """
        metadata: Dict[str, List[float]] = {}
        for path in self._tile_paths():
            header = read_header(path)
            metadata[path.name] = [
                header.min_xyz[0],
                header.min_xyz[1],
                header.max_xyz[0],
                header.max_xyz[1],
                header.n_points,
            ]
        self.metadata_path.write_text(json.dumps(metadata))
        self._metadata = metadata
        return metadata

    # -- pruning ------------------------------------------------------------------

    def files_intersecting(self, query: Box) -> Tuple[List[Path], CatalogStats]:
        """Tiles whose bbox touches the query box, plus pruning stats."""
        stats = CatalogStats()
        t0 = time.perf_counter()
        matched: List[Path] = []
        if self.mode == "headers":
            for path in self._tile_paths():
                header = read_header(path)
                stats.headers_read += 1
                bbox = Box(
                    header.min_xyz[0],
                    header.min_xyz[1],
                    max(header.max_xyz[0], header.min_xyz[0]),
                    max(header.max_xyz[1], header.min_xyz[1]),
                )
                if bbox.intersects(query):
                    matched.append(path)
        else:
            assert self._metadata is not None
            for name, (xmin, ymin, xmax, ymax, _n) in sorted(
                self._metadata.items()
            ):
                bbox = Box(xmin, ymin, max(xmax, xmin), max(ymax, ymin))
                if bbox.intersects(query):
                    matched.append(self.directory / name)
        stats.files_matched = len(matched)
        stats.prune_seconds = time.perf_counter() - t0
        return matched, stats

    @property
    def n_files(self) -> int:
        return len(self._tile_paths())

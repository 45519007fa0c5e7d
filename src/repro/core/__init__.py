"""The paper's primary contribution: imprints + two-step spatial queries.

* :mod:`repro.core.imprints` — the column imprints secondary index.
* :mod:`repro.core.grid` / :mod:`repro.core.refine` — the regular-grid
  refinement step.
* :mod:`repro.core.query` — :class:`SpatialSelect`, the filter-refine
  pipeline over a flat table.
* :mod:`repro.core.sfc` — Morton/Hilbert space-filling curves (used by the
  baselines and ablations).
"""

from .grid import RegularGrid
from .imprints import ImprintsManager, SegmentedImprints
from .query import QueryResult, QueryStats, SpatialSelect
from .rasterize import ElevationGrid, chm, dsm, dtm, hillshade, rasterize
from .refine import RefineStats, refine, refine_exhaustive

__all__ = [
    "ElevationGrid",
    "ImprintsManager",
    "QueryResult",
    "QueryStats",
    "RefineStats",
    "RegularGrid",
    "SegmentedImprints",
    "SpatialSelect",
    "chm",
    "dsm",
    "dtm",
    "hillshade",
    "rasterize",
    "refine",
    "refine_exhaustive",
]

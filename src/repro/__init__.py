"""repro: GIS navigation boosted by column stores — a reproduction.

A Python reproduction of Alvanaki et al., "GIS Navigation Boosted by
Column Stores" (PVLDB 8(12), 2015): a column-store point-cloud database
whose spatial queries run through the column imprints secondary index and
a regular-grid refinement step, evaluated against file-based (LAStools)
and block-storage (PostgreSQL pointcloud) baselines.

Quick start::

    from repro import PointCloudDB, Box

    db = PointCloudDB()
    db.create_pointcloud("pts")
    db.load_points("pts", columns)        # or db.load_las("pts", paths)
    hits = db.spatial_select("pts", Box(0, 0, 100, 100))

Subpackages
-----------
``repro.core``
    Column imprints + the two-step spatial query pipeline (the paper's
    contribution).
``repro.engine``
    The columnar storage/operator substrate.
``repro.gis``
    OGC Simple Features geometry, WKT, predicates.
``repro.las`` / ``repro.lastools`` / ``repro.blockstore``
    The LAS format, the file-based baseline, the block-store baseline.
``repro.sql``
    The declarative layer with ST_* functions and imprints push-down.
``repro.datasets`` / ``repro.viz`` / ``repro.bench``
    Synthetic AHN2/OSM/UrbanAtlas data, rendering, experiment harness.
"""

from .api import PointCloudDB
from .core.imprints import ImprintsManager, SegmentedImprints
from .core.query import QueryResult, SpatialSelect
from .engine.catalog import Database
from .engine.table import Table
from .gis.envelope import Box
from .gis.geometry import (
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
)
from .gis.wkt import loads as geometry_from_wkt
from .sql.executor import Session

__version__ = "1.0.0"

__all__ = [
    "Box",
    "Database",
    "ImprintsManager",
    "LineString",
    "MultiLineString",
    "MultiPoint",
    "MultiPolygon",
    "Point",
    "PointCloudDB",
    "Polygon",
    "QueryResult",
    "SegmentedImprints",
    "Session",
    "SpatialSelect",
    "Table",
    "geometry_from_wkt",
]

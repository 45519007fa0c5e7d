"""OGC Simple Features subset: geometry types, WKT, predicates.

The geometry object model lives in :mod:`repro.gis.geometry`, vectorised
point kernels in :mod:`repro.gis.algorithms`, predicate dispatch and the
grid-cell classifier in :mod:`repro.gis.predicates`, and WKT I/O in
:mod:`repro.gis.wkt`.
"""

from .envelope import Box
from .geometry import (
    Geometry,
    GeometryError,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
)
from .algorithms import simplify, simplify_coords
from .crs import rd_to_wgs84, wgs84_to_rd
from .predicates import (
    CellRelation,
    classify_box,
    contains,
    dwithin,
    intersects,
    points_satisfy,
)
from .wkt import WKTError, dumps, loads

__all__ = [
    "Box",
    "CellRelation",
    "Geometry",
    "GeometryError",
    "LineString",
    "MultiLineString",
    "MultiPoint",
    "MultiPolygon",
    "Point",
    "Polygon",
    "WKTError",
    "classify_box",
    "contains",
    "dumps",
    "dwithin",
    "intersects",
    "loads",
    "points_satisfy",
    "rd_to_wgs84",
    "simplify",
    "simplify_coords",
    "wgs84_to_rd",
]

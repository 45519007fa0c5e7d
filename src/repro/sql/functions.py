"""SQL function registry: the OGC ST_* surface plus numeric helpers.

MonetDB exposes "an SQL interface to the Simple Features Access standard
... with support for the objects and functions defined in the
specification" (Section 3.3).  These are the functions the demo's
pre-defined and user-defined queries use.  Implementations are
vector-aware: array arguments broadcast elementwise; geometry-object
arguments use numpy object arrays.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ..gis import predicates, wkt
from ..gis.envelope import Box
from ..gis.geometry import GeometryError, Point, Polygon
from .errors import SqlFunctionError


def _is_array(value) -> bool:
    return isinstance(value, np.ndarray)


def _broadcast(args):
    """Lengths of array args (all must agree); None for all-scalar."""
    lengths = {a.shape[0] for a in args if _is_array(a)}
    if not lengths:
        return None
    if len(lengths) > 1:
        raise SqlFunctionError(f"mismatched argument lengths {sorted(lengths)}")
    return lengths.pop()


def _elementwise(fn: Callable, *args):
    """Apply a python-level function over broadcast scalars/arrays."""
    n = _broadcast(args)
    if n is None:
        return fn(*args)
    rows = []
    for i in range(n):
        rows.append(fn(*[a[i] if _is_array(a) else a for a in args]))
    first = rows[0] if rows else None
    if isinstance(first, (bool, np.bool_)):
        return np.array(rows, dtype=bool)
    if isinstance(first, (int, float, np.number)):
        return np.array(rows, dtype=np.float64)
    out = np.empty(n, dtype=object)
    out[:] = rows
    return out


# -- geometry constructors --------------------------------------------------------


def st_geomfromtext(text):
    """Parse WKT; vectorises over string arrays."""
    return _elementwise(wkt.loads, text)


def st_astext(geom):
    return _elementwise(lambda g: g.wkt(), geom)


def st_point(x, y):
    """Construct POINT(x, y); the demo uses it to lift the flat table's
    x/y columns into geometry space."""
    return _elementwise(lambda a, b: Point(float(a), float(b)), x, y)


def st_makeenvelope(xmin, ymin, xmax, ymax):
    def one(a, b, c, d):
        a, b, c, d = float(a), float(b), float(c), float(d)
        if not (a <= c and b <= d):
            raise SqlFunctionError(
                f"ST_MakeEnvelope({a!r}, {b!r}, {c!r}, {d!r}) needs "
                "xmin <= xmax and ymin <= ymax"
            )
        return Polygon.from_box(Box(a, b, c, d))

    return _elementwise(one, xmin, ymin, xmax, ymax)


# -- accessors / measures -----------------------------------------------------------


def st_x(geom):
    return _elementwise(lambda g: _point_of(g).x, geom)


def st_y(geom):
    return _elementwise(lambda g: _point_of(g).y, geom)


def _point_of(g) -> Point:
    if not isinstance(g, Point):
        raise SqlFunctionError(f"ST_X/ST_Y need a POINT, got {type(g).__name__}")
    return g


def st_area(geom):
    return _elementwise(lambda g: float(getattr(g, "area", 0.0)), geom)


def st_length(geom):
    return _elementwise(lambda g: float(getattr(g, "length", 0.0)), geom)


def st_distance(a, b):
    from ..gis.algorithms import dist_points_to_geometry

    def one(ga, gb):
        if isinstance(ga, Point):
            ga, gb = gb, ga
        if not isinstance(gb, Point):
            raise SqlFunctionError(
                "ST_Distance supports (geometry, point) pairs"
            )
        return float(
            dist_points_to_geometry(np.array([gb.x]), np.array([gb.y]), ga)[0]
        )

    return _elementwise(one, a, b)


# -- predicates -----------------------------------------------------------------------


def st_contains(container, contained):
    def one(a, b):
        if not isinstance(b, Point):
            raise SqlFunctionError("ST_Contains supports point containment")
        return predicates.contains(a, b)

    return _elementwise(one, container, contained)


def st_within(contained, container):
    return st_contains(container, contained)


def st_intersects(a, b):
    return _elementwise(predicates.intersects, a, b)


def st_dwithin(a, b, distance):
    def one(ga, gb, d):
        if isinstance(ga, Point) and not isinstance(gb, Point):
            ga, gb = gb, ga
        if isinstance(gb, Point):
            return predicates.dwithin(ga, gb, float(d))
        raise SqlFunctionError("ST_DWithin supports (geometry, point) pairs")

    return _elementwise(one, a, b, distance)


# -- plain scalar helpers ----------------------------------------------------------------


def _numeric(fn: Callable) -> Callable:
    def wrapped(value):
        return fn(np.asarray(value, dtype=np.float64)) if _is_array(value) else fn(
            float(value)
        )

    return wrapped


SCALAR_FUNCTIONS: Dict[str, Callable] = {
    "st_geomfromtext": st_geomfromtext,
    "st_astext": st_astext,
    "st_point": st_point,
    "st_makepoint": st_point,
    "st_makeenvelope": st_makeenvelope,
    "st_x": st_x,
    "st_y": st_y,
    "st_area": st_area,
    "st_length": st_length,
    "st_distance": st_distance,
    "st_contains": st_contains,
    "st_within": st_within,
    "st_intersects": st_intersects,
    "st_dwithin": st_dwithin,
    "abs": _numeric(np.abs),
    "sqrt": _numeric(np.sqrt),
    "floor": _numeric(np.floor),
    "ceil": _numeric(np.ceil),
    "round": _numeric(np.round),
}

#: Aggregates handled by the executor, not this registry.
AGGREGATES = {"count", "sum", "avg", "min", "max"}


def function(name: str) -> Callable:
    """The scalar function of this (lower-case) name."""
    try:
        return SCALAR_FUNCTIONS[name]
    except KeyError:
        raise SqlFunctionError(f"unknown function {name!r}") from None


def call(name: str, args) -> object:
    """Invoke a scalar function by (lower-case) name."""
    fn = function(name)
    try:
        return fn(*args)
    except (GeometryError, wkt.WKTError) as exc:
        # A malformed WKT or coordinate is the statement's fault.
        raise SqlFunctionError(f"{name}(): {exc}") from exc

"""Rectangles are exact at the filter.

A rectangle polygon, however it is built (``Polygon.from_box``, WKT from
any start vertex in either orientation, SQL ``ST_MakeEnvelope`` or
``ST_GeomFromText``), must answer exactly like its :class:`Box` and like
the brute-force scan, and skip refinement.  Every other shape, and
``dwithin`` on a rectangle, must still refine.

Coordinates lie in the demo's RD extent (85 000 .. 87 000, 445 000 ..
447 000), where one ulp exceeds the 1e-12 boundary tolerance of the
exact point-in-polygon test, so a point one ulp outside an edge is
outside for every path.
"""

import itertools

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.imprints import ImprintsManager
from repro.core.query import SpatialSelect, filter_is_exact
from repro.engine.table import Table
from repro.gis import wkt
from repro.gis.envelope import Box
from repro.gis.geometry import Polygon
from repro.obs.trace import get_tracer
from repro.sql.executor import Session

EXTENT = Box(85000.0, 445000.0, 87000.0, 447000.0)
EXACT_PREDICATES = ("contains", "intersects", "within")


@st.composite
def rectangles(draw):
    """A positive-area rectangle inside the extent."""
    xmin = draw(st.floats(EXTENT.xmin, EXTENT.xmax - 1.0))
    ymin = draw(st.floats(EXTENT.ymin, EXTENT.ymax - 1.0))
    width = draw(st.floats(0.5, EXTENT.xmax - xmin))
    height = draw(st.floats(0.5, EXTENT.ymax - ymin))
    return Box(xmin, ymin, xmin + width, ymin + height)


def _points(box: Box, seed: int):
    """Random points over the extent, plus points exactly on the box's
    corners and edges and one ulp either side of each edge."""
    rng = np.random.default_rng(seed)
    xs = [rng.uniform(EXTENT.xmin, EXTENT.xmax, 1500)]
    ys = [rng.uniform(EXTENT.ymin, EXTENT.ymax, 1500)]
    along_x = rng.uniform(box.xmin, box.xmax, 6)
    along_y = rng.uniform(box.ymin, box.ymax, 6)
    corners_x = np.array([box.xmin, box.xmax, box.xmax, box.xmin])
    corners_y = np.array([box.ymin, box.ymin, box.ymax, box.ymax])
    xs.append(corners_x)
    ys.append(corners_y)
    for step in (0.0, -np.inf, np.inf):  # on the edge, one ulp either side
        for y in (box.ymin, box.ymax):
            xs.append(along_x)
            ys.append(np.full(6, np.nextafter(y, step) if step else y))
        for x in (box.xmin, box.xmax):
            xs.append(np.full(6, np.nextafter(x, step) if step else x))
            ys.append(along_y)
        if step:
            xs.append(np.nextafter(corners_x, step))
            ys.append(np.nextafter(corners_y, step))
    x, y = np.concatenate(xs), np.concatenate(ys)
    return x, y, rng.uniform(0.0, 10.0, x.shape[0])


def _table(box: Box, seed: int) -> Table:
    x, y, z = _points(box, seed)
    table = Table(
        "pts", [("id", "int64"), ("x", "float64"), ("y", "float64"), ("z", "float64")]
    )
    table.append_columns({"id": np.arange(x.shape[0]), "x": x, "y": y, "z": z})
    return table


def _ring_wkt(ring) -> str:
    return "POLYGON((" + ", ".join(f"{x!r} {y!r}" for x, y in ring) + "))"


def _rectangle_wkts(box: Box):
    """The rectangle's WKT from each of its 4 start vertices, both ways round."""
    corners = list(box.corners)
    for start, order in itertools.product(range(4), (1, -1)):
        ring = [corners[(start + order * k) % 4] for k in range(5)]
        yield _ring_wkt(ring)


def _query(spatial: SpatialSelect, geometry, predicate, **options):
    """The query's oids and whether a ``query.refine`` span ran."""
    with get_tracer().capture() as spans:
        oids = spatial.query(geometry, predicate, **options).oids
    return oids, any(span.name == "query.refine" for span in spans)


def _scan(spatial: SpatialSelect, geometry, predicate, z_range, distance=0.0):
    oids = spatial.query_scan(geometry, predicate, distance)
    if z_range is not None:
        z = np.asarray(spatial.table.column("z").values)[oids]
        oids = oids[(z >= z_range[0]) & (z <= z_range[1])]
    return oids


options = st.fixed_dictionaries(
    {
        "use_imprints": st.booleans(),
        "use_grid": st.booleans(),
        "z_range": st.none() | st.just((2.5, 7.5)),
    }
)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    box=rectangles(),
    seed=st.integers(0, 2**16),
    predicate=st.sampled_from(EXACT_PREDICATES),
    opts=options,
)
def test_rectangle_polygons_answer_like_their_box(box, seed, predicate, opts):
    spatial = SpatialSelect(_table(box, seed), manager=ImprintsManager(segment_rows=256))
    expected, refined = _query(spatial, box, predicate, **opts)
    assert not refined
    polygons = [Polygon.from_box(box)] + [wkt.loads(t) for t in _rectangle_wkts(box)]
    for polygon in polygons:
        assert filter_is_exact(polygon, predicate)
        oids, refined = _query(spatial, polygon, predicate, **opts)
        assert not refined, polygon.wkt()
        np.testing.assert_array_equal(oids, expected)
        np.testing.assert_array_equal(
            _scan(spatial, polygon, predicate, opts["z_range"]), expected
        )


SQL_SPATIAL = {
    "contains": "ST_Contains({g}, ST_Point(x, y))",
    "intersects": "ST_Intersects({g}, ST_Point(x, y))",
    "within": "ST_Within(ST_Point(x, y), {g})",
}


@settings(max_examples=20, deadline=None)
@given(
    box=rectangles(),
    seed=st.integers(0, 2**16),
    predicate=st.sampled_from(EXACT_PREDICATES),
    z_range=st.none() | st.just((2.5, 7.5)),
)
def test_sql_rectangles_answer_like_their_box(box, seed, predicate, z_range):
    table = _table(box, seed)
    session = Session(manager=ImprintsManager(segment_rows=256))
    session.register_table(table)
    expected, _ = _query(
        SpatialSelect(table), box, predicate, z_range=z_range
    )
    envelope = "ST_MakeEnvelope({!r}, {!r}, {!r}, {!r})".format(
        box.xmin, box.ymin, box.xmax, box.ymax
    )
    texts = [f"ST_GeomFromText('{text}')" for text in _rectangle_wkts(box)]
    for geometry in [envelope] + texts[:2]:
        where = SQL_SPATIAL[predicate].format(g=geometry)
        if z_range is not None:
            where += f" AND z BETWEEN {z_range[0]} AND {z_range[1]}"
        sql = f"SELECT id FROM pts WHERE {where}"
        assert "exact, no refinement" in session.explain(sql)
        analyzed = session.explain_analyze(sql)
        assert "query.refine" not in analyzed
        ids = np.array(session.execute(sql).column("id"), dtype=np.int64)
        np.testing.assert_array_equal(np.sort(ids), expected)


def _not_rectangles(box: Box):
    """Shapes next to a rectangle that the rule must refuse."""
    (x0, y0), (x1, _), (_, y1), _ = box.corners
    dx = 0.25 * (x1 - x0)
    hole = Box(x0 + dx, y0 + 0.25 * (y1 - y0), x1 - dx, y1 - 0.25 * (y1 - y0))
    nan_vertex = Polygon.from_box(box)
    nan_vertex.shell[2, 0] = np.nan  # only a mutated shell gets past Polygon()
    return {
        "slanted edge": Polygon([(x0, y0), (x1, y0), (x1, y1), (x0 + dx, y1)]),
        "trapezoid": Polygon([(x0, y0), (x1, y0), (x1 - dx, y1), (x0 + dx, y1)]),
        "hole": Polygon(list(box.corners), holes=[list(hole.corners)]),
        "repeated vertex": Polygon([(x0, y0), (x1, y0), (x1, y0), (x1, y1), (x0, y1)]),
        "nan vertex": nan_vertex,
    }


@settings(max_examples=15, deadline=None)
@given(
    box=rectangles(),
    seed=st.integers(0, 2**16),
    predicate=st.sampled_from(EXACT_PREDICATES),
    opts=options,
)
def test_other_shapes_still_refine(box, seed, predicate, opts):
    spatial = SpatialSelect(_table(box, seed), manager=ImprintsManager(segment_rows=256))
    for name, polygon in _not_rectangles(box).items():
        assert not filter_is_exact(polygon, predicate), name
        oids, refined = _query(spatial, polygon, predicate, **opts)
        assert refined, name
        if name == "nan vertex":
            # Its envelope is NaN, so the filter passes nothing; the scan
            # ray-casts the broken ring instead (not a rectangle question).
            assert oids.size == 0
            continue
        np.testing.assert_array_equal(
            oids, _scan(spatial, polygon, predicate, opts["z_range"]), err_msg=name
        )


@settings(max_examples=10, deadline=None)
@given(box=rectangles(), seed=st.integers(0, 2**16), opts=options)
def test_dwithin_on_a_rectangle_still_refines(box, seed, opts):
    spatial = SpatialSelect(_table(box, seed), manager=ImprintsManager(segment_rows=256))
    for geometry in (box, Polygon.from_box(box)):
        assert not filter_is_exact(geometry, "dwithin")
        oids, refined = _query(spatial, geometry, "dwithin", distance=5.0, **opts)
        assert refined
        np.testing.assert_array_equal(
            oids, _scan(spatial, geometry, "dwithin", opts["z_range"], 5.0)
        )


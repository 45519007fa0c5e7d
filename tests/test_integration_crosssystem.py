"""Cross-system equivalence: all four query paths return the same answer.

The demo's Scenario 1 compares systems on the *same* data; this module
turns that comparison into a property: for random clouds and random query
geometries, the flat-table+imprints pipeline, the pure scan, the block
store and the file-based toolchain must all return the same point set
(files modulo LAS coordinate quantisation, which is asserted separately
by loading the quantised coordinates back first).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.blockstore.store import BlockStore
from repro.core.query import SpatialSelect
from repro.engine.table import Table
from repro.gis.envelope import Box
from repro.gis.geometry import LineString, Polygon
from repro.gis.predicates import points_satisfy
from repro.las.reader import read_las
from repro.las.writer import write_las
from repro.lastools.clip import LasClip

EXTENT = Box(0, 0, 1000, 1000)


def _random_cloud(n, seed):
    rng = np.random.default_rng(seed)
    return {
        "x": rng.uniform(0, 1000, n),
        "y": rng.uniform(0, 1000, n),
        "z": rng.uniform(0, 30, n),
    }


def _random_geometry(rng):
    kind = rng.integers(0, 3)
    cx, cy = rng.uniform(200, 800, 2)
    if kind == 0:
        w, h = rng.uniform(20, 300, 2)
        return Box(cx - w, cy - h, cx + w, cy + h), "contains", 0.0
    if kind == 1:
        n_vertices = int(rng.integers(3, 12))
        angles = np.linspace(0, 2 * np.pi, n_vertices, endpoint=False)
        radii = rng.uniform(30, 250, n_vertices)
        return (
            Polygon(
                np.column_stack(
                    [cx + radii * np.cos(angles), cy + radii * np.sin(angles)]
                )
            ),
            "contains",
            0.0,
        )
    line = LineString(
        [
            (rng.uniform(0, 1000), rng.uniform(0, 1000)),
            (cx, cy),
            (rng.uniform(0, 1000), rng.uniform(0, 1000)),
        ]
    )
    return line, "dwithin", float(rng.uniform(5, 80))


class TestCrossSystemEquivalence:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 2**31))
    def test_all_systems_agree(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        tmp = tmp_path_factory.mktemp(f"xsys_{seed % 1000}")

        # Ship the cloud through LAS so every system sees the *quantised*
        # coordinates — then exact equality is required everywhere.
        raw = _random_cloud(3000, seed)
        las_path = tmp / "tile.las"
        write_las(las_path, raw)
        _header, cloud = read_las(las_path)

        table = Table(
            "pts", [("x", "float64"), ("y", "float64"), ("z", "float64")]
        )
        table.append_columns(
            {"x": cloud["x"], "y": cloud["y"], "z": cloud["z"]}
        )
        select = SpatialSelect(table)

        store = BlockStore(patch_size=512, sort="morton")
        store.load({"x": cloud["x"], "y": cloud["y"], "z": cloud["z"]})

        clip = LasClip(tmp, use_index=True)
        clip.build_indexes(leaf_capacity=300)

        geometry, predicate, distance = _random_geometry(rng)
        expected_mask = points_satisfy(
            cloud["x"], cloud["y"], geometry, predicate, distance
        )
        expected = np.sort(cloud["x"][expected_mask])

        # 1. flat + imprints + grid
        result = select.query(geometry, predicate, distance)
        np.testing.assert_array_equal(
            np.sort(table.column("x").take(result.oids)), expected
        )
        # 2. brute-force scan, no filter and no grid
        np.testing.assert_array_equal(
            select.query_scan(geometry, predicate, distance), np.sort(result.oids)
        )
        # 3. blockstore
        out_blk, _ = store.query(geometry, predicate, distance)
        np.testing.assert_array_equal(np.sort(out_blk["x"]), expected)
        # 4. file-based
        out_las, _ = clip.query(geometry, predicate, distance)
        np.testing.assert_array_equal(np.sort(out_las["x"]), expected)


class TestSqlAgreesWithDirect:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_sql_count_matches_spatial_select(self, seed):
        from repro.sql.executor import Session

        rng = np.random.default_rng(seed)
        cloud = _random_cloud(2000, seed)
        table = Table(
            "pts", [("x", "float64"), ("y", "float64"), ("z", "float64")]
        )
        table.append_columns(cloud)
        session = Session()
        session.register_table(table)
        select = SpatialSelect(table, manager=session.manager)

        geometry, predicate, distance = _random_geometry(rng)
        direct = len(select.query(geometry, predicate, distance))
        wkt = (
            geometry.wkt()
            if not isinstance(geometry, Box)
            else Polygon.from_box(geometry).wkt()
        )
        if predicate == "dwithin":
            sql = (
                f"SELECT count(*) FROM pts WHERE ST_DWithin("
                f"ST_GeomFromText('{wkt}'), ST_Point(x, y), {distance})"
            )
        else:
            sql = (
                f"SELECT count(*) FROM pts WHERE ST_Contains("
                f"ST_GeomFromText('{wkt}'), ST_Point(x, y))"
            )
        assert session.execute(sql).scalar() == direct

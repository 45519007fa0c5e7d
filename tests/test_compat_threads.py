"""The ``threads=`` keyword that ``benchmarks/e2e/`` still passes.

Execution is serial.  Nine entry points keep a ``threads`` keyword that
is accepted and ignored until the benchmark harness stops passing it;
each call below is shaped like the harness's, and must return exactly
what the same call returns without the keyword.
"""

import numpy as np
import pytest

from repro import PointCloudDB
from repro.core.imprints import ImprintsManager
from repro.core.refine import refine, refine_exhaustive
from repro.engine.select import range_select
from repro.gis.envelope import Box
from repro.gis.geometry import Polygon
from repro.serve import SnapshotManager

TABLE = "points"
POLY = Polygon([(10, 10), (70, 15), (55, 80), (12, 60)])
BOX = Box(20, 20, 60, 45)


def load(db):
    db.create_pointcloud(TABLE)
    rng = np.random.default_rng(4)
    db.load_points(
        TABLE, {c: rng.uniform(0, 100, 5000) for c in ("x", "y", "z")}
    )
    return db


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    directory = tmp_path_factory.mktemp("store")
    load(PointCloudDB()).save(directory)
    return directory


def answers(db):
    return [db.spatial_select(TABLE, g).oids for g in (BOX, POLY)]


def assert_same(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("threads", [1, 2])
def test_database_keywords_are_ignored(store, threads):
    want = answers(PointCloudDB.load(store))
    assert_same(answers(load(PointCloudDB(threads=threads))), want)
    assert_same(answers(PointCloudDB.load(store, threads=threads)), want)
    snapshots = SnapshotManager(directory=store, threads=threads)
    assert_same(answers(snapshots.open().db), want)


@pytest.mark.parametrize("threads", [1, 2])
def test_operator_keywords_are_ignored(store, threads):
    db = PointCloudDB.load(store)
    table = db.table(TABLE)
    select = db.select_for(TABLE)
    for geometry in (BOX, POLY):
        np.testing.assert_array_equal(
            select.query(geometry, threads=threads).oids, select.query(geometry).oids
        )
    manager = ImprintsManager(threads=threads)
    np.testing.assert_array_equal(
        manager.range_select(table, "x", 20, 60, threads=threads),
        ImprintsManager().range_select(table, "x", 20, 60),
    )
    column = table.column("y")
    np.testing.assert_array_equal(
        range_select(column, 20, 45, threads=threads), range_select(column, 20, 45)
    )
    xs, ys = (np.asarray(table.column(c).values) for c in "xy")
    np.testing.assert_array_equal(
        refine(xs, ys, POLY, threads=threads)[0], refine(xs, ys, POLY)[0]
    )
    np.testing.assert_array_equal(
        refine_exhaustive(xs, ys, POLY, threads=threads)[0],
        refine_exhaustive(xs, ys, POLY)[0],
    )

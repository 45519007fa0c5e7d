"""Tests for imprint persistence (save/load with the database)."""

import numpy as np
import pytest

from repro import Box, PointCloudDB
from repro.core.imprints import ImprintsManager, SegmentedImprints
from repro.core.imprints.persist import (
    ImprintPersistError,
    load_segmented,
    save_segmented,
)
from repro.engine.column import Column
from repro.engine.select import range_select
from repro.engine.table import Table


def make_column(n=5000, seed=0):
    rng = np.random.default_rng(seed)
    return Column("x", "float64", data=rng.uniform(0, 1000, n))


def saved(col, path):
    """Index ``col`` in 1024-row segments and persist it at ``path``."""
    imp = SegmentedImprints(col, segment_rows=1024)
    save_segmented(imp, "pts", "x", path)
    return imp


class TestSaveLoad:
    def test_round_trip_queries_identical(self, tmp_path):
        col = make_column()
        path = tmp_path / "x.imprint"
        imp = saved(col, path)
        back = load_segmented(col, path)
        for lo, hi in [(0, 10), (500, 600), (990, 1000), (-5, 2000)]:
            np.testing.assert_array_equal(back.query(lo, hi), imp.query(lo, hi))
        assert back.nbytes == imp.nbytes
        assert back.vpc == imp.vpc

    def test_loaded_imprint_exact(self, tmp_path):
        col = make_column(seed=1)
        path = tmp_path / "x.imprint"
        saved(col, path)
        back = load_segmented(col, path)
        np.testing.assert_array_equal(
            back.query(100, 200), range_select(col, 100, 200)
        )

    def test_grown_column_is_stale_not_error(self, tmp_path):
        col = make_column(seed=2)
        path = tmp_path / "x.imprint"
        saved(col, path)
        col.append([1.0, 2.0])
        back = load_segmented(col, path)
        assert back.stale

    def test_shorter_column_rejected(self, tmp_path):
        path = tmp_path / "x.imprint"
        saved(make_column(seed=3), path)
        small = make_column(n=10, seed=3)
        with pytest.raises(ImprintPersistError, match="holds only"):
            load_segmented(small, path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ImprintPersistError, match="no imprint"):
            load_segmented(make_column(), tmp_path / "ghost.imprint")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.imprint"
        path.write_bytes(b"XXXX" + b"\x00" * 30)
        with pytest.raises(ImprintPersistError, match="magic"):
            load_segmented(make_column(), path)

    def test_truncated(self, tmp_path):
        col = make_column(seed=4)
        path = tmp_path / "x.imprint"
        saved(col, path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(ImprintPersistError, match="checksum"):
            load_segmented(col, path)


class TestManagerPersistence:
    def _table(self, n=3000, seed=5):
        rng = np.random.default_rng(seed)
        t = Table("pts", [("x", "float64"), ("y", "float64")])
        t.append_columns(
            {"x": rng.uniform(0, 100, n), "y": rng.uniform(0, 100, n)}
        )
        return t

    def test_save_load_skips_rebuild(self, tmp_path):
        table = self._table()
        mgr = ImprintsManager()
        mgr.range_select(table, "x", 10, 20)
        mgr.range_select(table, "y", 10, 20)
        mgr.save(tmp_path / "imp")

        mgr2 = ImprintsManager()
        loaded = mgr2.load({"pts": table}, tmp_path / "imp")
        assert loaded == 2
        out = mgr2.range_select(table, "x", 10, 20)
        assert mgr2.builds == 0  # reused from disk, no rebuild
        np.testing.assert_array_equal(
            np.sort(out), np.sort(mgr.range_select(table, "x", 10, 20))
        )

    def test_load_missing_directory(self, tmp_path):
        assert ImprintsManager().load({}, tmp_path / "absent") == 0

    def test_old_version_is_quarantined_and_rebuilt(self, tmp_path):
        """There is no unchecksummed format to fall back to: a file that
        claims version 2 (the CRC-less layout) is corrupt like any other."""
        table = self._table()
        mgr = ImprintsManager()
        want = mgr.range_select(table, "x", 10, 20)
        mgr.save(tmp_path / "imp")
        (path,) = sorted((tmp_path / "imp").glob("*.imprint"))
        raw = bytearray(path.read_bytes())
        raw[4:6] = (2).to_bytes(2, "little")
        path.write_bytes(bytes(raw))

        mgr2 = ImprintsManager()
        with pytest.warns(RuntimeWarning, match="unsupported version 2"):
            assert mgr2.load({"pts": table}, tmp_path / "imp") == 0
        assert len(mgr2.quarantined) == 1 and not path.exists()
        np.testing.assert_array_equal(mgr2.range_select(table, "x", 10, 20), want)
        assert mgr2.builds == 1  # the lazy rebuild

    def test_load_ignores_unknown_tables(self, tmp_path):
        table = self._table()
        mgr = ImprintsManager()
        mgr.range_select(table, "x", 0, 50)
        mgr.save(tmp_path / "imp")
        other = Table("other", [("x", "float64")])
        assert ImprintsManager().load({"other": other}, tmp_path / "imp") == 0


class TestDatabasePersistence:
    def test_pointclouddb_round_trip_with_imprints(self, tmp_path):
        rng = np.random.default_rng(6)
        db = PointCloudDB(directory=tmp_path / "farm")
        table = db.create_pointcloud("ahn2")
        batch = {
            name: np.zeros(2000, dtype=table.column(name).dtype)
            for name in table.column_names
        }
        batch["x"] = rng.uniform(0, 100, 2000)
        batch["y"] = rng.uniform(0, 100, 2000)
        db.load_points("ahn2", batch)
        before = db.spatial_select("ahn2", Box(10, 10, 40, 40))
        assert db.manager.builds >= 1
        db.save()

        back = PointCloudDB.load(tmp_path / "farm")
        after = back.spatial_select("ahn2", Box(10, 10, 40, 40))
        np.testing.assert_array_equal(np.sort(after.oids), np.sort(before.oids))
        assert back.manager.builds == 0  # imprints restored, not rebuilt

"""Tests for imprint persistence (save/load with the database)."""

import numpy as np
import pytest

from repro import Box, PointCloudDB
from repro.core.imprints import ImprintsManager, SegmentedImprints
from repro.core.imprints.persist import ImprintFile, save_segmented
from repro.engine import durable
from repro.engine.column import Column
from repro.engine.durable import StorageError
from repro.engine.select import range_select
from repro.engine.table import Table


def make_column(n=5000, seed=0):
    rng = np.random.default_rng(seed)
    return Column("x", "float64", data=rng.uniform(0, 1000, n))


def restore(col, path):
    """The imprint file at ``path`` read whole and restored over ``col``."""
    return ImprintFile(durable.read_file(path, "imprint file"), path).restore(col)


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
        back = restore(col, path)
        for lo, hi in [(0, 10), (500, 600), (990, 1000), (-5, 2000)]:
            np.testing.assert_array_equal(back.query(lo, hi), imp.query(lo, hi))
        assert back.nbytes == imp.nbytes
        assert back.vpc == imp.vpc

    def test_loaded_imprint_exact(self, tmp_path):
        col = make_column(seed=1)
        path = tmp_path / "x.imprint"
        saved(col, path)
        back = restore(col, path)
        np.testing.assert_array_equal(
            back.query(100, 200), range_select(col, 100, 200)
        )

    def test_grown_column_is_stale_not_error(self, tmp_path):
        col = make_column(seed=2)
        path = tmp_path / "x.imprint"
        saved(col, path)
        col.append([1.0, 2.0])
        back = restore(col, path)
        assert back.stale

    def test_shorter_column_rejected(self, tmp_path):
        path = tmp_path / "x.imprint"
        saved(make_column(seed=3), path)
        small = make_column(n=10, seed=3)
        with pytest.raises(StorageError, match="holds only"):
            restore(small, path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError, match="no imprint"):
            restore(make_column(), tmp_path / "ghost.imprint")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.imprint"
        path.write_bytes(b"XXXX" + b"\x00" * 30)
        with pytest.raises(StorageError, match="magic"):
            restore(make_column(), path)

    def test_truncated(self, tmp_path):
        col = make_column(seed=4)
        path = tmp_path / "x.imprint"
        saved(col, path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(StorageError, match="checksum"):
            restore(col, path)


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

    def test_quarantine_warning_points_at_the_load_caller(self, tmp_path):
        table = self._table()
        mgr = ImprintsManager()
        mgr.ensure(table, "x")
        mgr.save(tmp_path / "imp")
        (path,) = sorted((tmp_path / "imp").glob("*.imprint"))
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.warns(RuntimeWarning, match="quarantined") as record:
            ImprintsManager().load({"pts": table}, tmp_path / "imp")
        assert [w.filename for w in record] == [__file__]

    def test_unreadable_files_are_contained(self, tmp_path, monkeypatch):
        """An ``.imprint`` entry that cannot be read — a directory, or a
        file the process may not open — is reported by verification and
        quarantined by load, never raised."""
        import pathlib

        table = self._table()
        mgr = ImprintsManager()
        want = mgr.range_select(table, "x", 10, 20)
        mgr.save(tmp_path / "imp")
        (tmp_path / "imp" / "dir.imprint").mkdir()
        locked = tmp_path / "imp" / "locked.imprint"
        locked.write_bytes(b"RIMS")
        real = pathlib.Path.read_bytes

        def read_bytes(self):
            if self.name == "locked.imprint":
                raise PermissionError(13, "Permission denied", str(self))
            return real(self)

        monkeypatch.setattr(pathlib.Path, "read_bytes", read_bytes)
        issues = ImprintsManager.verify_directory(tmp_path / "imp")
        assert len(issues) == 2
        assert all("cannot read imprint file" in issue for issue in issues)

        mgr2 = ImprintsManager()
        with pytest.warns(RuntimeWarning, match="cannot read imprint file"):
            assert mgr2.load({"pts": table}, tmp_path / "imp") == 1
        assert len(mgr2.quarantined) == 2
        assert not locked.exists() and not (tmp_path / "imp" / "dir.imprint").exists()
        np.testing.assert_array_equal(mgr2.range_select(table, "x", 10, 20), want)
        assert mgr2.builds == 0

    def test_load_and_verify_open_each_file_once(self, tmp_path, monkeypatch):
        import builtins
        import io

        table = Table("pts", [("x", "float64"), ("y", "float64"), ("z", "float64")])
        rng = np.random.default_rng(9)
        table.append_columns({name: rng.uniform(0, 100, 3000) for name in "xyz"})
        mgr = ImprintsManager()
        for name in "xyz":
            mgr.ensure(table, name)
        mgr.save(tmp_path / "imp")
        opened = []

        def counting(real):
            def wrapper(file, *args, **kwargs):
                if str(file).endswith(".imprint"):
                    opened.append(str(file))
                return real(file, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(io, "open", counting(io.open))
        monkeypatch.setattr(builtins, "open", counting(builtins.open))
        assert ImprintsManager().load({"pts": table}, tmp_path / "imp") == 3
        assert len(opened) == 3
        opened.clear()
        assert ImprintsManager.verify_directory(tmp_path / "imp") == []
        assert len(opened) == 3

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

"""Unit tests for repro.engine.storage and repro.engine.catalog."""

import struct

import numpy as np
import pytest

from repro.engine.catalog import CatalogError, Database
from repro.engine.column import Column
from repro.engine.storage import (
    StorageError,
    copy_binary,
    dump_array,
    load_array,
    load_column,
    load_table,
    save_column,
    save_table,
)
from repro.engine.table import Table


class TestArrayDump:
    @pytest.mark.parametrize(
        "dtype", ["int8", "uint16", "int32", "int64", "float32", "float64"]
    )
    def test_round_trip_dtypes(self, tmp_path, dtype):
        arr = (np.arange(100) % 7).astype(dtype)
        path = tmp_path / "a.col"
        dump_array(arr, path)
        back = load_array(path)
        assert back.dtype == arr.dtype
        np.testing.assert_array_equal(back, arr)

    def test_empty_array(self, tmp_path):
        path = tmp_path / "e.col"
        dump_array(np.empty(0, dtype=np.float64), path)
        assert load_array(path).shape == (0,)

    def test_reject_2d(self, tmp_path):
        with pytest.raises(StorageError):
            dump_array(np.zeros((2, 2)), tmp_path / "x.col")

    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError, match="not found"):
            load_array(tmp_path / "nope.col")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.col"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(StorageError, match="magic"):
            load_array(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.col"
        dump_array(np.arange(10, dtype=np.int64), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(StorageError, match="payload"):
            load_array(path)

    def test_version_1_header_is_unsupported(self, tmp_path):
        # The CRC-less v1 layout (magic, version, type, count, payload)
        # is not read: every readable file carries a checksum.
        path = tmp_path / "v1.col"
        payload = np.arange(10, dtype="<i8").tobytes()
        path.write_bytes(struct.pack("<4sHHQ", b"RCOL", 1, 0, 10) + payload)
        with pytest.raises(StorageError, match="unsupported version 1"):
            load_array(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "h.col"
        path.write_bytes(b"RC")
        with pytest.raises(StorageError, match="header"):
            load_array(path)


class TestColumnAndTablePersistence:
    def test_column_round_trip(self, tmp_path):
        col = Column("z", "float32", data=np.linspace(0, 1, 50, dtype=np.float32))
        save_column(col, tmp_path / "z.col")
        back = load_column("z", tmp_path / "z.col")
        assert back.name == "z"
        np.testing.assert_array_equal(back.values, col.values)

    def _make_table(self):
        t = Table("pts", [("x", "float64"), ("cls", "uint8")])
        t.append_columns(
            {"x": [1.0, 2.0, 3.0], "cls": np.array([2, 6, 2], dtype=np.uint8)}
        )
        return t

    def test_table_round_trip(self, tmp_path):
        t = self._make_table()
        save_table(t, tmp_path / "pts")
        back = load_table(tmp_path / "pts")
        assert back.name == "pts"
        assert back.schema == t.schema
        np.testing.assert_array_equal(back.column("x").values, [1.0, 2.0, 3.0])

    def test_load_missing_table(self, tmp_path):
        with pytest.raises(StorageError):
            load_table(tmp_path / "absent")

    def test_row_count_mismatch_detected(self, tmp_path):
        t = self._make_table()
        save_table(t, tmp_path / "pts")
        # Corrupt one column file by replacing it with a shorter dump.
        dump_array(np.array([1.0]), tmp_path / "pts" / "x.col")
        with pytest.raises(Exception):
            load_table(tmp_path / "pts")

    def test_copy_binary_appends(self, tmp_path):
        t = self._make_table()
        dump_array(np.array([9.0, 10.0]), tmp_path / "x.col")
        dump_array(np.array([1, 1], dtype=np.uint8), tmp_path / "cls.col")
        first = copy_binary(
            t, {"x": tmp_path / "x.col", "cls": tmp_path / "cls.col"}
        )
        assert first == 3
        assert len(t) == 5
        assert t.column("x").values[4] == 10.0


class TestDatabase:
    def test_create_and_lookup(self):
        db = Database()
        t = db.create_table("a", [("v", "int64")])
        assert db.table("a") is t
        assert "a" in db
        assert db.table_names == ["a"]

    def test_duplicate_table_raises(self):
        db = Database()
        db.create_table("a", [("v", "int64")])
        with pytest.raises(CatalogError):
            db.create_table("a", [("v", "int64")])

    def test_drop(self):
        db = Database()
        db.create_table("a", [("v", "int64")])
        db.drop_table("a")
        assert "a" not in db
        with pytest.raises(CatalogError):
            db.drop_table("a")

    def test_unknown_table_raises(self):
        with pytest.raises(CatalogError):
            Database().table("ghost")

    def test_save_load_round_trip(self, tmp_path):
        db = Database(directory=tmp_path / "farm")
        t = db.create_table("pts", [("x", "float64")])
        t.append_columns({"x": [1.0, 2.0]})
        db.create_table("empty", [("y", "int32")])
        db.save()
        back = Database.load(tmp_path / "farm")
        assert back.table_names == ["empty", "pts"]
        np.testing.assert_array_equal(back.table("pts").column("x").values, [1.0, 2.0])
        assert len(back.table("empty")) == 0

    def test_save_without_directory_raises(self):
        with pytest.raises(ValueError):
            Database().save()

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(StorageError):
            Database.load(tmp_path / "absent")


class TestCompressedSidecar:
    """The v3 ``.colz`` sidecar lifecycle: write, attach, corrupt,
    quarantine, re-encode, verify."""

    @staticmethod
    def _table(n=50_000):
        rng = np.random.default_rng(5)
        table = Table("pts", [("x", "int64"), ("cls", "uint8")])
        table.append_columns(
            {
                "x": np.sort(rng.integers(0, 10**6, n)),
                "cls": (rng.integers(0, 3, n)).astype(np.uint8),
            }
        )
        table.compress(segment_rows=8192)
        return table

    def test_save_writes_sidecars(self, tmp_path):
        table = self._table()
        save_table(table, tmp_path / "pts")
        assert (tmp_path / "pts" / "x.colz").exists()
        assert (tmp_path / "pts" / "cls.colz").exists()

    def test_load_attaches_mirrors(self, tmp_path):
        table = self._table()
        save_table(table, tmp_path / "pts")
        back = load_table(tmp_path / "pts")
        packed = back.column("x").packed
        assert packed is not None
        np.testing.assert_array_equal(
            packed.decode_all(), table.column("x").values
        )

    def test_sidecar_standalone_round_trip(self, tmp_path):
        from repro.engine.storage import dump_compressed, load_compressed

        table = self._table(10_000)
        packed = table.column("x").packed
        path = tmp_path / "x.colz"
        dump_compressed(packed, path)
        back = load_compressed(path)
        np.testing.assert_array_equal(back.decode_all(), packed.decode_all())
        # A .colz also loads through the generic array reader (v3 is a
        # .col generation, not a private format).
        np.testing.assert_array_equal(
            load_array(path), table.column("x").values
        )

    def test_corrupt_sidecar_quarantined_on_load(self, tmp_path):
        table = self._table()
        save_table(table, tmp_path / "pts")
        side = tmp_path / "pts" / "x.colz"
        raw = bytearray(side.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        side.write_bytes(bytes(raw))

        issues = []
        with pytest.warns(RuntimeWarning, match="quarantined"):
            back = load_table(tmp_path / "pts", sidecar_issues=issues)
        assert issues and "x.colz" in issues[0]
        assert (tmp_path / "pts" / "x.colz.quarantined").exists()
        # The mirror was re-encoded from the plain column: still usable.
        assert back.column("x").packed is not None
        np.testing.assert_array_equal(
            back.column("x").packed.decode_all(), table.column("x").values
        )

    def test_verify_reports_corrupt_sidecar(self, tmp_path):
        from repro.engine.storage import verify_table

        table = self._table()
        save_table(table, tmp_path / "pts")
        assert verify_table(tmp_path / "pts") == []
        side = tmp_path / "pts" / "x.colz"
        raw = bytearray(side.read_bytes())
        raw[-3] ^= 0x01
        side.write_bytes(bytes(raw))
        issues = verify_table(tmp_path / "pts")
        assert any("x.colz" in issue for issue in issues)

    def test_recover_table_surfaces_corrupt_sidecar(self, tmp_path):
        from repro.engine.storage import recover_table

        table = self._table()
        save_table(table, tmp_path / "pts")
        side = tmp_path / "pts" / "x.colz"
        side.write_bytes(side.read_bytes()[:40])

        with pytest.warns(RuntimeWarning):
            recovered, issues = recover_table(tmp_path / "pts")
        assert any("x.colz" in issue for issue in issues)
        # Re-encoded from the plain column, ready for the re-save that
        # Database.recover performs.
        assert recovered.column("x").packed is not None

    def test_database_recover_rewrites_sidecar(self, tmp_path):
        from repro.engine.storage import verify_table

        table = self._table()
        db = Database(directory=tmp_path / "db")
        db.register(table)
        db.save()
        side = tmp_path / "db" / "pts" / "x.colz"
        side.write_bytes(side.read_bytes()[:40])

        with pytest.warns(RuntimeWarning):
            Database.recover(tmp_path / "db")
        # Full repair loop: quarantine, re-encode, re-save.
        assert side.exists()
        assert (tmp_path / "db" / "pts" / "x.colz.quarantined").exists()
        assert verify_table(tmp_path / "db" / "pts") == []

    def test_stale_sidecar_ignored(self, tmp_path):
        from repro.engine.storage import dump_compressed, sidecar_path
        from repro.engine.compressed import CompressedColumn

        table = self._table()
        save_table(table, tmp_path / "pts")
        # Replace the sidecar with one encoding different data (stale
        # mirror after an append the sidecar never saw).
        other = CompressedColumn.from_values(
            "x", np.arange(100, dtype=np.int64), 8192
        )
        dump_compressed(other, sidecar_path(tmp_path / "pts", "x"))
        issues = []
        back = load_table(tmp_path / "pts", sidecar_issues=issues)
        # Stale is not corruption: no quarantine, mirror simply absent.
        assert issues == []
        assert back.column("x").packed is None

    def test_database_health_carries_sidecar_issues(self, tmp_path):
        table = self._table()
        db = Database(directory=tmp_path / "db")
        db.register(table)
        db.save()
        side = tmp_path / "db" / "pts" / "x.colz"
        raw = bytearray(side.read_bytes())
        raw[60] ^= 0xFF
        side.write_bytes(bytes(raw))
        with pytest.warns(RuntimeWarning):
            loaded = Database.load(tmp_path / "db")
        health = loaded.health["pts"]
        assert health["ok"] is True
        assert any("x.colz" in issue for issue in health["issues"])

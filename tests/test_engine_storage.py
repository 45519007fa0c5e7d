"""Unit tests for repro.engine.storage and repro.engine.catalog."""

import gc
import hashlib
import mmap
import re
import struct
import sys
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.catalog import CatalogError, Database
from repro.engine.column import TYPE_MAP
from repro.engine.durable import InjectedCrash
from repro.engine.storage import (
    StorageError,
    copy_binary,
    dump_array,
    load_array,
    recover_table,
    save_table,
    verify_table,
)
from repro.engine.table import Table
from tests import faults


def _reference_col(arr):
    """A ``.col`` v4 file built from the layout in storage.py's docstring:
    magic, version u16, type u16 (TYPE_MAP order), count u64, crc32 u32
    over the 64-byte header with the crc zeroed + the little-endian
    payload, 44 zero bytes of padding, the payload at byte 64."""
    code = list(TYPE_MAP.values()).index(arr.dtype)
    payload = arr.astype(arr.dtype.newbyteorder("<")).tobytes()
    pad = bytes(44)
    zeroed = struct.pack("<4sHHQI", b"RCOL", 4, code, arr.shape[0], 0)
    crc = zlib.crc32(zeroed + pad + payload) & 0xFFFFFFFF
    header = struct.pack("<4sHHQI", b"RCOL", 4, code, arr.shape[0], crc)
    return header + pad + payload


def _traced_peak(fn):
    """Peak bytes Python and numpy allocated while ``fn`` ran."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFormatUnchanged:
    """The bytes on disk and the corruption contract of ``.col`` v4."""

    @settings(max_examples=60, deadline=None)
    @given(
        type_name=st.sampled_from(list(TYPE_MAP)),
        n=st.sampled_from([0, 1, 7, 4099]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_match_reference_layout(
        self, type_name, n, seed, tmp_path_factory
    ):
        dtype = TYPE_MAP[type_name]
        rng = np.random.default_rng(seed)
        if dtype == np.bool_:
            arr = rng.integers(0, 2, n).astype(bool)
        else:
            # Raw bit patterns: NaNs, infinities and extremes included.
            arr = np.frombuffer(rng.bytes(n * dtype.itemsize), dtype=dtype)
        path = tmp_path_factory.mktemp("ref") / "a.col"
        written = dump_array(arr, path)
        raw = path.read_bytes()
        assert raw == _reference_col(arr)
        assert written == len(raw)
        back = load_array(path)
        assert back.dtype == dtype
        assert back.tobytes() == arr.tobytes()

    def test_flipped_payload_bit_is_a_checksum_mismatch(self, tmp_path):
        path = tmp_path / "f.col"
        dump_array(np.arange(1000, dtype=np.float64), path)
        raw = bytearray(path.read_bytes())
        raw[64 + 4000] ^= 0x01
        path.write_bytes(bytes(raw))
        before = faults.counter_value("durability.checksum_failures")
        message = f"{path}: checksum mismatch"
        with pytest.raises(StorageError, match=f"^{re.escape(message)}$"):
            load_array(path)
        assert faults.counter_value("durability.checksum_failures") == before + 1

    def test_truncated_payload_names_both_lengths(self, tmp_path):
        path = tmp_path / "t.col"
        dump_array(np.arange(1000, dtype=np.float64), path)
        path.write_bytes(path.read_bytes()[:-3])
        message = f"{path}: expected 8000 payload bytes, got 7997"
        with pytest.raises(StorageError, match=f"^{re.escape(message)}$"):
            load_array(path)

    def test_corrupt_count_fails_as_short_payload(self, tmp_path):
        # A count far past the file's size must not be allocated first.
        path = tmp_path / "c.col"
        dump_array(np.arange(10, dtype=np.int64), path)
        raw = bytearray(path.read_bytes())
        raw[8:16] = struct.pack("<Q", 2**60)
        path.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match="payload bytes, got 80$"):
            load_array(path)

    @pytest.mark.parametrize(
        "at_byte", [64, 64 + 4000], ids=["seam", "mid_payload"]
    )
    def test_torn_write_leaves_previous_file(self, tmp_path, at_byte):
        # 64 is the header/payload seam; 64 + 4000 is mid-payload.
        path = tmp_path / "v.col"
        dump_array(np.arange(7, dtype=np.int64), path)
        before = path.read_bytes()
        with faults.torn_write(at_byte=at_byte):
            with pytest.raises(InjectedCrash):
                dump_array(np.arange(1000, dtype=np.float64), path)
        assert path.read_bytes() == before
        np.testing.assert_array_equal(load_array(path), np.arange(7))
        wreckage = list(tmp_path.glob("v.col.tmp.*"))
        assert wreckage and wreckage[0].stat().st_size == at_byte


class TestOneCopy:
    """Open and save move a column's bytes once: no whole-payload
    ``bytes``, concatenation or cast copy on either side."""

    N = 1_000_000
    PAYLOAD = N * 8

    def test_load_table_holds_one_copy(self, tmp_path):
        table = Table("pts", [("x", "float64")])
        table.append_columns({"x": np.arange(self.N, dtype=np.float64)})
        save_table(table, tmp_path / "pts")
        del table
        peak = _traced_peak(lambda: recover_table(tmp_path / "pts"))
        assert peak <= 1.1 * self.PAYLOAD, peak / self.PAYLOAD

    def test_dump_array_copies_nothing(self, tmp_path):
        arr = np.arange(self.N, dtype=np.float64)
        peak = _traced_peak(lambda: dump_array(arr, tmp_path / "x.col"))
        assert peak <= 0.1 * self.PAYLOAD, peak / self.PAYLOAD

    def test_loaded_column_appends_after_adopting(self, tmp_path):
        table = Table("pts", [("x", "float64"), ("cls", "uint8")])
        table.append_columns({"x": [1.0, 2.0], "cls": [3, 4]})
        save_table(table, tmp_path / "pts")
        back = recover_table(tmp_path / "pts")[0]
        back.append_columns({"x": [5.0], "cls": [6]})
        np.testing.assert_array_equal(back.column("x").values, [1.0, 2.0, 5.0])
        np.testing.assert_array_equal(back.column("cls").values, [3, 4, 6])


def _vm_rss():
    """This process's resident set size in bytes (Linux only)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise AssertionError("no VmRSS line")


def _mapping_of(array):
    """The ``mmap`` an array's buffer lives in, or ``None``."""
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    return base if isinstance(base, mmap.mmap) else None


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestMappedColumns:
    """An open maps each plain payload copy-on-write after streaming its
    CRC: columns are the file's pages, and the file never changes under
    them."""

    def test_loaded_column_is_an_aligned_file_mapping(self, tmp_path):
        table = Table("pts", [("x", "float64"), ("c", "uint8")])
        table.append_columns({"x": np.arange(5000.0), "c": np.arange(5000) % 7})
        save_table(table, tmp_path / "pts")
        values = recover_table(tmp_path / "pts")[0].column("x").values
        assert _mapping_of(values) is not None
        assert values.flags.aligned
        assert values.ctypes.data % 64 == 0
        np.testing.assert_array_equal(values, np.arange(5000.0))
        if sys.platform.startswith("linux"):
            col = str(tmp_path / "pts" / "x.col")
            with open("/proc/self/maps") as fh:
                spans = [line.split() for line in fh]
            assert any(
                int(span[0].split("-")[0], 16)
                <= values.ctypes.data
                < int(span[0].split("-")[1], 16)
                and span[-1] == col
                for span in spans
            )

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc/self/status"
    )
    def test_open_faults_in_only_what_is_read(self, tmp_path):
        n = 3_300_000  # four float64 columns: 105.6 MB of payload
        names = ["x", "y", "z", "t"]
        table = Table("pts", [(name, "float64") for name in names])
        values = np.arange(n, dtype=np.float64)
        table.append_columns({name: values for name in names})
        save_table(table, tmp_path / "pts")
        del table, values
        gc.collect()
        payload = 4 * n * 8
        before = _vm_rss()
        loaded = recover_table(tmp_path / "pts")[0]
        opened = _vm_rss()
        assert opened - before < 0.1 * payload, (opened - before) / payload
        assert loaded.column("y").values.sum() == n * (n - 1) / 2
        one_column = _vm_rss() - opened
        assert 0.8 * n * 8 <= one_column <= 1.3 * n * 8, one_column / (n * 8)

    def test_truncate_then_append_leaves_the_file_alone(self, tmp_path):
        table = Table("pts", [("x", "float64")])
        table.append_columns({"x": np.arange(1000.0)})
        save_table(table, tmp_path / "pts")
        col = tmp_path / "pts" / "x.col"
        digest = _sha256(col)
        loaded = recover_table(tmp_path / "pts")[0]
        loaded.truncate(990)
        loaded.append_columns({"x": np.full(10, -1.0)})
        # The append fit the adopted buffer: it wrote into mapped pages.
        assert _mapping_of(loaded.column("x").values) is not None
        np.testing.assert_array_equal(loaded.column("x").values[-10:], -1.0)
        assert _sha256(col) == digest
        np.testing.assert_array_equal(load_array(col), np.arange(1000.0))

    def test_save_over_the_loaded_directory_keeps_open_values(self, tmp_path):
        db = Database(directory=tmp_path / "db")
        db.create_table("pts", [("x", "float64"), ("k", "int32")])
        db.table("pts").append_columns(
            {"x": np.arange(4096.0), "k": np.arange(4096)}
        )
        db.save()
        opened = Database.load(tmp_path / "db")
        x = opened.table("pts").column("x").values
        assert _mapping_of(x) is not None
        # Rewrite every file of the directory the open table maps.
        other = Database(directory=tmp_path / "db")
        other.create_table("pts", [("x", "float64"), ("k", "int32")])
        other.table("pts").append_columns(
            {"x": -np.arange(4096.0), "k": -np.arange(4096)}
        )
        other.save()
        opened.save()
        np.testing.assert_array_equal(x, np.arange(4096.0))
        np.testing.assert_array_equal(
            opened.table("pts").column("k").values, np.arange(4096)
        )
        back = Database.load(tmp_path / "db").table("pts")
        np.testing.assert_array_equal(back.column("x").values, np.arange(4096.0))

    def test_flips_in_padding_and_at_the_payload_seam_are_caught(self, tmp_path):
        table = Table("pts", [("x", "float64")])
        table.append_columns({"x": np.arange(100.0)})
        save_table(table, tmp_path / "pts")
        col = tmp_path / "pts" / "x.col"
        good = col.read_bytes()
        message = f"{col}: checksum mismatch"
        for at in list(range(20, 64)) + [64]:
            raw = bytearray(good)
            raw[at] ^= 0x01
            col.write_bytes(bytes(raw))
            before = faults.counter_value("durability.checksum_failures")
            with pytest.raises(StorageError, match=f"^{re.escape(message)}$"):
                load_array(col)
            assert faults.counter_value("durability.checksum_failures") == before + 1
            if at in (20, 63, 64):
                with pytest.raises(StorageError, match=re.escape(message)):
                    recover_table(tmp_path / "pts")[0]
                assert verify_table(tmp_path / "pts") == [message]

    def test_version_2_header_is_unsupported(self, tmp_path):
        # The 20-byte-header layout: its float64 payloads cannot be
        # mapped aligned, and it is not read.
        path = tmp_path / "v2.col"
        payload = np.arange(10, dtype="<f8").tobytes()
        code = list(TYPE_MAP).index("float64")
        zeroed = struct.pack("<4sHHQI", b"RCOL", 2, code, 10, 0)
        crc = zlib.crc32(zeroed + payload) & 0xFFFFFFFF
        path.write_bytes(struct.pack("<4sHHQI", b"RCOL", 2, code, 10, crc) + payload)
        with pytest.raises(StorageError, match="unsupported version 2"):
            load_array(path)


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
    def _make_table(self):
        t = Table("pts", [("x", "float64"), ("cls", "uint8")])
        t.append_columns(
            {"x": [1.0, 2.0, 3.0], "cls": np.array([2, 6, 2], dtype=np.uint8)}
        )
        return t

    def test_table_round_trip(self, tmp_path):
        t = self._make_table()
        save_table(t, tmp_path / "pts")
        back = recover_table(tmp_path / "pts")[0]
        assert back.name == "pts"
        assert back.schema == t.schema
        np.testing.assert_array_equal(back.column("x").values, [1.0, 2.0, 3.0])

    def test_load_missing_table(self, tmp_path):
        with pytest.raises(StorageError):
            recover_table(tmp_path / "absent")

    def test_row_count_mismatch_detected(self, tmp_path):
        t = self._make_table()
        save_table(t, tmp_path / "pts")
        # Corrupt one column file by replacing it with a shorter dump.
        dump_array(np.array([1.0]), tmp_path / "pts" / "x.col")
        back, issues = recover_table(tmp_path / "pts")
        assert len(back) == 1
        assert any("rolled back to 1" in issue for issue in issues), issues
        np.testing.assert_array_equal(back.column("x").values, [1.0])
        np.testing.assert_array_equal(back.column("cls").values, [2])

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
        back = recover_table(tmp_path / "pts")[0]
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
        # Only load_compressed reads a sidecar: the plain-column reader
        # rejects the v3 layout.
        with pytest.raises(StorageError):
            load_array(path)

    def test_corrupt_sidecar_quarantined_on_load(self, tmp_path):
        table = self._table()
        save_table(table, tmp_path / "pts")
        side = tmp_path / "pts" / "x.colz"
        raw = bytearray(side.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        side.write_bytes(bytes(raw))

        with pytest.warns(RuntimeWarning, match="quarantined"):
            back, issues = recover_table(tmp_path / "pts")
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
        back, issues = recover_table(tmp_path / "pts")
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

    def test_sidecar_warning_points_at_the_load_caller(self, tmp_path):
        db = Database(directory=tmp_path / "db")
        db.register(self._table())
        db.save()
        side = tmp_path / "db" / "pts" / "x.colz"
        side.write_bytes(side.read_bytes()[:40])
        with pytest.warns(RuntimeWarning, match="quarantined") as record:
            Database.load(tmp_path / "db")
        assert [w.filename for w in record] == [__file__]


class TestStoreBytes:
    """Every file of a small store, byte for byte: the ``.col``,
    ``.colz`` and ``.imprint`` codecs and the JSON metadata may change
    how they are written, never what."""

    #: SHA-256 of each file of :meth:`_save_store`'s store, recorded with
    #: the codecs as they stood before they shared one module.
    PINNED = {
        "_catalog.json": "33655a0c433e043bc8d9b2e7c9f9b7730a0a9326f66e4ad13427dea17cb565e7",
        "_imprints/0000.pts_x.imprint": "bb6e33e7f56b6dc30856efe0ed83e29ef2325e0043aadb7678e3ff104fd0dded",
        "_imprints/0001.pts_y.imprint": "da80c915bfa4a3093a90c2242ef7c7e02ea3371c7fc192f0cb7c5b20e0972669",
        "pts/k.col": "1a7f439c3842d8b57a7c5366d4f6fa664403d8725a4130c0b6ca12b0b8ff6cce",
        "pts/k.colz": "17a7cae8c63612c7f145570f5bd18679426afbab7bfafeab88bdf4fc9bdc7661",
        "pts/schema.json": "5f1b2ce3bfc099567c9e8e0dd2a2087f5cf2e22b5da53475c425931d7d710404",
        "pts/x.col": "1218ca26ec4168d5461a415867c515aac7462be45bdce6000c256f50fe5fca5a",
        "pts/y.col": "ce61279d5d7d26ca19236bdd8c2a421b4c878926a7268ebc3b146217852a8e72",
        "roads/id.col": "b9879d4495a16e37b7cad02f380e9776ddf2972cdd0072fc84bd308de6744d20",
        "roads/schema.json": "50d40257cc78a4b5582739c1334b93f4122e6e6ca65ad550542d29b3ad5b0967",
        "roads/w.col": "a0265d26bd56f70029039d4db6665e019b581af579a809788cfd1ab121065370",
    }

    @staticmethod
    def _save_store(root):
        """Two tables, one compressed column, x/y imprints, one save."""
        from repro.api import PointCloudDB

        db = PointCloudDB(directory=root)
        rng = np.random.default_rng(11)
        pts = db.db.create_table(
            "pts", [("x", "float64"), ("y", "float64"), ("k", "int32")]
        )
        pts.append_columns(
            {
                "x": rng.uniform(0, 100, 5000),
                "y": rng.uniform(0, 100, 5000),
                "k": rng.integers(0, 4, 5000).astype(np.int32),
            }
        )
        roads = db.db.create_table("roads", [("id", "int64"), ("w", "float32")])
        roads.append_columns(
            {"id": np.arange(40), "w": rng.uniform(2, 9, 40).astype(np.float32)}
        )
        db.compress("pts", columns=["k"], segment_rows=1024)
        for column in "xy":
            db.manager.ensure(pts, column)
        db.save()

    def test_every_file_matches_its_pinned_digest(self, tmp_path):
        self._save_store(tmp_path)
        digests = {
            str(path.relative_to(tmp_path)): hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
            for path in sorted(tmp_path.rglob("*"))
            if path.is_file()
        }
        assert digests == self.PINNED


class TestMultiSegmentImprintBytes:
    """The ``.imprint`` files of a table with several full segments, byte
    for byte: a skewed float64 column takes the bucketed binning, a
    uint16 column the per-value table, and every segment must come out as
    the plain ``searchsorted`` build wrote it."""

    #: SHA-256 of each imprint file of :meth:`_save_store`'s store,
    #: recorded with the build that bins every value by ``searchsorted``.
    PINNED = {
        "_imprints/0000.pts_intensity.imprint": "a402b2eacfa9eff0066d9add4f9e606e27f5e682222ea6739f55a625e1794f97",
        "_imprints/0001.pts_z.imprint": "d4e125b067cf165a9c090898f8a10613fd66a1cce467bafc2158681b4283899c",
    }

    @staticmethod
    def _save_store(root):
        """3 full 64 Ki-row segments and a partial one per column."""
        from repro.api import PointCloudDB

        db = PointCloudDB(directory=root)
        rng = np.random.default_rng(23)
        n = 3 * 65536 + 1000
        pts = db.db.create_table("pts", [("z", "float64"), ("intensity", "uint16")])
        pts.append_columns(
            {
                "z": np.round(rng.lognormal(1.0, 0.8, n), 2) - 2.0,
                "intensity": rng.gamma(2.0, 300.0, n).astype(np.uint16),
            }
        )
        for column in ("z", "intensity"):
            db.manager.ensure(pts, column)
        db.save()

    def test_imprint_files_match_their_pinned_digests(self, tmp_path):
        self._save_store(tmp_path)
        digests = {
            str(path.relative_to(tmp_path)): hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
            for path in sorted(tmp_path.glob("_imprints/*"))
        }
        assert digests == self.PINNED

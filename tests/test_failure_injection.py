"""Failure injection: corrupt inputs must fail loudly and cleanly.

Databases live or die by how they handle broken inputs.  These tests feed
corrupted files, malformed WKT/SQL and random bytes into every parser in
the repo and require a *typed* error — never a silent wrong answer, an
unrelated exception (AttributeError, struct.error...), or a hang.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.storage import StorageError, dump_array, load_array, recover_table
from repro.gis.wkt import WKTError, loads as wkt_loads
from repro.las.header import HEADER_SIZE, LasFormatError, LasHeader
from repro.las.laz import read_laz, write_laz
from repro.las.reader import read_las
from repro.las.writer import write_las
from repro.lastools.lasindex import LasIndex
from repro.sql.executor import Session, SqlExecutionError
from repro.sql.functions import SqlFunctionError
from repro.sql.lexer import SqlSyntaxError


def sample_points(n=200, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "x": rng.uniform(0, 100, n),
        "y": rng.uniform(0, 100, n),
        "z": rng.uniform(0, 10, n),
    }


class TestCorruptLas:
    def test_bitflips_in_header(self, tmp_path):
        path = tmp_path / "t.las"
        write_las(path, sample_points())
        raw = bytearray(path.read_bytes())
        # Flip bytes across the header; every corruption must either still
        # parse (flipped a benign field) or raise LasFormatError.
        for offset in (0, 4, 24, 25, 96, 104, 105, 107):
            mutated = bytearray(raw)
            mutated[offset] ^= 0xFF
            path.write_bytes(bytes(mutated))
            try:
                read_las(path)
            except LasFormatError:
                pass

    def test_zero_length_file(self, tmp_path):
        path = tmp_path / "empty.las"
        path.write_bytes(b"")
        with pytest.raises(LasFormatError):
            read_las(path)

    def test_header_only_file_with_claimed_points(self, tmp_path):
        header = LasHeader(point_format=0, n_points=1000)
        path = tmp_path / "lying.las"
        path.write_bytes(header.pack())
        with pytest.raises(LasFormatError, match="truncated"):
            read_las(path)

    def test_laz_field_corruption(self, tmp_path):
        path = tmp_path / "t.laz"
        write_laz(path, sample_points())
        raw = bytearray(path.read_bytes())
        raw[HEADER_SIZE + 50] ^= 0xFF  # somewhere in the first payload
        path.write_bytes(bytes(raw))
        # zlib corruption must surface as the repo's typed format error,
        # never a raw zlib.error or a numpy shape explosion.
        with pytest.raises(LasFormatError, match="corrupt LAZ"):
            read_laz(path)

    @settings(max_examples=50, deadline=None)
    @given(junk=st.binary(min_size=0, max_size=400))
    def test_random_bytes_never_crash_header_parser(self, junk):
        try:
            LasHeader.unpack(junk)
        except LasFormatError:
            pass


class TestCorruptColumnFiles:
    def test_flipped_type_code(self, tmp_path):
        path = tmp_path / "c.col"
        dump_array(np.arange(10, dtype=np.int64), path)
        raw = bytearray(path.read_bytes())
        raw[6] = 0xEE  # type code byte
        path.write_bytes(bytes(raw))
        with pytest.raises(StorageError):
            load_array(path)

    def test_table_with_missing_column_file(self, tmp_path):
        from repro.engine.storage import save_table
        from repro.engine.table import Table

        t = Table("pts", [("a", "int64"), ("b", "int64")])
        t.append_columns({"a": [1, 2], "b": [3, 4]})
        save_table(t, tmp_path / "pts")
        (tmp_path / "pts" / "b.col").unlink()
        with pytest.raises(StorageError):
            recover_table(tmp_path / "pts")

    def test_table_with_corrupt_schema_json(self, tmp_path):
        from repro.engine.storage import save_table
        from repro.engine.table import Table

        t = Table("pts", [("a", "int64")])
        t.append_columns({"a": [1]})
        save_table(t, tmp_path / "pts")
        (tmp_path / "pts" / "schema.json").write_text("{not json")
        with pytest.raises(Exception):
            recover_table(tmp_path / "pts")

    @settings(max_examples=50, deadline=None)
    @given(junk=st.binary(min_size=0, max_size=200))
    def test_random_bytes_never_crash_column_loader(self, junk, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("colfuzz")
        path = tmp / "junk.col"
        path.write_bytes(junk)
        try:
            load_array(path)
        except StorageError:
            pass


class TestTruncatedPersistentFiles:
    """Truncations and bit flips at sampled offsets must raise typed
    errors — ``StorageError`` — never a raw
    ``struct.error`` or a silently wrong array (the v2 ``.col`` / v3
    ``.imprint`` checksums cover the whole file, header included)."""

    _col_raw = None
    _imprint_raw = None

    @classmethod
    def _column_bytes(cls) -> bytes:
        if cls._col_raw is None:
            import tempfile
            from pathlib import Path

            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "v.col"
                dump_array(np.arange(64, dtype=np.int64), path)
                cls._col_raw = path.read_bytes()
        return cls._col_raw

    @classmethod
    def _imprint_bytes(cls) -> bytes:
        if cls._imprint_raw is None:
            import tempfile
            from pathlib import Path

            from repro.core.imprints.persist import save_segmented
            from repro.core.imprints.segments import SegmentedImprints
            from repro.engine.column import Column

            rng = np.random.default_rng(3)
            column = Column.from_array("x", rng.uniform(0, 100, 2048))
            imprint = SegmentedImprints(column, segment_rows=512)
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "x.imprint"
                save_segmented(imprint, "pts", "x", path)
                cls._imprint_raw = path.read_bytes()
        return cls._imprint_raw

    @staticmethod
    def _read_imprint(path):
        """Strict read: a file without the imprint magic is an error too."""
        from repro.core.imprints.persist import ImprintFile
        from repro.engine import durable

        return ImprintFile(durable.read_file(path, "imprint file"), path)

    @settings(max_examples=60, deadline=None)
    @given(fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_truncated_col_raises_typed_error(self, fraction, tmp_path_factory):
        raw = self._column_bytes()
        cut = int(fraction * len(raw))
        path = tmp_path_factory.mktemp("trunc") / "v.col"
        path.write_bytes(raw[:cut])
        with pytest.raises(StorageError):
            load_array(path)

    @settings(max_examples=60, deadline=None)
    @given(fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_flipped_col_byte_raises_typed_error(
        self, fraction, tmp_path_factory
    ):
        raw = bytearray(self._column_bytes())
        raw[int(fraction * len(raw))] ^= 0xFF
        path = tmp_path_factory.mktemp("flip") / "v.col"
        path.write_bytes(bytes(raw))
        with pytest.raises(StorageError):
            load_array(path)

    @settings(max_examples=60, deadline=None)
    @given(fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_truncated_imprint_raises_typed_error(
        self, fraction, tmp_path_factory
    ):
        raw = self._imprint_bytes()
        cut = int(fraction * len(raw))
        path = tmp_path_factory.mktemp("itrunc") / "x.imprint"
        path.write_bytes(raw[:cut])
        with pytest.raises(StorageError):
            self._read_imprint(path)

    @settings(max_examples=60, deadline=None)
    @given(fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_flipped_imprint_byte_raises_typed_error(
        self, fraction, tmp_path_factory
    ):
        raw = bytearray(self._imprint_bytes())
        raw[int(fraction * len(raw))] ^= 0xFF
        path = tmp_path_factory.mktemp("iflip") / "x.imprint"
        path.write_bytes(bytes(raw))
        with pytest.raises(StorageError):
            self._read_imprint(path)

    def test_truncated_imprint_never_loads_over_a_column(
        self, tmp_path
    ):
        from repro.engine.column import Column

        raw = self._imprint_bytes()
        rng = np.random.default_rng(3)
        column = Column.from_array("x", rng.uniform(0, 100, 2048))
        for cut in (0, 3, 17, len(raw) // 2, len(raw) - 1):
            path = tmp_path / f"cut_{cut}.imprint"
            path.write_bytes(raw[:cut])
            with pytest.raises(StorageError):
                self._read_imprint(path).restore(column)


class TestCorruptLaxIndex:
    def test_truncated_json(self, tmp_path):
        rng = np.random.default_rng(0)
        from repro.gis.envelope import Box

        index = LasIndex(
            rng.uniform(0, 10, 100), rng.uniform(0, 10, 100), Box(0, 0, 10, 10)
        )
        path = tmp_path / "t.lax"
        index.save(path)
        path.write_text(path.read_text()[:-30])
        with pytest.raises(Exception):
            LasIndex.load(path)

    def test_clip_ignores_missing_index(self, tmp_path):
        """lasclip must fall back to full decode when .lax is absent."""
        from repro.lastools.clip import LasClip
        from repro.gis.envelope import Box

        write_las(tmp_path / "t.las", sample_points(seed=2))
        clip = LasClip(tmp_path, use_index=True)
        out, stats = clip.query(Box(0, 0, 100, 100))
        assert stats.n_results == 200
        assert stats.index_hits == 0


class TestMalformedWkt:
    @settings(max_examples=80, deadline=None)
    @given(text=st.text(max_size=60))
    def test_random_text_never_crashes(self, text):
        try:
            wkt_loads(text)
        except (WKTError, Exception) as exc:
            # Only repo-typed or geometry errors may surface.
            assert not isinstance(exc, (MemoryError, RecursionError))


class TestMalformedSql:
    @pytest.fixture()
    def session(self):
        from repro.engine.table import Table

        t = Table("t", [("a", "int64")])
        t.append_columns({"a": [1, 2, 3]})
        session = Session()
        session.register_table(t, point_columns=None)
        return session

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a FROM t WHERE ST_Contains(1, 2)",
            "SELECT nonexistent(a) FROM t",
            "SELECT a FROM missing_table",
            "SELECT missing_col FROM t",
            "SELECT sum(a, a) FROM t",
            "SELECT a FROM t ORDER BY 99",
        ],
    )
    def test_semantic_errors_are_typed(self, session, sql):
        with pytest.raises((SqlExecutionError, SqlFunctionError)):
            session.execute(sql)

    @settings(max_examples=80, deadline=None)
    @given(
        text=st.text(
            alphabet="SELECT FROM WHERE abc123*(),.'<>= ", max_size=80
        )
    )
    def test_token_soup_never_crashes(self, text):
        session = _fuzz_session()
        try:
            session.execute(text)
        except (SqlSyntaxError, SqlExecutionError, SqlFunctionError, WKTError):
            pass
        except (ValueError, TypeError, KeyError):
            # Geometry/function argument errors are acceptable; anything
            # like RecursionError or AttributeError is not.
            pass


_FUZZ_SESSION = None


def _fuzz_session() -> Session:
    """A small shared session for the SQL fuzzer (hypothesis-safe)."""
    global _FUZZ_SESSION
    if _FUZZ_SESSION is None:
        from repro.engine.table import Table

        t = Table("t", [("a", "int64")])
        t.append_columns({"a": [1, 2, 3]})
        _FUZZ_SESSION = Session()
        _FUZZ_SESSION.register_table(t, point_columns=None)
    return _FUZZ_SESSION

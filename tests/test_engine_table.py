"""Unit tests for repro.engine.table."""

import numpy as np
import pytest

from repro.engine.table import SchemaError, Table


@pytest.fixture
def points():
    t = Table("pts", [("x", "float64"), ("y", "float64"), ("cls", "uint8")])
    t.append_columns(
        {
            "x": np.array([0.0, 1.0, 2.0]),
            "y": np.array([5.0, 6.0, 7.0]),
            "cls": np.array([2, 6, 2], dtype=np.uint8),
        }
    )
    return t


class TestSchema:
    def test_schema_round_trip(self, points):
        assert points.schema == [("x", "float64"), ("y", "float64"), ("cls", "uint8")]
        assert points.column_names == ["x", "y", "cls"]

    def test_duplicate_column_raises(self):
        with pytest.raises(SchemaError):
            Table("t", [("a", "int32"), ("a", "int64")])

    def test_unknown_column_raises(self, points):
        with pytest.raises(SchemaError):
            points.column("z")

    def test_contains(self, points):
        assert "x" in points
        assert "z" not in points

    def test_empty_table_len(self):
        assert len(Table("t", [("a", "int32")])) == 0
        assert len(Table("t", [])) == 0


class TestAppend:
    def test_append_columns_aligns(self, points):
        assert len(points) == 3
        oid = points.append_columns(
            {"x": [3.0], "y": [8.0], "cls": np.array([9], dtype=np.uint8)}
        )
        assert oid == 3
        assert len(points) == 4

    def test_append_missing_column_raises(self, points):
        with pytest.raises(SchemaError, match="missing"):
            points.append_columns({"x": [1.0], "y": [2.0]})

    def test_append_extra_column_raises(self, points):
        with pytest.raises(SchemaError, match="unknown"):
            points.append_columns(
                {"x": [1.0], "y": [2.0], "cls": [1], "bogus": [0]}
            )

    def test_append_ragged_raises(self, points):
        with pytest.raises(SchemaError, match="ragged"):
            points.append_columns({"x": [1.0, 2.0], "y": [2.0], "cls": [1]})


class TestFetch:
    def test_nbytes(self, points):
        assert points.nbytes == 3 * 8 + 3 * 8 + 3 * 1

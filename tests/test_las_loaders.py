"""Tests for the binary bulk loader and the CSV slow path."""

import numpy as np
import pytest

from repro.engine.catalog import Database
from repro.las.binloader import (
    create_flat_table,
    dump_to_binary,
    flat_batch,
    load_arrays,
    load_file,
    load_files,
)
from repro.las.csvloader import las_to_csv, load_csv, load_via_csv
from repro.las.laz import write_laz
from repro.las.spec import FLAT_SCHEMA
from repro.las.writer import write_las

from .test_las_format import sample_points


@pytest.fixture
def flat_table():
    return create_flat_table(Database(), "points")


class TestFlatBatch:
    def test_fills_missing_columns(self):
        batch = flat_batch({"x": np.zeros(3), "y": np.zeros(3), "z": np.zeros(3)}, 3)
        assert set(batch) == {name for name, _ in FLAT_SCHEMA}
        assert batch["red"].shape == (3,)
        assert (batch["red"] == 0).all()

    def test_preserves_present_columns(self):
        intensity = np.array([1, 2, 3], dtype=np.uint16)
        batch = flat_batch(
            {
                "x": np.zeros(3),
                "y": np.zeros(3),
                "z": np.zeros(3),
                "intensity": intensity,
            },
            3,
        )
        np.testing.assert_array_equal(batch["intensity"], intensity)


class TestBinaryLoader:
    def test_load_las_file_direct(self, tmp_path, flat_table):
        pts = sample_points()
        path = tmp_path / "tile.las"
        write_las(path, pts)
        stats = load_file(flat_table, path)
        assert stats.n_points == 500
        assert len(flat_table) == 500
        np.testing.assert_allclose(
            flat_table.column("x").values, pts["x"], atol=0.006
        )

    def test_load_laz_file(self, tmp_path, flat_table):
        pts = sample_points(seed=1)
        path = tmp_path / "tile.laz"
        write_laz(path, pts)
        stats = load_file(flat_table, path)
        assert stats.n_points == 500
        np.testing.assert_array_equal(
            flat_table.column("intensity").values, pts["intensity"]
        )

    def test_load_with_spool_dir(self, tmp_path, flat_table):
        """The paper's literal pipeline: dumps on disk + COPY BINARY."""
        pts = sample_points(seed=2)
        path = tmp_path / "tile.las"
        write_las(path, pts)
        spool = tmp_path / "spool"
        stats = load_file(flat_table, path, spool_dir=spool)
        assert stats.n_points == 500
        assert len(flat_table) == 500
        # One .col dump per flat column was produced.
        assert len(list(spool.glob("*.col"))) == len(FLAT_SCHEMA)

    def test_dump_to_binary_writes_all_columns(self, tmp_path):
        pts = sample_points(seed=3)
        files = dump_to_binary(pts, tmp_path / "dumps")
        assert set(files) == {name for name, _ in FLAT_SCHEMA}

    def test_load_multiple_files(self, tmp_path, flat_table):
        for i in range(3):
            write_las(tmp_path / f"t{i}.las", sample_points(n=100, seed=i))
        stats = load_files(
            flat_table, sorted(tmp_path.glob("*.las"))
        )
        assert stats.n_files == 3
        assert stats.n_points == 300
        assert len(flat_table) == 300
        assert stats.points_per_second > 0

    def test_load_arrays(self, flat_table):
        pts = sample_points(n=50, seed=5)
        stats = load_arrays(flat_table, pts)
        assert stats.n_points == 50
        assert len(flat_table) == 50


class TestCsvLoader:
    def test_csv_round_trip(self, tmp_path, flat_table):
        pts = sample_points(n=80, seed=7)
        las_path = tmp_path / "t.las"
        write_las(las_path, pts)
        csv_path = tmp_path / "t.csv"
        n = las_to_csv(las_path, csv_path)
        assert n == 80
        stats = load_csv(flat_table, csv_path)
        assert stats.n_points == 80
        np.testing.assert_allclose(
            flat_table.column("x").values, pts["x"], atol=0.006
        )
        np.testing.assert_array_equal(
            flat_table.column("intensity").values, pts["intensity"]
        )

    def test_load_via_csv(self, tmp_path, flat_table):
        write_las(tmp_path / "t.las", sample_points(n=60, seed=8))
        stats = load_via_csv(flat_table, tmp_path / "t.las", tmp_path / "scratch")
        assert stats.n_points == 60
        assert len(flat_table) == 60

    def test_header_mismatch_rejected(self, tmp_path, flat_table):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(flat_table, bad)

    def test_binary_loader_faster_than_csv(self, tmp_path):
        """The E1 claim at unit-test scale: binary beats CSV clearly."""
        pts = sample_points(n=4000, seed=9)
        las_path = tmp_path / "t.las"
        write_las(las_path, pts)

        db = Database()
        t_bin = create_flat_table(db, "bin")
        t_csv = create_flat_table(db, "csv")
        bin_stats = load_file(t_bin, las_path)
        csv_stats = load_via_csv(t_csv, las_path, tmp_path / "scratch")
        assert len(t_bin) == len(t_csv) == 4000
        assert bin_stats.seconds < csv_stats.seconds

"""Unit and property tests for the LAS/LAZ substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.las.header import HEADER_SIZE, LasFormatError, LasHeader
from repro.las.laz import read_laz, write_laz
from repro.las.reader import read_header, read_las
from repro.las.spec import (
    FLAT_SCHEMA,
    POINT_FORMATS,
    RECORD_LENGTHS,
    pack_classification,
    pack_flags,
    unpack_classification,
    unpack_flags,
)
from repro.las.writer import write_las


class TestSpec:
    def test_record_lengths_match_standard(self):
        assert RECORD_LENGTHS == {0: 20, 1: 28, 2: 26, 3: 34}

    def test_flat_schema_has_23_properties(self):
        # The paper: "a total of 23 properties excluding the X, Y, and Z".
        assert len(FLAT_SCHEMA) == 26
        assert [n for n, _ in FLAT_SCHEMA[:3]] == ["x", "y", "z"]

    def test_flags_round_trip(self):
        rn = np.array([1, 2, 7], dtype=np.uint8)
        nr = np.array([1, 3, 7], dtype=np.uint8)
        sd = np.array([0, 1, 0], dtype=np.uint8)
        ee = np.array([1, 0, 0], dtype=np.uint8)
        out = unpack_flags(pack_flags(rn, nr, sd, ee))
        np.testing.assert_array_equal(out["return_number"], rn)
        np.testing.assert_array_equal(out["number_of_returns"], nr)
        np.testing.assert_array_equal(out["scan_direction_flag"], sd)
        np.testing.assert_array_equal(out["edge_of_flight_line"], ee)

    def test_classification_round_trip(self):
        cls = np.array([2, 6, 31], dtype=np.uint8)
        syn = np.array([0, 1, 0], dtype=np.uint8)
        kp = np.array([1, 0, 0], dtype=np.uint8)
        wh = np.array([0, 0, 1], dtype=np.uint8)
        out = unpack_classification(pack_classification(cls, syn, kp, wh))
        np.testing.assert_array_equal(out["classification"], cls)
        np.testing.assert_array_equal(out["synthetic"], syn)
        np.testing.assert_array_equal(out["key_point"], kp)
        np.testing.assert_array_equal(out["withheld"], wh)


class TestHeader:
    def test_pack_size(self):
        assert len(LasHeader(n_points=5).pack()) == HEADER_SIZE

    def test_round_trip(self):
        h = LasHeader(
            point_format=3,
            n_points=1234,
            scale=(0.01, 0.01, 0.001),
            offset=(100000.0, 400000.0, -5.0),
            min_xyz=(1.0, 2.0, 3.0),
            max_xyz=(4.0, 5.0, 6.0),
            points_by_return=(1000, 200, 30, 4, 0),
            file_source_id=7,
        )
        back = LasHeader.unpack(h.pack())
        assert back == h

    def test_bad_signature(self):
        raw = bytearray(LasHeader().pack())
        raw[:4] = b"XXXX"
        with pytest.raises(LasFormatError, match="signature"):
            LasHeader.unpack(bytes(raw))

    def test_truncated(self):
        with pytest.raises(LasFormatError, match="truncated"):
            LasHeader.unpack(b"LASF")

    def test_invalid_format(self):
        with pytest.raises(LasFormatError):
            LasHeader(point_format=9)

    def test_invalid_scale(self):
        with pytest.raises(LasFormatError):
            LasHeader(scale=(0.0, 0.01, 0.01))


def sample_points(n=500, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "x": rng.uniform(10_000, 10_100, n),
        "y": rng.uniform(450_000, 450_100, n),
        "z": rng.uniform(-3, 40, n),
        "intensity": rng.integers(0, 4000, n).astype(np.uint16),
        "return_number": rng.integers(1, 4, n).astype(np.uint8),
        "number_of_returns": np.full(n, 3, dtype=np.uint8),
        "classification": rng.choice(
            np.array([2, 3, 6, 9], dtype=np.uint8), n
        ),
        "gps_time": np.sort(rng.uniform(0, 3600, n)),
        "red": rng.integers(0, 65535, n).astype(np.uint16),
        "green": rng.integers(0, 65535, n).astype(np.uint16),
        "blue": rng.integers(0, 65535, n).astype(np.uint16),
        "scan_angle": rng.integers(-20, 20, n).astype(np.int16),
    }


class TestLasRoundTrip:
    @pytest.mark.parametrize("fmt", [0, 1, 2, 3])
    def test_write_read_all_formats(self, tmp_path, fmt):
        pts = sample_points()
        path = tmp_path / f"t{fmt}.las"
        header = write_las(path, pts, point_format=fmt)
        back_header, cols = read_las(path)
        assert back_header.n_points == 500
        assert back_header.point_format == fmt
        # Coordinates round-trip to within half a scale step (0.01).
        np.testing.assert_allclose(cols["x"], pts["x"], atol=0.006)
        np.testing.assert_allclose(cols["y"], pts["y"], atol=0.006)
        np.testing.assert_allclose(cols["z"], pts["z"], atol=0.006)
        np.testing.assert_array_equal(cols["intensity"], pts["intensity"])
        np.testing.assert_array_equal(
            cols["classification"], pts["classification"]
        )
        if fmt in (1, 3):
            np.testing.assert_array_equal(cols["gps_time"], pts["gps_time"])
        if fmt in (2, 3):
            np.testing.assert_array_equal(cols["red"], pts["red"])

    def test_header_bbox_matches_data(self, tmp_path):
        pts = sample_points()
        path = tmp_path / "t.las"
        write_las(path, pts)
        header, cols = read_las(path)
        assert header.min_xyz[0] == pytest.approx(cols["x"].min())
        assert header.max_xyz[0] == pytest.approx(cols["x"].max())
        assert header.min_xyz[2] == pytest.approx(cols["z"].min())

    def test_read_header_only(self, tmp_path):
        path = tmp_path / "t.las"
        write_las(path, sample_points())
        header = read_header(path)
        assert header.n_points == 500

    def test_missing_file(self, tmp_path):
        with pytest.raises(LasFormatError):
            read_las(tmp_path / "ghost.las")

    def test_truncated_point_data(self, tmp_path):
        path = tmp_path / "t.las"
        write_las(path, sample_points())
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(LasFormatError, match="truncated"):
            read_las(path)

    def test_missing_xyz_raises(self, tmp_path):
        with pytest.raises(LasFormatError, match="missing"):
            write_las(tmp_path / "t.las", {"x": np.zeros(1), "y": np.zeros(1)})

    def test_coordinate_overflow_detected(self, tmp_path):
        pts = {
            "x": np.array([0.0, 1e9]),
            "y": np.zeros(2),
            "z": np.zeros(2),
        }
        with pytest.raises(LasFormatError, match="overflow"):
            write_las(tmp_path / "t.las", pts, offset=(0.0, 0.0, 0.0))

    def test_read_intervals(self, tmp_path):
        from repro.las.reader import read_intervals

        pts = sample_points(n=100)
        path = tmp_path / "t.las"
        write_las(path, pts)
        _h, cols = read_intervals(path, [(10, 20), (50, 55)])
        assert cols["x"].shape == (15,)
        np.testing.assert_array_equal(
            cols["_record_index"], list(range(10, 20)) + list(range(50, 55))
        )
        full = read_las(path)[1]
        np.testing.assert_array_equal(cols["x"][:10], full["x"][10:20])
        np.testing.assert_array_equal(
            cols["intensity"][10:], full["intensity"][50:55]
        )

    def test_read_intervals_empty_and_degenerate(self, tmp_path):
        from repro.las.reader import read_intervals

        path = tmp_path / "t.las"
        write_las(path, sample_points(n=30))
        _h, cols = read_intervals(path, [])
        assert cols["x"].shape == (0,)
        _h, cols = read_intervals(path, [(5, 5)])
        assert cols["x"].shape == (0,)

    def test_read_intervals_out_of_range(self, tmp_path):
        from repro.las.reader import read_intervals

        path = tmp_path / "t.las"
        write_las(path, sample_points(n=30))
        with pytest.raises(LasFormatError, match="out of range"):
            read_intervals(path, [(10, 99)])


class TestLazRoundTrip:
    @pytest.mark.parametrize("fmt", [0, 1, 2, 3])
    def test_write_read(self, tmp_path, fmt):
        pts = sample_points(seed=3)
        path = tmp_path / f"t{fmt}.laz"
        write_laz(path, pts, point_format=fmt)
        header, cols = read_laz(path)
        assert header.n_points == 500
        np.testing.assert_allclose(cols["x"], pts["x"], atol=0.006)
        np.testing.assert_array_equal(cols["intensity"], pts["intensity"])
        if fmt in (1, 3):
            np.testing.assert_array_equal(cols["gps_time"], pts["gps_time"])

    def test_laz_smaller_than_las(self, tmp_path):
        pts = sample_points(n=20_000, seed=4)
        las_path = tmp_path / "t.las"
        laz_path = tmp_path / "t.laz"
        write_las(las_path, pts)
        write_laz(laz_path, pts)
        assert laz_path.stat().st_size < las_path.stat().st_size

    def test_empty_raises(self, tmp_path):
        with pytest.raises(LasFormatError):
            write_laz(
                tmp_path / "t.laz",
                {"x": np.empty(0), "y": np.empty(0), "z": np.empty(0)},
            )

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "t.laz"
        write_laz(path, sample_points())
        raw = bytearray(path.read_bytes())
        raw[HEADER_SIZE : HEADER_SIZE + 4] = b"JUNK"
        path.write_bytes(bytes(raw))
        with pytest.raises(LasFormatError, match="RLAZ"):
            read_laz(path)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 200),
    seed=st.integers(0, 2**31),
    fmt=st.sampled_from([0, 1, 2, 3]),
)
def test_las_round_trip_property(tmp_path_factory, n, seed, fmt):
    """Write -> read reproduces coordinates within quantisation for any
    cloud size, seed and point format."""
    tmp = tmp_path_factory.mktemp("las_prop")
    rng = np.random.default_rng(seed)
    pts = {
        "x": rng.uniform(-1000, 1000, n),
        "y": rng.uniform(-1000, 1000, n),
        "z": rng.uniform(-100, 100, n),
        "intensity": rng.integers(0, 65535, n).astype(np.uint16),
        "classification": rng.integers(0, 32, n).astype(np.uint8),
    }
    path = tmp / f"p{seed % 1000}_{n}_{fmt}.las"
    write_las(path, pts, point_format=fmt)
    _header, cols = read_las(path)
    np.testing.assert_allclose(cols["x"], pts["x"], atol=0.006)
    np.testing.assert_allclose(cols["y"], pts["y"], atol=0.006)
    np.testing.assert_allclose(cols["z"], pts["z"], atol=0.006)
    np.testing.assert_array_equal(cols["intensity"], pts["intensity"])
    np.testing.assert_array_equal(cols["classification"], pts["classification"])

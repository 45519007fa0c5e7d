"""Tests for the file-based (LAStools-like) baseline."""

import numpy as np
import pytest

from repro.datasets.lidar import write_tile_files
from repro.gis.envelope import Box
from repro.gis.geometry import Polygon
from repro.las.reader import read_las
from repro.lastools.catalog import FileCatalog
from repro.lastools.clip import LasClip
from repro.lastools.lasindex import LasIndex, lax_path_for
from repro.lastools.lassort import lasindex_file, lassort

EXTENT = Box(0, 0, 1000, 1000)


@pytest.fixture(scope="module")
def tile_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("tiles")
    write_tile_files(directory, EXTENT, 8000, 3, 3, seed=11)
    return directory


@pytest.fixture(scope="module")
def all_points(tile_dir):
    xs, ys = [], []
    for path in sorted(tile_dir.glob("*.las")):
        _h, cols = read_las(path)
        xs.append(cols["x"])
        ys.append(cols["y"])
    return np.concatenate(xs), np.concatenate(ys)


class TestLasIndex:
    def test_intervals_cover_all_points(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(0, 100, 5000)
        ys = rng.uniform(0, 100, 5000)
        index = LasIndex(xs, ys, Box(0, 0, 100, 100), leaf_capacity=200)
        full = index.candidate_intervals(Box(0, 0, 100, 100))
        assert full == [(0, 5000)]

    def test_candidates_superset_of_exact(self):
        rng = np.random.default_rng(1)
        xs = rng.uniform(0, 100, 3000)
        ys = rng.uniform(0, 100, 3000)
        index = LasIndex(xs, ys, Box(0, 0, 100, 100), leaf_capacity=100)
        query = Box(20, 20, 40, 40)
        cands = {
            i for start, stop in index.candidate_intervals(query)
            for i in range(start, stop)
        }
        exact = set(
            np.flatnonzero(
                (xs >= 20) & (xs <= 40) & (ys >= 20) & (ys <= 40)
            ).tolist()
        )
        assert exact <= cands
        assert len(cands) < 3000  # the quadtree actually prunes

    def test_sorted_input_fewer_intervals(self):
        """The lassort payoff: SFC order collapses interval lists."""
        rng = np.random.default_rng(2)
        xs = rng.uniform(0, 100, 4000)
        ys = rng.uniform(0, 100, 4000)
        from repro.core.sfc import sort_order

        perm = sort_order(xs, ys, 0, 100, 0, 100, curve="morton")
        unsorted_index = LasIndex(xs, ys, Box(0, 0, 100, 100), leaf_capacity=64)
        sorted_index = LasIndex(
            xs[perm], ys[perm], Box(0, 0, 100, 100), leaf_capacity=64
        )
        query = Box(20, 20, 40, 40)
        assert len(sorted_index.candidate_intervals(query)) < (
            len(unsorted_index.candidate_intervals(query)) / 3
        )

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        xs = rng.uniform(0, 10, 500)
        ys = rng.uniform(0, 10, 500)
        index = LasIndex(xs, ys, Box(0, 0, 10, 10), leaf_capacity=50)
        path = tmp_path / "t.lax"
        index.save(path)
        back = LasIndex.load(path)
        query = Box(2, 2, 5, 5)
        assert back.candidate_intervals(query) == index.candidate_intervals(query)

    def test_empty_index(self):
        index = LasIndex(np.empty(0), np.empty(0), Box(0, 0, 1, 1))
        assert index.candidate_intervals(Box(0, 0, 1, 1)) == []

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            LasIndex(np.array([1.0]), np.array([1.0]), Box(0, 0, 1, 1), leaf_capacity=0)


class TestLassort:
    def test_lassort_preserves_content(self, tmp_path):
        from repro.datasets.lidar import generate_points, make_scene
        from repro.las.writer import write_las

        scene = make_scene(Box(0, 0, 100, 100), seed=4)
        pts = generate_points(scene, 2000, seed=4)
        src = tmp_path / "raw.las"
        dst = tmp_path / "sorted.las"
        write_las(src, pts)
        n = lassort(src, dst, curve="hilbert")
        assert n == 2000
        _h, cols = read_las(dst)
        # Same point multiset, different order.
        assert sorted(cols["x"].tolist()) == pytest.approx(
            sorted(read_las(src)[1]["x"].tolist())
        )

    def test_lassort_improves_locality(self, tmp_path):
        rng = np.random.default_rng(5)
        pts = {
            "x": rng.uniform(0, 100, 5000),
            "y": rng.uniform(0, 100, 5000),
            "z": rng.uniform(0, 10, 5000),
        }
        from repro.las.writer import write_las

        src = tmp_path / "raw.las"
        dst = tmp_path / "sorted.las"
        write_las(src, pts)
        lassort(src, dst)
        _h, cols = read_las(dst)
        raw_step = np.hypot(np.diff(pts["x"]), np.diff(pts["y"])).mean()
        sorted_step = np.hypot(np.diff(cols["x"]), np.diff(cols["y"])).mean()
        assert sorted_step < raw_step / 5

    def test_lasindex_file_writes_sidecar(self, tmp_path):
        from repro.las.writer import write_las

        rng = np.random.default_rng(6)
        pts = {
            "x": rng.uniform(0, 10, 300),
            "y": rng.uniform(0, 10, 300),
            "z": rng.uniform(0, 5, 300),
        }
        path = tmp_path / "t.las"
        write_las(path, pts)
        lasindex_file(path, leaf_capacity=50)
        assert lax_path_for(path).exists()


class TestFileCatalog:
    def test_metadata_built_once(self, tile_dir):
        catalog = FileCatalog(tile_dir, mode="metadata")
        assert catalog.metadata_path.exists()
        assert catalog.n_files == 9

    def test_modes_agree(self, tile_dir):
        query = Box(100, 100, 500, 500)
        meta = FileCatalog(tile_dir, mode="metadata")
        head = FileCatalog(tile_dir, mode="headers")
        files_m, _ = meta.files_intersecting(query)
        files_h, stats_h = head.files_intersecting(query)
        assert [p.name for p in files_m] == [p.name for p in files_h]
        assert stats_h.headers_read == 9

    def test_pruning_reduces_files(self, tile_dir):
        catalog = FileCatalog(tile_dir, mode="metadata")
        files, stats = catalog.files_intersecting(Box(0, 0, 200, 200))
        assert 0 < len(files) < 9
        assert stats.files_matched == len(files)

    def test_bad_mode(self, tile_dir):
        with pytest.raises(ValueError):
            FileCatalog(tile_dir, mode="bogus")

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            FileCatalog(tmp_path / "ghost")


class TestLasClip:
    def _brute_force(self, all_points, geometry, predicate="contains", distance=0.0):
        from repro.gis.predicates import points_satisfy

        xs, ys = all_points
        mask = points_satisfy(xs, ys, geometry, predicate, distance)
        return np.sort(xs[mask]), int(mask.sum())

    def test_box_query_matches_brute_force(self, tile_dir, all_points):
        clip = LasClip(tile_dir)
        query = Box(150, 150, 600, 450)
        out, stats = clip.query(query)
        want_xs, want_n = self._brute_force(all_points, query)
        assert stats.n_results == want_n
        np.testing.assert_allclose(np.sort(out["x"]), want_xs)

    def test_polygon_query_matches_brute_force(self, tile_dir, all_points):
        clip = LasClip(tile_dir)
        poly = Polygon([(100, 100), (800, 200), (600, 800), (150, 700)])
        out, stats = clip.query(poly)
        want_xs, want_n = self._brute_force(all_points, poly)
        assert stats.n_results == want_n
        np.testing.assert_allclose(np.sort(out["x"]), want_xs)

    def test_pruning_skips_files(self, tile_dir):
        clip = LasClip(tile_dir)
        _out, stats = clip.query(Box(0, 0, 150, 150))
        assert stats.files_read < stats.files_considered

    def test_index_used_when_present(self, tile_dir, all_points):
        clip = LasClip(tile_dir, use_index=True)
        clip.build_indexes(leaf_capacity=200)
        query = Box(200, 200, 400, 400)
        out, stats = clip.query(query)
        assert stats.index_hits == stats.files_read > 0
        want_xs, want_n = self._brute_force(all_points, query)
        assert stats.n_results == want_n

        # The quadtree + interval seeks decode fewer records than reading
        # the touched files whole.
        unindexed = LasClip(tile_dir, use_index=False)
        _out2, stats_full = unindexed.query(query)
        assert stats.points_decoded < stats_full.points_decoded
        np.testing.assert_allclose(np.sort(out["x"]), want_xs)

    def test_extra_columns(self, tile_dir):
        clip = LasClip(tile_dir)
        out, _stats = clip.query(
            Box(0, 0, 1000, 1000), columns=["x", "y", "z", "classification"]
        )
        assert out["classification"].shape == out["x"].shape

    def test_unknown_column(self, tile_dir):
        clip = LasClip(tile_dir)
        with pytest.raises(KeyError):
            clip.query(Box(0, 0, 1000, 1000), columns=["bogus"])

"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.datasets.lidar import (
    CLASS_BUILDING,
    CLASS_GROUND,
    CLASS_WATER,
    generate_points,
    generate_tiles,
    make_scene,
    write_tile_files,
)
from repro.datasets.osm import ROAD_CLASSES, generate_osm
from repro.datasets.terrain import generate_terrain
from repro.datasets.urbanatlas import (
    FAST_TRANSIT,
    UA_CODES,
    WATER_BODY,
    generate_urban_atlas,
)
from repro.gis.envelope import Box
from repro.las.reader import read_las
from repro.las.spec import FLAT_SCHEMA

EXTENT = Box(85_000, 445_000, 86_000, 446_000)  # 1 km² in RD-like coords


@pytest.fixture(scope="module")
def scene():
    return make_scene(EXTENT, seed=42)


@pytest.fixture(scope="module")
def cloud(scene):
    return generate_points(scene, 20_000, seed=42)


class TestTerrain:
    def test_extent_and_shape(self):
        t = generate_terrain(EXTENT, order=5, seed=1)
        assert t.heights.shape == (33, 33)
        assert t.extent == EXTENT

    def test_water_fraction_near_quantile(self):
        t = generate_terrain(EXTENT, order=7, sea_level_quantile=0.2, seed=2)
        xs, ys = np.meshgrid(
            np.linspace(EXTENT.xmin, EXTENT.xmax, 129),
            np.linspace(EXTENT.ymin, EXTENT.ymax, 129),
        )
        assert 0.1 < t.is_water(xs.ravel(), ys.ravel()).mean() < 0.35

    def test_height_at_matches_grid_nodes(self):
        t = generate_terrain(EXTENT, order=4, seed=3)
        # Sampling exactly at corner nodes reproduces the grid values.
        got = t.height_at(
            np.array([EXTENT.xmin, EXTENT.xmax]),
            np.array([EXTENT.ymin, EXTENT.ymax]),
        )
        np.testing.assert_allclose(
            got, [t.heights[0, 0], t.heights[-1, -1]], atol=1e-6
        )

    def test_deterministic(self):
        a = generate_terrain(EXTENT, order=5, seed=7)
        b = generate_terrain(EXTENT, order=5, seed=7)
        np.testing.assert_array_equal(a.heights, b.heights)

    def test_bad_roughness(self):
        with pytest.raises(ValueError):
            generate_terrain(EXTENT, roughness=1.5)


class TestLidarGenerator:
    def test_full_flat_schema(self, cloud):
        assert set(cloud) == {name for name, _ in FLAT_SCHEMA}
        n = cloud["x"].shape[0]
        assert n == 20_000
        assert all(arr.shape[0] == n for arr in cloud.values())

    def test_points_inside_extent(self, cloud):
        assert cloud["x"].min() >= EXTENT.xmin and cloud["x"].max() <= EXTENT.xmax
        assert cloud["y"].min() >= EXTENT.ymin and cloud["y"].max() <= EXTENT.ymax

    def test_class_mix(self, cloud):
        classes = set(np.unique(cloud["classification"]).tolist())
        assert CLASS_GROUND in classes
        assert CLASS_WATER in classes or CLASS_BUILDING in classes

    def test_buildings_are_elevated(self, scene, cloud):
        bld = cloud["classification"] == CLASS_BUILDING
        gnd = cloud["classification"] == CLASS_GROUND
        if bld.any() and gnd.any():
            assert cloud["z"][bld].mean() > cloud["z"][gnd].mean() + 2.0

    def test_water_is_low_intensity(self, cloud):
        wat = cloud["classification"] == CLASS_WATER
        gnd = cloud["classification"] == CLASS_GROUND
        if wat.any() and gnd.any():
            assert cloud["intensity"][wat].mean() < cloud["intensity"][gnd].mean()

    def test_gps_time_monotone(self, cloud):
        assert (np.diff(cloud["gps_time"]) >= 0).all()

    def test_acquisition_order_clusters_x(self, cloud):
        """Flightline order gives local x clustering — the property that
        makes imprints effective on raw LAS loads."""
        step = np.abs(np.diff(cloud["x"])).mean()
        rng = np.random.default_rng(0)
        shuffled = cloud["x"].copy()
        rng.shuffle(shuffled)
        shuffled_step = np.abs(np.diff(shuffled)).mean()
        assert step < shuffled_step / 10

    def test_return_numbers_valid(self, cloud):
        assert (cloud["return_number"] >= 1).all()
        assert (cloud["return_number"] <= cloud["number_of_returns"]).all()

    def test_n_points_validation(self, scene):
        with pytest.raises(ValueError):
            generate_points(scene, 0)

    def test_deterministic(self, scene):
        a = generate_points(scene, 500, seed=5)
        b = generate_points(scene, 500, seed=5)
        np.testing.assert_array_equal(a["x"], b["x"])
        np.testing.assert_array_equal(a["classification"], b["classification"])


class TestTiles:
    def test_tiles_partition_points(self):
        tiles = list(generate_tiles(EXTENT, 5000, 2, 2, seed=1))
        assert len(tiles) == 4
        assert sum(t[1]["x"].shape[0] for t in tiles) == 5000
        for tile_extent, cols in tiles:
            assert cols["x"].min() >= tile_extent.xmin - 1e-9
            assert cols["x"].max() <= tile_extent.xmax + 1e-9

    def test_write_tile_files(self, tmp_path):
        paths = write_tile_files(tmp_path, EXTENT, 2000, 2, 2, seed=2)
        assert len(paths) == 4
        total = 0
        for path in paths:
            header, cols = read_las(path)
            total += header.n_points
        assert total == 2000

    def test_write_compressed_tiles(self, tmp_path):
        paths = write_tile_files(
            tmp_path, EXTENT, 1000, 2, 1, seed=3, compressed=True
        )
        assert all(p.suffix == ".laz" for p in paths)


class TestSplitCloudTiles:
    def test_split_preserves_multiset(self):
        from repro.datasets.lidar import split_cloud_into_tiles

        scene = make_scene(EXTENT, seed=31)
        cloud = generate_points(scene, 3000, seed=31)
        tiles = list(split_cloud_into_tiles(cloud, EXTENT, 3, 2))
        total = sum(t[1]["x"].shape[0] for t in tiles)
        assert total == 3000
        merged = np.sort(np.concatenate([t[1]["x"] for t in tiles]))
        np.testing.assert_array_equal(merged, np.sort(cloud["x"]))

    def test_split_respects_tile_bounds(self):
        from repro.datasets.lidar import split_cloud_into_tiles

        scene = make_scene(EXTENT, seed=32)
        cloud = generate_points(scene, 2000, seed=32)
        for tile_extent, cols in split_cloud_into_tiles(cloud, EXTENT, 2, 2):
            assert cols["x"].min() >= tile_extent.xmin - 1e9 * 0  # inside
            assert (cols["x"] <= tile_extent.xmax).all()
            assert (cols["y"] <= tile_extent.ymax).all()

    def test_write_cloud_tiles_round_trip(self, tmp_path):
        from repro.datasets.lidar import write_cloud_tiles

        scene = make_scene(EXTENT, seed=33)
        cloud = generate_points(scene, 1500, seed=33)
        paths = write_cloud_tiles(tmp_path, cloud, EXTENT, 2, 2)
        total = 0
        xs = []
        for path in paths:
            _h, cols = read_las(path)
            total += cols["x"].shape[0]
            xs.append(cols["x"])
        assert total == 1500
        np.testing.assert_allclose(
            np.sort(np.concatenate(xs)), np.sort(cloud["x"]), atol=0.006
        )

    def test_write_cloud_tiles_compressed(self, tmp_path):
        from repro.datasets.lidar import write_cloud_tiles

        scene = make_scene(EXTENT, seed=34)
        cloud = generate_points(scene, 400, seed=34)
        paths = write_cloud_tiles(
            tmp_path, cloud, EXTENT, 1, 2, compressed=True
        )
        assert all(p.suffix == ".laz" for p in paths)


class TestOsm:
    def test_road_classes_present(self):
        osm = generate_osm(EXTENT, seed=1)
        classes = {r.road_class for r in osm.roads}
        assert "motorway" in classes
        assert classes <= set(ROAD_CLASSES)

    def test_geometries_inside_extent(self):
        osm = generate_osm(EXTENT, seed=2)
        for road in osm.roads:
            env = road.geometry.envelope
            assert env.xmin >= EXTENT.xmin - 1e-6
            assert env.xmax <= EXTENT.xmax + 1e-6

    def test_rivers_cross_extent(self):
        osm = generate_osm(EXTENT, n_rivers=1, seed=3)
        river = osm.rivers[0].geometry
        assert river.coords[0, 0] == EXTENT.xmin
        assert river.coords[-1, 0] == EXTENT.xmax

    def test_pois(self):
        osm = generate_osm(EXTENT, n_pois=10, seed=4)
        assert len(osm.pois) == 10
        assert all(EXTENT.contains_point(p.geometry.x, p.geometry.y) for p in osm.pois)

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            generate_osm(EXTENT, grid=1)


class TestUrbanAtlas:
    def test_codes_are_known(self):
        ua = generate_urban_atlas(EXTENT, seed=1)
        assert all(z.code in UA_CODES for z in ua.zones)

    def test_fast_transit_follows_motorways(self):
        osm = generate_osm(EXTENT, seed=2)
        ua = generate_urban_atlas(EXTENT, osm=osm, seed=2)
        transit = ua.zones_of(FAST_TRANSIT)
        assert len(transit) == len(osm.roads_of_class("motorway"))
        # Every motorway vertex lies inside its corridor zone.
        from repro.gis.predicates import points_in_geometry

        for zone, road in zip(transit, osm.roads_of_class("motorway")):
            xs = road.geometry.coords[:, 0]
            ys = road.geometry.coords[:, 1]
            assert points_in_geometry(xs, ys, zone.geometry).all()

    def test_water_zones_follow_terrain(self):
        terrain = generate_terrain(EXTENT, order=6, sea_level_quantile=0.3, seed=3)
        ua = generate_urban_atlas(EXTENT, terrain=terrain, seed=3)
        water = ua.zones_of(WATER_BODY)
        assert water, "terrain with 30% water must yield water zones"

    def test_zone_areas_positive(self):
        ua = generate_urban_atlas(EXTENT, seed=4)
        assert all(z.area > 0 for z in ua.zones)

    def test_land_zones_tile_the_extent(self):
        """Without corridors, zone areas sum to the extent area (the grid
        partition is exact)."""
        ua = generate_urban_atlas(EXTENT, seed=5)
        total = sum(z.area for z in ua.zones)
        assert total == pytest.approx(EXTENT.area, rel=1e-9)

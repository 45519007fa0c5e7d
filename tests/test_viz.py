"""Tests for the visualisation substrate."""

import numpy as np
import pytest

from repro.datasets.lidar import generate_points, make_scene
from repro.datasets.osm import generate_osm
from repro.datasets.urbanatlas import generate_urban_atlas
from repro.gis.envelope import Box
from repro.gis.geometry import LineString, Polygon
from repro.viz.layers import LayeredMap, LineLayer, PointLayer, PolygonLayer
from repro.viz.raster import Canvas, read_ppm
from repro.viz.render import render_basemap, render_pointcloud, render_query_overlay

EXTENT = Box(0, 0, 100, 100)


class TestCanvas:
    def test_dimensions_follow_aspect(self):
        canvas = Canvas(Box(0, 0, 200, 100), width=200)
        assert canvas.height == 100

    def test_explicit_height(self):
        canvas = Canvas(EXTENT, width=64, height=32)
        assert canvas.pixels.shape == (32, 64, 3)

    def test_bad_width(self):
        with pytest.raises(ValueError):
            Canvas(EXTENT, width=0)

    def test_to_pixel_orientation(self):
        canvas = Canvas(EXTENT, width=100, height=100)
        px, py = canvas.to_pixel(np.array([0.0, 100.0]), np.array([0.0, 100.0]))
        assert px.tolist() == [0, 99]
        assert py.tolist() == [99, 0]  # north is up: ymax -> row 0

    def test_draw_points(self):
        canvas = Canvas(EXTENT, width=50, height=50)
        canvas.draw_points(np.array([50.0]), np.array([50.0]), color=(255, 0, 0))
        assert (canvas.pixels == [255, 0, 0]).all(axis=2).any()

    def test_draw_points_per_point_colors(self):
        canvas = Canvas(EXTENT, width=50, height=50)
        colors = np.array([[255, 0, 0], [0, 255, 0]], dtype=np.uint8)
        canvas.draw_points(
            np.array([10.0, 90.0]), np.array([10.0, 90.0]), color=colors
        )
        assert (canvas.pixels == [255, 0, 0]).all(axis=2).any()
        assert (canvas.pixels == [0, 255, 0]).all(axis=2).any()

    def test_draw_line_connects_endpoints(self):
        canvas = Canvas(EXTENT, width=50, height=50)
        canvas.draw_line(0, 0, 100, 100, color=(0, 0, 255))
        blue = (canvas.pixels == [0, 0, 255]).all(axis=2)
        assert blue[49, 0] and blue[0, 49]
        assert blue.sum() >= 50

    def test_fill_polygon(self):
        canvas = Canvas(EXTENT, width=50, height=50)
        poly = Polygon([(20, 20), (80, 20), (80, 80), (20, 80)])
        canvas.fill_polygon(poly, color=(0, 128, 0))
        filled = (canvas.pixels == [0, 128, 0]).all(axis=2)
        # Roughly 36% of the canvas is inside the square.
        assert 0.25 < filled.mean() < 0.45

    def test_ppm_round_trip(self, tmp_path):
        canvas = Canvas(EXTENT, width=20, height=10)
        canvas.draw_points(np.array([50.0]), np.array([50.0]), color=(9, 8, 7))
        path = canvas.write_ppm(tmp_path / "out.ppm")
        back = read_ppm(path)
        np.testing.assert_array_equal(back, canvas.pixels)

    def test_read_ppm_rejects_other(self, tmp_path):
        bad = tmp_path / "x.ppm"
        bad.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(ValueError):
            read_ppm(bad)

    def test_to_ascii_shape(self):
        canvas = Canvas(EXTENT, width=100, height=100, background=(0, 0, 0))
        art = canvas.to_ascii(columns=40)
        lines = art.splitlines()
        assert all(len(line) == 40 for line in lines)
        assert len(lines) == 20  # half-height for character aspect

    def test_to_ascii_brightness(self):
        dark = Canvas(EXTENT, width=10, height=10, background=(0, 0, 0))
        bright = Canvas(EXTENT, width=10, height=10, background=(255, 255, 255))
        assert set(dark.to_ascii(columns=10)) <= {" ", "\n"}
        assert "@" in bright.to_ascii(columns=10)

    def test_ascii_bad_columns(self):
        from repro.viz.raster import ascii_render

        canvas = Canvas(EXTENT, width=10, height=10)
        with pytest.raises(ValueError):
            ascii_render(canvas.pixels, columns=1)


class TestLayers:
    def test_layered_map_composition(self):
        world = LayeredMap(EXTENT, width=64)
        world.add(
            PolygonLayer(
                [Polygon([(0, 0), (100, 0), (100, 100), (0, 100)])],
                color=(10, 10, 10),
            )
        )
        world.add(LineLayer([LineString([(0, 50), (100, 50)])], color=(250, 0, 0)))
        world.add(
            PointLayer(np.array([50.0]), np.array([75.0]), color=(0, 250, 0))
        )
        canvas = world.render()
        assert (canvas.pixels == [250, 0, 0]).all(axis=2).any()
        assert (canvas.pixels == [0, 250, 0]).all(axis=2).any()

    def test_polygon_outline(self):
        world = LayeredMap(EXTENT, width=64)
        world.add(
            PolygonLayer(
                [Polygon([(10, 10), (90, 10), (90, 90), (10, 90)])],
                color=(200, 200, 200),
                outline=(0, 0, 0),
            )
        )
        canvas = world.render()
        assert (canvas.pixels == [0, 0, 0]).all(axis=2).any()

    def test_empty_point_layer(self):
        world = LayeredMap(EXTENT, width=16)
        world.add(PointLayer(np.empty(0), np.empty(0)))
        world.render()  # must not raise


class TestFigureRenderers:
    def test_figure1_pointcloud(self):
        scene = make_scene(EXTENT, seed=1)
        cloud = generate_points(scene, 5000, seed=1)
        canvas = render_pointcloud(cloud, width=128)
        # Dark background with many coloured points drawn over it.
        background = (canvas.pixels == [15, 15, 25]).all(axis=2)
        assert 0.01 < background.mean() < 0.99

    def test_figure2_basemap(self):
        osm = generate_osm(EXTENT, seed=2)
        ua = generate_urban_atlas(EXTENT, osm=osm, seed=2)
        canvas = render_basemap(osm=osm, urban_atlas=ua, width=128)
        # Motorway red must be visible on top of the land cover.
        assert (canvas.pixels == [220, 60, 30]).all(axis=2).any()

    def test_basemap_needs_extent(self):
        with pytest.raises(ValueError):
            render_basemap()

    def test_query_overlay(self):
        scene = make_scene(EXTENT, seed=3)
        cloud = generate_points(scene, 1000, seed=3)
        canvas = render_pointcloud(cloud, width=64)
        before = (canvas.pixels == [255, 0, 0]).all(axis=2).sum()
        render_query_overlay(
            canvas, cloud["x"][:100], cloud["y"][:100], color=(255, 0, 0)
        )
        after = (canvas.pixels == [255, 0, 0]).all(axis=2).sum()
        assert after > before

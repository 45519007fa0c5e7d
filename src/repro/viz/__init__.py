"""Visualisation substrate: the QGIS stand-in.

Layered world-coordinate rendering to PPM images —
:class:`~repro.viz.raster.Canvas` primitives,
:class:`~repro.viz.layers.LayeredMap` composition, and the two
figure-level renderers of :mod:`repro.viz.render`.
"""

from .layers import LayeredMap, LineLayer, PointLayer, PolygonLayer
from .lod import PointPyramid, build_pyramid
from .raster import Canvas, ascii_render, read_ppm
from .render import render_basemap, render_pointcloud, render_query_overlay

__all__ = [
    "Canvas",
    "LayeredMap",
    "LineLayer",
    "PointLayer",
    "PointPyramid",
    "PolygonLayer",
    "ascii_render",
    "build_pyramid",
    "read_ppm",
    "render_basemap",
    "render_pointcloud",
    "render_query_overlay",
]

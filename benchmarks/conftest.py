"""Shared fixtures for the experiment benchmarks (E1-E10).

One synthetic AHN2-like region is generated per session and reused by
every experiment: an in-memory column batch, a tiled LAS directory for
the file-based paths, and pre-loaded stores for the query benches.

Scale note: the paper's AHN2 has 640e9 points; the benches run at
BENCH_POINTS (default 200k) and report projected full-scale numbers where
the paper makes full-scale claims (E1).  Set REPRO_BENCH_POINTS to run
larger.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import PointCloudDB
from repro.blockstore.store import BlockStore
from repro.datasets.lidar import generate_points, make_scene, write_tile_files
from repro.gis.envelope import Box
from repro.lastools.clip import LasClip

BENCH_POINTS = int(os.environ.get("REPRO_BENCH_POINTS", "200000"))
EXTENT = Box(85_000, 445_000, 87_000, 447_000)  # 2x2 km RD-like tile


@pytest.fixture(scope="session")
def extent():
    return EXTENT


@pytest.fixture(scope="session")
def cloud():
    """The in-memory column batch everything loads from."""
    scene = make_scene(EXTENT, seed=7)
    return generate_points(scene, BENCH_POINTS, seed=7)


@pytest.fixture(scope="session")
def tile_dir(tmp_path_factory, cloud):
    """The same cloud as a 4x4 grid of LAS tiles (AHN2 layout, scaled)."""
    from repro.datasets.lidar import write_cloud_tiles

    directory = tmp_path_factory.mktemp("bench_tiles")
    write_cloud_tiles(directory, cloud, EXTENT, 4, 4)
    return directory


@pytest.fixture(scope="session")
def small_tile(tmp_path_factory):
    """A single modest LAS file for the per-file loading benches."""
    directory = tmp_path_factory.mktemp("bench_small")
    paths = write_tile_files(directory, EXTENT, 50_000, 1, 1, seed=9)
    return paths[0]


@pytest.fixture(scope="session")
def flat_db(cloud):
    """The paper's system: flat table + imprints, loaded and warmed."""
    db = PointCloudDB()
    db.create_pointcloud("ahn2")
    db.load_points("ahn2", cloud)
    # Warm the imprints (the paper builds them on the first range query).
    db.spatial_select("ahn2", Box(EXTENT.xmin, EXTENT.ymin, EXTENT.xmin + 1, EXTENT.ymin + 1))
    return db


@pytest.fixture(scope="session")
def block_store(cloud):
    """The PostgreSQL-pointcloud-like baseline, loaded."""
    store = BlockStore(patch_size=4096, sort="morton")
    store.load({k: cloud[k] for k in ("x", "y", "z", "classification")})
    return store


@pytest.fixture(scope="session")
def las_clip(tile_dir):
    """The LAStools-like baseline with .lax indexes built."""
    clip = LasClip(tile_dir, catalog_mode="metadata", use_index=True)
    clip.build_indexes(leaf_capacity=2000)
    return clip

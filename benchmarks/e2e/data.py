"""The benchmark's datasets: built once by ``run.py --prepare``, cached
under ``.cache/``, never part of a run's time.

One synthetic AHN2 survey (``make_scene`` + ``generate_points``, data
seed 7, acquisition order) is the source of everything:

``ahn2``           the 26-column flat store, imprints on x/y/z persisted
``ahn2_shuffled``  the same rows under one seeded permutation, so zone
                   maps can skip nothing
``ahn2_packed``    x, y, z in both row orders with ``compress()`` mirrors;
                   only the traced access-path probes read them
``tiles``          the cloud re-cut into 8 x 16 LAS tiles
``oracle``         the benchmark's own brute-force index (see oracle.py)

A cache is reused only when its key — points, data seed, the SHA-256 of
the sources that decide the bytes on disk, this layout's version —
matches; anything else is rebuilt, never silently reused.  The SHA-256
of the generated x/y/z bytes and the on-disk format versions are
recorded beside the key so two result files can prove they measured the
same data.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from common import CACHE, SRC, TABLE, dir_bytes, now

DATA_SEED = 7
VECTOR_SEED = 5
SHUFFLE_SEED = 11
TILES_X, TILES_Y = 8, 16
PACKED_COLUMNS = ("x", "y", "z")
#: Bump when this file changes what it writes.
LAYOUT_VERSION = 2

#: Sources that decide the cached bytes; editing one invalidates caches.
_KEY_SOURCES = (
    "datasets/lidar.py",
    "datasets/terrain.py",
    "engine/storage.py",
    "engine/compression.py",
    "core/imprints/persist.py",
    "core/imprints/segments.py",
    "las/writer.py",
)


def extent():
    from repro.gis.envelope import Box

    return Box(85_000, 445_000, 87_000, 447_000)


def scale_label(points: int) -> str:
    if points % 1_000_000 == 0:
        return f"{points // 1_000_000}m"
    if points % 1_000 == 0:
        return f"{points // 1_000}k"
    return str(points)


def cache_key(points: int) -> Dict[str, Any]:
    digest = hashlib.sha256()
    for rel in _KEY_SOURCES:
        digest.update((SRC / "repro" / rel).read_bytes())
    digest.update(Path(__file__).read_bytes())
    return {
        "points": points,
        "data_seed": DATA_SEED,
        "layout": LAYOUT_VERSION,
        "source_sha256": digest.hexdigest(),
    }


@dataclass
class Dataset:
    """Paths into one prepared cache plus its manifest."""

    root: Path
    manifest: Dict[str, Any]

    @property
    def points(self) -> int:
        return int(self.manifest["key"]["points"])

    def store(self, shuffled: bool = False) -> Path:
        label = scale_label(self.points)
        return self.root / (f"ahn2_{label}_shuffled" if shuffled else f"ahn2_{label}")

    def packed(self, shuffled: bool = False) -> Path:
        return self.store(shuffled).with_name(self.store(shuffled).name + "_packed")

    @property
    def tiles(self) -> List[Path]:
        return sorted((self.root / f"tiles_{scale_label(self.points)}").glob("*.las"))

    @property
    def oracle(self) -> Path:
        return self.root / "oracle"


def cached(points: int) -> Optional[Dataset]:
    """The prepared dataset for ``points``; None when the cache is
    missing, incomplete or keyed differently."""
    root = CACHE / scale_label(points)
    manifest_path = root / "manifest.json"
    if manifest_path.is_file():
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("key") == cache_key(points):
            return Dataset(root, manifest)
        print(f"prepare: cache key changed, rebuilding {root}", file=sys.stderr)
    return None


def ensure(points: int, force: bool = False) -> Dataset:
    """The prepared dataset for ``points``, built when not cached."""
    found = cached(points)
    if found is not None and not force:
        return found
    root = CACHE / scale_label(points)
    manifest = _build(root, cache_key(points))
    if found is not None and found.manifest["xyz_sha256"] != manifest["xyz_sha256"]:
        raise RuntimeError("generator is not deterministic: x/y/z bytes changed")
    return Dataset(root, manifest)


def _build(root: Path, key: Dict[str, Any]) -> Dict[str, Any]:
    from repro import PointCloudDB
    from repro.datasets.lidar import generate_points, make_scene, write_cloud_tiles
    from repro.engine.storage import read_column_header

    import oracle

    points = key["points"]
    print(f"prepare: building {points} points under {root}", file=sys.stderr)
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    dataset = Dataset(root, {"key": key})
    seconds: Dict[str, float] = {}
    t_start = now()

    t0 = now()
    columns = generate_points(make_scene(extent(), seed=DATA_SEED), points, seed=DATA_SEED)
    xyz = hashlib.sha256()
    for name in ("x", "y", "z"):
        xyz.update(np.ascontiguousarray(columns[name]).tobytes())
    seconds["generate"] = now() - t0

    def save_store(cols: Dict[str, np.ndarray], path: Path) -> Dict[str, Dict[str, int]]:
        db = PointCloudDB(threads=1)
        table = db.create_pointcloud(TABLE)
        db.load_points(TABLE, cols)
        for name in ("x", "y", "z"):
            db.manager.ensure(table, name)
        db.save(path)
        return db.storage_report()

    flat_types = dict(PointCloudDB().create_pointcloud(TABLE).schema)
    compression: Dict[str, Any] = {}

    def save_packed(cols: Dict[str, np.ndarray], path: Path) -> None:
        db = PointCloudDB(threads=1)
        table = db.db.create_table(TABLE, [(n, flat_types[n]) for n in PACKED_COLUMNS])
        table.append_columns({name: cols[name] for name in PACKED_COLUMNS})
        t0 = now()
        db.compress(TABLE)
        report = db.storage_report()[TABLE]
        compression[path.name] = {
            "compress_s": now() - t0,
            "plain_bytes": report["column_bytes"],
            "packed_bytes": report["compressed_bytes"],
            "ratio": report["column_bytes"] / report["compressed_bytes"],
        }
        db.save(path)

    t0 = now()
    report = save_store(columns, dataset.store())
    save_packed(columns, dataset.packed())
    seconds["stores"] = now() - t0

    t0 = now()
    perm = np.random.default_rng(SHUFFLE_SEED).permutation(points)
    shuffled = {name: np.asarray(arr)[perm] for name, arr in columns.items()}
    shuffled_report = save_store(shuffled, dataset.store(shuffled=True))
    save_packed(shuffled, dataset.packed(shuffled=True))
    del shuffled
    seconds["stores_shuffled"] = now() - t0

    t0 = now()
    tiles = write_cloud_tiles(
        root / f"tiles_{scale_label(points)}", columns, extent(), TILES_X, TILES_Y
    )
    seconds["tiles"] = now() - t0

    t0 = now()
    oracle.build(dataset.oracle, columns, perm, extent())
    oracle.self_check(dataset, columns, perm)
    seconds["oracle"] = now() - t0

    seconds["total"] = now() - t_start
    manifest = {
        "key": key,
        "xyz_sha256": xyz.hexdigest(),
        "formats": {
            "col": read_column_header(dataset.store() / TABLE / "x.col")["version"],
            "imprint_prefix": next(
                (dataset.store() / "_imprints").glob("*.imprint")
            ).read_bytes()[:6].hex(),
        },
        "rows": points,
        "n_tiles": len(tiles),
        "store_bytes": dir_bytes(dataset.store()),
        "storage_report": report[TABLE],
        "storage_report_shuffled": shuffled_report[TABLE],
        "compression": compression,
        "prepare_seconds": seconds,
    }
    # The manifest goes last, atomically: a half-built cache has none
    # and is rebuilt.
    tmp = root / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2) + "\n")
    tmp.replace(root / "manifest.json")
    print(f"prepare: done in {seconds['total']:.1f} s", file=sys.stderr)
    return manifest


def vector_relations() -> Dict[str, Dict[str, Any]]:
    """OSM roads and Urban Atlas zones as SQL relations (seed 5)."""
    from repro.datasets.lidar import make_scene
    from repro.datasets.osm import generate_osm
    from repro.datasets.urbanatlas import generate_urban_atlas

    scene = make_scene(extent(), seed=DATA_SEED)
    osm = generate_osm(extent(), seed=VECTOR_SEED)
    atlas = generate_urban_atlas(
        extent(), terrain=scene.terrain, osm=osm, seed=VECTOR_SEED
    )
    return {
        "roads": {
            "road_id": np.array([r.road_id for r in osm.roads]),
            "class": np.array([r.class_code for r in osm.roads]),
            "geom": [r.geometry for r in osm.roads],
        },
        "ua_zones": {
            "zone_id": np.array([z.zone_id for z in atlas.zones]),
            "code": np.array([z.code for z in atlas.zones]),
            "geom": [z.geometry for z in atlas.zones],
        },
    }

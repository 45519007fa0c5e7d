"""Command-line interface: the demo's console.

The VLDB demo drove everything through QGIS; a downstream user of this
library gets a CLI instead::

    repro-gis generate --points 100000 --out tiles/        # synthetic AHN2
    repro-gis info tiles/                                   # header summary
    repro-gis load tiles/ --db farm/                        # binary loader
    repro-gis load tiles/ --db farm/ --resume               # resume a crashed load
    repro-gis verify farm/ [--repair]                       # checksums + health
    repro-gis query farm/ --wkt 'POLYGON ((...))'           # spatial select
    repro-gis sql farm/ 'SELECT count(*) FROM points'       # ad-hoc SQL
    repro-gis sort tile.las sorted.las --curve hilbert      # lassort
    repro-gis index tiles/                                  # lasindex
    repro-gis render tiles/ out.ppm                         # figure 1 style
    repro-gis serve farm/ --port 8472                       # query daemon
    repro-gis slowlog farm/slow-query.jsonl                 # slow-query records
    repro-gis profile farm/ --sql 'SELECT ...'              # CPU flame profile
    repro-gis heat farm/ [--hints]                          # workload heat map
    repro-gis check [--format json]                         # invariant linter

Every subcommand is a thin shell over the library; the functions return
exit codes and print plain text, so they stay unit-testable.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

import numpy as np


def _cmd_generate(args: argparse.Namespace) -> int:
    from .datasets.lidar import generate_points, make_scene, write_cloud_tiles
    from .gis.envelope import Box

    extent = Box(*args.extent)
    scene = make_scene(extent, seed=args.seed)
    cloud = generate_points(scene, args.points, seed=args.seed)
    paths = write_cloud_tiles(
        args.out, cloud, extent, args.tiles, args.tiles, compressed=args.laz
    )
    print(f"wrote {len(paths)} tiles ({args.points} points) to {args.out}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from .las.reader import read_header

    directory = Path(args.tiles)
    paths = sorted(
        p for p in directory.iterdir() if p.suffix.lower() in (".las", ".laz")
    )
    if not paths:
        print(f"no LAS/LAZ files under {directory}", file=sys.stderr)
        return 1
    total = 0
    min_x = min_y = float("inf")
    max_x = max_y = float("-inf")
    for path in paths:
        header = read_header(path)
        total += header.n_points
        min_x = min(min_x, header.min_xyz[0])
        min_y = min(min_y, header.min_xyz[1])
        max_x = max(max_x, header.max_xyz[0])
        max_y = max(max_y, header.max_xyz[1])
        print(
            f"{path.name}: fmt={header.point_format} n={header.n_points} "
            f"bbox=({header.min_xyz[0]:.2f}, {header.min_xyz[1]:.2f}) - "
            f"({header.max_xyz[0]:.2f}, {header.max_xyz[1]:.2f})"
        )
    print(f"total: {len(paths)} files, {total} points")
    if args.wgs84:
        from .gis.crs import rd_to_wgs84

        lat_lo, lon_lo = rd_to_wgs84(min_x, min_y)
        lat_hi, lon_hi = rd_to_wgs84(max_x, max_y)
        print(
            f"WGS84 bounds (coords read as RD New): "
            f"({float(lat_lo):.5f}, {float(lon_lo):.5f}) - "
            f"({float(lat_hi):.5f}, {float(lon_hi):.5f})"
        )
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    from .las.ingest import ResumableIngest

    directory = Path(args.tiles)
    paths = sorted(
        p for p in directory.iterdir() if p.suffix.lower() in (".las", ".laz")
    )
    if not paths:
        print(f"no LAS/LAZ files under {directory}", file=sys.stderr)
        return 1
    ingest = ResumableIngest(
        args.db,
        table=args.table,
        checkpoint_every=args.checkpoint_every,
        retries=args.retries,
    )
    _db, stats = ingest.load(paths, resume=args.resume)
    extras = []
    if stats.n_skipped:
        extras.append(f"{stats.n_skipped} tiles already loaded (skipped)")
    if stats.n_rows_rolled_back:
        extras.append(f"{stats.n_rows_rolled_back} torn rows rolled back")
    print(
        f"loaded {stats.n_points} points from {stats.n_files} files in "
        f"{stats.seconds:.3f}s ({stats.points_per_second:,.0f} pts/s); "
        f"database saved to {args.db}"
        + ("".join(f"; {extra}" for extra in extras))
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Exit 0 iff the store verifies clean — the contract CI, the
    daemon's health probe and scripts rely on (locked by tests)."""
    import json

    from .api import PointCloudDB

    repaired: List[str] = []
    if args.repair:
        db = PointCloudDB.recover(args.db)
        for name, health in sorted(db.health.items()):
            for issue in health["issues"]:
                repaired.append(f"{name}: {issue}")
                if not args.json:
                    print(f"repaired {name}: {issue}")
        for path in db.manager.quarantined:
            repaired.append(f"quarantined imprint: {path}")
            if not args.json:
                print(f"quarantined imprint: {path}")
    else:
        db = PointCloudDB(directory=args.db)
    report = db.verify()
    if args.json:
        if args.repair:
            report["repaired"] = repaired
        print(json.dumps(report, indent=2))
        return 0 if report["ok"] else 1
    if "error" in report:
        print(f"error: {report['error']}", file=sys.stderr)
        return 1
    for name, entry in sorted(report["tables"].items()):
        status = "ok" if entry["ok"] else "CORRUPT"
        print(f"table {name}: {status}")
        for issue in entry["issues"]:
            print(f"  - {issue}")
    imprints = report["imprints"]
    print(f"imprints: {'ok' if imprints['ok'] else 'CORRUPT'}")
    for issue in imprints["issues"]:
        print(f"  - {issue}")
    print(f"verify: {'OK' if report['ok'] else 'FAILED'}")
    return 0 if report["ok"] else 1


def _cmd_compress(args: argparse.Namespace) -> int:
    from .api import PointCloudDB

    db = PointCloudDB.load(args.db)
    columns = args.columns.split(",") if args.columns else None
    names = [args.table] if args.table else None
    report = {}
    for name in names or db.db.table_names:
        report.update(db.compress(name, columns=columns, scheme=args.scheme))
    db.save()
    for table_name, per_column in sorted(report.items()):
        print(f"table {table_name}:")
        for column, entry in per_column.items():
            schemes = ",".join(
                f"{s}x{n}" for s, n in sorted(entry["schemes"].items())
            )
            nbytes = int(entry["nbytes"])
            plain = int(entry["plain_nbytes"])
            ratio = nbytes / plain if plain else 1.0
            print(
                f"  {column}: {schemes}  {nbytes:,} / {plain:,} bytes "
                f"({ratio:.2f}x)"
            )
    return 0


def _open_db(db_dir: str):
    from .api import PointCloudDB

    return PointCloudDB.load(db_dir)


def _cmd_query(args: argparse.Namespace) -> int:
    from .gis.wkt import loads

    from .obs.queries import QueryCancelled

    db = _open_db(args.db)
    geometry = loads(args.wkt)
    start = time.perf_counter()
    try:
        result = db.spatial_select(
            args.table,
            geometry,
            predicate=args.predicate,
            distance=args.distance,
            timeout_s=args.timeout,
        )
    except QueryCancelled as exc:
        print(f"cancelled: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - start
    print(f"{len(result)} points in {elapsed * 1e3:.2f} ms")
    stats = result.stats
    selectivity = stats.filter_selectivity
    sel_text = (
        "-" if selectivity != selectivity  # NaN: empty table
        else f"{selectivity * 100:.2f}%"
    )
    print(
        f"filter: {stats.n_filter_candidates} candidates "
        f"({sel_text} of {stats.n_rows} rows); "
        f"segments: {stats.n_segments_skipped} zone-map skips, "
        f"{stats.n_segments_probed} probed "
        f"({stats.n_probes_dense} dense, {stats.n_probes_gather} gather; "
        f"imprints: {'+'.join(stats.imprint_columns) or '-'}); "
        f"refine: {stats.refine_stats.boundary_cells} boundary cells"
    )
    if args.show:
        table = db.table(args.table)
        for oid in result.oids[: args.show]:
            x, y, z = (
                table.column("x").values[oid],
                table.column("y").values[oid],
                table.column("z").values[oid],
            )
            print(f"  ({x:.2f}, {y:.2f}, {z:.2f})")
    return 0


def _cmd_sql(args: argparse.Namespace) -> int:
    from .obs.queries import QueryCancelled

    db = _open_db(args.db)
    if args.explain:
        print(db.explain(args.query))
        return 0
    if args.analyze:
        print(db.explain_analyze(args.query))
        return 0
    start = time.perf_counter()
    try:
        result = db.sql(args.query, timeout_s=args.timeout)
    except QueryCancelled as exc:
        print(f"cancelled: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - start
    print("  ".join(result.columns))
    for row in result.rows[: args.limit]:
        print("  ".join(str(v) for v in row))
    if len(result.rows) > args.limit:
        print(f"... {len(result.rows) - args.limit} more rows")
    print(f"({len(result.rows)} rows in {elapsed * 1e3:.2f} ms)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .obs.metrics import get_registry
    from .obs.trace import get_tracer, to_chrome, to_json

    if not args.sql and not args.wkt:
        print("trace: need --sql or --wkt", file=sys.stderr)
        return 1

    tracer = get_tracer()
    tracer.enable()
    db = _open_db(args.db)
    if args.sql:
        result = db.sql(args.sql)
        print(f"query returned {len(result.rows)} rows", file=sys.stderr)
    else:
        from .gis.wkt import loads

        geometry = loads(args.wkt)
        result = db.spatial_select(
            args.table, geometry, predicate=args.predicate, distance=args.distance
        )
        print(f"query returned {len(result)} points", file=sys.stderr)

    spans = (
        tracer.last_traces(args.last) if args.last is not None else tracer.spans()
    )
    exported = to_chrome(spans) if args.export == "chrome" else to_json(spans)
    if args.out:
        Path(args.out).write_text(exported)
        print(f"wrote {len(spans)} spans to {args.out}", file=sys.stderr)
    else:
        print(exported)
    if args.metrics:
        print(json.dumps(get_registry().snapshot(), indent=2), file=sys.stderr)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Sample a query under the profiler; export collapsed/speedscope."""
    import json

    from .obs.profiler import SamplingProfiler

    if not args.sql and not args.wkt:
        print("profile: need --sql or --wkt", file=sys.stderr)
        return 1

    db = _open_db(args.db)
    geometry = None
    if args.wkt:
        from .gis.wkt import loads

        geometry = loads(args.wkt)

    def run_once() -> int:
        if args.sql:
            return len(db.sql(args.sql).rows)
        result = db.spatial_select(
            args.table, geometry, predicate=args.predicate, distance=args.distance
        )
        return len(result)

    profiler = SamplingProfiler(rate_hz=args.rate)
    profiler.start()
    runs = 0
    rows = 0
    t0 = time.perf_counter()
    try:
        # Repeat until the sampling window is filled: a single small
        # query finishes in microseconds and would yield zero samples.
        while True:
            rows = run_once()
            runs += 1
            if time.perf_counter() - t0 >= args.duration:
                break
    finally:
        profiler.stop()
    elapsed = time.perf_counter() - t0
    profile = profiler.profile()
    print(
        f"profiled {runs} run(s) in {elapsed:.2f}s at {args.rate:g} Hz: "
        f"{profile.aggregate.samples} samples, last run {rows} rows",
        file=sys.stderr,
    )
    for frame, count in profile.hot_frames(args.top):
        share = count / max(1, profile.aggregate.samples)
        print(f"  {share:6.1%}  {count:>6}  {frame}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(
            json.dumps(profile.speedscope(name=f"repro-gis profile {args.db}"))
            + "\n"
        )
        print(f"wrote speedscope JSON to {args.out}", file=sys.stderr)
    if args.collapsed:
        Path(args.collapsed).write_text(profile.collapsed())
        print(f"wrote collapsed stacks to {args.collapsed}", file=sys.stderr)
    if not args.out and not args.collapsed:
        print(profile.collapsed(), end="")
    return 0


def _cmd_heat(args: argparse.Namespace) -> int:
    """Render hot-segment/hot-extent reports from a heat journal."""
    import json

    from .obs.heat import HEAT_JOURNAL_NAME, HeatMap, read_journal

    path = Path(args.journal)
    if path.is_dir():
        path = path / HEAT_JOURNAL_NAME
    if not path.exists():
        print(f"heat: no journal at {path}", file=sys.stderr)
        return 1
    records = read_journal(path)
    if not records:
        print(f"heat: {path} holds no intact windows", file=sys.stderr)
        return 1
    heat = HeatMap.from_journal(path)
    if args.hints:
        print(json.dumps(heat.hints(top=args.top), indent=2))
        return 0
    snapshot = heat.snapshot(top=args.top)
    if args.json:
        print(json.dumps(snapshot, indent=2))
        return 0
    print(
        f"heat journal {path}: {len(records)} window(s), "
        f"halflife {snapshot['halflife_s']:g}s, "
        f"tables: {', '.join(snapshot['tables']) or '(none)'}"
    )
    segments = snapshot["segments"]
    print(f"hot segments (top {len(segments)} of {snapshot['totals']['segments']}):")
    if segments:
        print(
            f"  {'table':<12} {'column':<16} {'seg':>5} {'probes':>8} "
            f"{'skips':>8} {'fulls':>8} {'bytes':>12}"
        )
        for row in segments:
            seg = "all" if row["segment"] == -1 else str(row["segment"])
            print(
                f"  {row['table']:<12} {row['column']:<16} {seg:>5} "
                f"{row['probes']:>8.1f} {row['skips']:>8.1f} "
                f"{row['fulls']:>8.1f} {row['bytes']:>12,.0f}"
            )
    extents = snapshot["extents"]
    print(f"hot extents (top {len(extents)} of {snapshot['totals']['extents']}):")
    for row in extents:
        extent = row.get("extent")
        where = (
            f"({extent[0]:.1f}, {extent[1]:.1f})–({extent[2]:.1f}, {extent[3]:.1f})"
            if extent
            else f"cell {tuple(row['cell'])}"
        )
        print(
            f"  {row['table']:<12} {where:<44} "
            f"{row['queries']:>8.1f} queries {row['bytes']:>12,.0f} bytes"
        )
    return 0


def _cmd_sort(args: argparse.Namespace) -> int:
    from .lastools.lassort import lassort

    n = lassort(args.input, args.output, curve=args.curve)
    print(f"rewrote {n} points in {args.curve} order to {args.output}")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    from .lastools.clip import LasClip

    clip = LasClip(args.tiles, use_index=True)
    count = clip.build_indexes(leaf_capacity=args.leaf_capacity)
    print(f"indexed {count} files (.lax sidecars written)")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from .las.binloader import read_point_file
    from .viz.render import render_pointcloud

    directory = Path(args.tiles)
    paths = sorted(
        p for p in directory.iterdir() if p.suffix.lower() in (".las", ".laz")
    )
    if not paths:
        print(f"no LAS/LAZ files under {directory}", file=sys.stderr)
        return 1
    pieces = {"x": [], "y": [], "z": [], "classification": []}
    for path in paths:
        _header, cols = read_point_file(path)
        for key in pieces:
            pieces[key].append(cols[key])
    columns = {key: np.concatenate(parts) for key, parts in pieces.items()}
    canvas = render_pointcloud(columns, width=args.width)
    canvas.write_ppm(args.output)
    print(f"rendered {columns['x'].shape[0]} points to {args.output}")
    return 0


def _cmd_elevation(args: argparse.Namespace) -> int:
    from .core.rasterize import chm, dsm, dtm, hillshade
    from .engine.durable import atomic_write_bytes
    from .gis.envelope import Box
    from .las.binloader import read_point_file
    from .viz.raster import Canvas

    directory = Path(args.tiles)
    paths = sorted(
        p for p in directory.iterdir() if p.suffix.lower() in (".las", ".laz")
    )
    if not paths:
        print(f"no LAS/LAZ files under {directory}", file=sys.stderr)
        return 1
    pieces = {"x": [], "y": [], "z": [], "classification": []}
    for path in paths:
        _header, cols = read_point_file(path)
        for key in pieces:
            pieces[key].append(cols[key])
    columns = {key: np.concatenate(parts) for key, parts in pieces.items()}
    extent = Box(
        columns["x"].min(),
        columns["y"].min(),
        columns["x"].max(),
        columns["y"].max(),
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    grids = {
        "dsm": dsm(columns["x"], columns["y"], columns["z"], extent, args.cell),
        "dtm": dtm(
            columns["x"],
            columns["y"],
            columns["z"],
            columns["classification"],
            extent,
            args.cell,
        ),
        "chm": chm(
            columns["x"],
            columns["y"],
            columns["z"],
            columns["classification"],
            extent,
            args.cell,
        ),
    }
    for name, grid in grids.items():
        values = grid.values
        finite = np.isfinite(values)
        lo = values[finite].min() if finite.any() else 0.0
        hi = values[finite].max() if finite.any() else 1.0
        gray = np.zeros(values.shape, dtype=np.uint8)
        gray[finite] = (
            (values[finite] - lo) / max(hi - lo, 1e-9) * 255
        ).astype(np.uint8)
        path = out_dir / f"{name}.pgm"
        pgm_header = f"P5\n{gray.shape[1]} {gray.shape[0]}\n255\n".encode()
        atomic_write_bytes(path, pgm_header + gray[::-1].tobytes(), label="pgm")
        print(f"{name}: {path} ({gray.shape[1]}x{gray.shape[0]}, {lo:.1f}..{hi:.1f} m)")

    shade = hillshade(grids["dsm"])
    canvas = Canvas(extent, width=shade.shape[1], height=shade.shape[0])
    canvas.pixels[:] = (shade[::-1, :, None] * 255).astype(np.uint8)
    canvas.write_ppm(out_dir / "hillshade.ppm")
    print(f"hillshade: {out_dir / 'hillshade.ppm'}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .obs.context import default_context
    from .obs.server import PortInUseError
    from .serve import (
        QueryDaemon,
        QueryService,
        ServeHandler,
        ServiceConfig,
        SnapshotManager,
        TenantBudget,
        parse_quota_spec,
    )

    default_budget = None
    if args.cpu_budget is not None or args.rows_budget is not None:
        default_budget = TenantBudget(
            cpu_seconds=args.cpu_budget, rows_touched=args.rows_budget
        )
    config = ServiceConfig(
        max_concurrency=args.max_concurrency,
        queue_depth=args.queue_depth,
        queue_wait_s=args.queue_wait,
        retry_after_s=args.retry_after,
        default_timeout_s=args.default_timeout,
        max_timeout_s=args.max_timeout,
        drain_timeout_s=args.drain_timeout,
        quotas=parse_quota_spec(args.quota) if args.quota else {},
        default_budget=default_budget,
    )
    obs = default_context()
    # Serve mode runs the continuous-observability layer by default: the
    # workload heat map journalled next to the store for `repro-gis heat`
    # / the sharding planner, and the low-rate sampling profiler (below).
    if not args.no_heat:
        from .obs.heat import enable_heat

        enable_heat(
            journal=Path(args.db) / "heat.jsonl",
            halflife_s=args.heat_halflife,
            flush_interval_s=args.heat_flush,
        )
    snapshots = SnapshotManager(directory=args.db, obs=obs)
    # Fail fast: a missing or unusable store should kill the start, not
    # the first request.
    snapshot = snapshots.open()
    service = QueryService(snapshots, config, obs=obs)
    daemon = QueryDaemon(
        service,
        host=args.host,
        port=args.port,
        reload_poll_s=args.reload_poll,
    )
    try:
        daemon.start()
    except PortInUseError as exc:
        print(f"error: {exc.strerror}", file=sys.stderr)
        return 1
    # The sampling profiler (hot stacks for /debug/profile bursts, the
    # slow-query records of served queries, flight dumps) starts only
    # once the store is open and the daemon is up: sampling the open
    # slowed it for nothing.
    profiler = None
    if not args.no_profile:
        from .obs.profiler import get_profiler

        profiler = get_profiler(rate_hz=args.profile_rate)
        profiler.start()
    # SIGTERM: shed new work (503), drain in-flight queries, then fall
    # through to the flight recorder's hook (installed by main()).
    # signal.signal is main-thread-only; embedded callers (tests drive
    # main() from a worker thread) still get the daemon, minus signals.
    if threading.current_thread() is threading.main_thread():
        daemon.install_signal_handlers()
    routes = ", ".join(
        route.replace("POST:", "POST ")
        for route in ServeHandler.known_routes.split()
    )
    print(
        f"serving queries on {daemon.url} ({routes}) — "
        f"generation {snapshot.generation}, {config.max_concurrency} slots + "
        f"{config.queue_depth} queued",
        flush=True,
    )
    try:
        if args.for_seconds is not None:
            # Stepped so the bounded-run path gets the same heat-flush
            # heartbeat as daemon.wait()'s poll loop.
            deadline = time.monotonic() + args.for_seconds
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                time.sleep(min(1.0, remaining))
                daemon.flush_heat()
        else:
            daemon.wait()  # pragma: no cover - interactive serve loop
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        daemon.drain_and_stop()
        if profiler is not None:
            profiler.stop()
        if not args.no_heat:
            from .obs.heat import disable_heat

            disable_heat()
    return 0


def _cmd_queries(args: argparse.Namespace) -> int:
    import json
    import urllib.error
    import urllib.request

    url = args.url if args.url else f"http://127.0.0.1:{args.port}"
    endpoint = url.rstrip("/") + "/debug/queries"
    try:
        with urllib.request.urlopen(endpoint, timeout=5.0) as response:
            snapshot = json.loads(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError) as exc:
        print(f"error: cannot fetch {endpoint}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(snapshot, indent=2))
        return 0
    active = snapshot.get("active", [])
    recent = snapshot.get("recent", [])
    print(f"active ({len(active)}):")
    header = f"  {'id':<18} {'kind':<8} {'phase':<10} {'prog':>6} {'elapsed':>9}"
    if active:
        print(header)
    for query in active:
        print(
            f"  {query.get('query_id', '?'):<18}"
            f" {query.get('kind', '?'):<8}"
            f" {query.get('phase', '?'):<10}"
            f" {query.get('progress', 0.0) * 100:>5.1f}%"
            f" {query.get('elapsed_s', 0.0):>8.3f}s"
        )
    print(f"recent ({len(recent)}):")
    for query in recent:
        print(
            f"  {query.get('query_id', '?'):<18}"
            f" {query.get('kind', '?'):<8}"
            f" {query.get('status', '?'):<10}"
            f" {query.get('elapsed_s', 0.0):>8.3f}s"
            f"  {query.get('detail') or ''}"
        )
    return 0


def _cmd_slowlog(args: argparse.Namespace) -> int:
    import json

    from .obs.slowlog import format_record, read_records

    records = read_records(args.log)
    if args.last:
        records = records[-args.last :]
    for record in records:
        if args.json:
            print(json.dumps(record))
        else:
            print(format_record(record))
    print(f"({len(records)} slow queries)", file=sys.stderr)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .analysis.main import main as check_main

    return check_main(args.check_args)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument grammar (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-gis",
        description="GIS navigation boosted by column stores (reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesise an AHN2-like tile set")
    p.add_argument("--points", type=int, default=100_000)
    p.add_argument("--tiles", type=int, default=4, help="tiles per axis")
    p.add_argument(
        "--extent",
        type=float,
        nargs=4,
        default=[85_000, 445_000, 87_000, 447_000],
        metavar=("XMIN", "YMIN", "XMAX", "YMAX"),
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--laz", action="store_true", help="write compressed tiles")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("info", help="summarise a tile directory")
    p.add_argument("tiles")
    p.add_argument(
        "--wgs84",
        action="store_true",
        help="also print the WGS84 bounds (input read as RD New / EPSG:28992)",
    )
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("load", help="bulk-load tiles into a database")
    p.add_argument("tiles")
    p.add_argument("--db", required=True, help="database directory")
    p.add_argument("--table", default="points")
    p.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted load from its journal "
        "(skips tiles already durable, rolls back torn tails)",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="tiles between durable checkpoints (default 1)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=3,
        help="transient I/O error retries per tile (default 3)",
    )
    p.set_defaults(fn=_cmd_load)

    p = sub.add_parser(
        "verify", help="check a database's on-disk artifacts (checksums, counts)"
    )
    p.add_argument("db")
    p.add_argument(
        "--repair",
        action="store_true",
        help="roll back torn tails, rewrite repaired tables, quarantine "
        "corrupt imprints and compressed sidecars (re-encoding the "
        "latter from their source columns) before verifying",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable verify report (exit code is the "
        "same contract: 0 clean, 1 corrupt)",
    )
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "compress",
        help="build compressed execution mirrors (.colz sidecars) for a "
        "database's columns",
    )
    p.add_argument("db")
    p.add_argument("--table", default=None, help="one table (default: all)")
    p.add_argument(
        "--columns",
        default=None,
        help="comma-separated column subset (default: every column)",
    )
    p.add_argument(
        "--scheme",
        default="auto",
        choices=["auto", "rle", "dict", "for", "delta_zlib", "plain"],
        help="per-segment encoding (default: adaptive)",
    )
    p.set_defaults(fn=_cmd_compress)

    p = sub.add_parser("query", help="spatial selection on a saved database")
    p.add_argument("db")
    p.add_argument("--table", default="points")
    p.add_argument("--wkt", required=True)
    p.add_argument(
        "--predicate", default="contains", choices=["contains", "dwithin"]
    )
    p.add_argument("--distance", type=float, default=0.0)
    p.add_argument("--show", type=int, default=0, help="print first N hits")
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="cooperative deadline in seconds (cancel when exceeded)",
    )
    p.set_defaults(fn=_cmd_query)

    p = sub.add_parser("sql", help="run SQL on a saved database")
    p.add_argument("db")
    p.add_argument("query")
    p.add_argument("--limit", type=int, default=20)
    p.add_argument(
        "--explain", action="store_true", help="print the plan, do not run"
    )
    p.add_argument(
        "--analyze",
        action="store_true",
        help="run the query under the tracer and print the operator tree",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="cooperative deadline in seconds (cancel when exceeded)",
    )
    p.set_defaults(fn=_cmd_sql)

    p = sub.add_parser(
        "trace", help="run a query with tracing on and export the spans"
    )
    p.add_argument("db")
    p.add_argument("--sql", help="SQL query to trace")
    p.add_argument("--wkt", help="WKT geometry for a spatial selection")
    p.add_argument("--table", default="points")
    p.add_argument(
        "--predicate", default="contains", choices=["contains", "dwithin"]
    )
    p.add_argument("--distance", type=float, default=0.0)
    p.add_argument(
        "--export",
        default="chrome",
        choices=["json", "chrome"],
        help="output format (chrome = chrome://tracing trace events)",
    )
    p.add_argument(
        "--last",
        type=int,
        default=None,
        metavar="N",
        help="export only the last N traces (query trees)",
    )
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument(
        "--metrics",
        action="store_true",
        help="also print the metrics registry snapshot to stderr",
    )
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "profile",
        help="sample a query under the CPU profiler and export "
        "collapsed-stack text / speedscope JSON",
    )
    p.add_argument("db")
    p.add_argument("--sql", help="SQL query to profile")
    p.add_argument("--wkt", help="WKT geometry for a spatial selection")
    p.add_argument("--table", default="points")
    p.add_argument(
        "--predicate", default="contains", choices=["contains", "dwithin"]
    )
    p.add_argument("--distance", type=float, default=0.0)
    p.add_argument(
        "--duration",
        type=float,
        default=1.0,
        metavar="S",
        help="repeat the query for at least S seconds of sampling "
        "(default 1.0)",
    )
    p.add_argument(
        "--rate",
        type=float,
        default=250.0,
        metavar="HZ",
        help="sampling rate (default 250)",
    )
    p.add_argument("--out", help="write speedscope JSON here")
    p.add_argument(
        "--collapsed",
        help="write FlameGraph collapsed-stack text here "
        "(default: stdout when --out is absent)",
    )
    p.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="hot frames printed to stderr (default 10)",
    )
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser(
        "heat",
        help="workload heat report from a heat.jsonl journal "
        "(hot segments, hot extents, partitioning hints)",
    )
    p.add_argument(
        "journal",
        help="heat journal file, or a database directory holding heat.jsonl",
    )
    p.add_argument(
        "--hints",
        action="store_true",
        help="emit ranked hot-extent partitioning hints as JSON",
    )
    p.add_argument(
        "--json", action="store_true", help="raw JSON snapshot instead of text"
    )
    p.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="rows per section (default 10)",
    )
    p.set_defaults(fn=_cmd_heat)

    p = sub.add_parser("sort", help="lassort: rewrite a LAS file in SFC order")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--curve", default="morton", choices=["morton", "hilbert"])
    p.set_defaults(fn=_cmd_sort)

    p = sub.add_parser("index", help="lasindex: build .lax quadtrees")
    p.add_argument("tiles")
    p.add_argument("--leaf-capacity", type=int, default=1000)
    p.set_defaults(fn=_cmd_index)

    p = sub.add_parser("render", help="render tiles to a PPM image")
    p.add_argument("tiles")
    p.add_argument("output")
    p.add_argument("--width", type=int, default=512)
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser(
        "elevation", help="derive DSM/DTM/CHM + hillshade from tiles"
    )
    p.add_argument("tiles")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--cell", type=float, default=5.0, help="cell size (m)")
    p.set_defaults(fn=_cmd_elevation)

    p = sub.add_parser(
        "serve",
        help="serve queries over HTTP (POST /v1/query, /v1/sql) with "
        "bounded admission, per-tenant quotas and graceful drain",
    )
    p.add_argument("db", help="database directory to serve")
    p.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind port (default: 8472; 0 = any free port)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--max-concurrency",
        type=int,
        default=4,
        help="requests executing at once (default 4)",
    )
    p.add_argument(
        "--queue-depth",
        type=int,
        default=8,
        help="requests allowed to wait for a slot; beyond this they are "
        "shed with 429 (default 8)",
    )
    p.add_argument(
        "--queue-wait",
        type=float,
        default=30.0,
        metavar="S",
        help="longest a queued request waits before shedding (default 30)",
    )
    p.add_argument(
        "--retry-after",
        type=float,
        default=1.0,
        metavar="S",
        help="Retry-After hint on 429/503 responses (default 1)",
    )
    p.add_argument(
        "--default-timeout",
        type=float,
        default=None,
        metavar="S",
        help="deadline applied when a request names none",
    )
    p.add_argument(
        "--max-timeout",
        type=float,
        default=60.0,
        metavar="S",
        help="ceiling on any request's deadline (default 60)",
    )
    p.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="S",
        help="how long SIGTERM waits for in-flight queries (default 10)",
    )
    p.add_argument(
        "--quota",
        default=None,
        metavar="SPEC",
        help="per-tenant budgets as 'tenant=cpu_s:rows,...' "
        "(e.g. 'alice=1.5:100000,bob=2.0')",
    )
    p.add_argument(
        "--cpu-budget",
        type=float,
        default=None,
        metavar="S",
        help="default per-tenant CPU-seconds budget",
    )
    p.add_argument(
        "--rows-budget",
        type=int,
        default=None,
        metavar="N",
        help="default per-tenant rows-touched budget",
    )
    p.add_argument(
        "--reload-poll",
        type=float,
        default=None,
        metavar="S",
        help="poll the catalog generation every S seconds and republish "
        "the snapshot after an external writer's publish",
    )
    p.add_argument(
        "--for-seconds",
        type=float,
        default=None,
        metavar="S",
        help="serve for S seconds then drain and exit (default: until "
        "SIGTERM/interrupt)",
    )
    p.add_argument(
        "--no-profile",
        action="store_true",
        help="disable the always-on low-rate sampling profiler",
    )
    p.add_argument(
        "--profile-rate",
        type=float,
        default=19.0,
        metavar="HZ",
        help="always-on sampling rate (default 19)",
    )
    p.add_argument(
        "--no-heat",
        action="store_true",
        help="disable workload heat accounting and the heat.jsonl journal",
    )
    p.add_argument(
        "--heat-halflife",
        type=float,
        default=600.0,
        metavar="S",
        help="heat decay half-life in seconds (default 600)",
    )
    p.add_argument(
        "--heat-flush",
        type=float,
        default=30.0,
        metavar="S",
        help="heat journal flush interval in seconds (default 30)",
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "queries",
        help="show in-flight and recent queries from a telemetry server",
    )
    p.add_argument(
        "--url",
        default=None,
        help="server base URL (default: http://127.0.0.1:<port>)",
    )
    p.add_argument(
        "--port",
        type=int,
        default=8472,
        help="server port when --url is not given (default: 8472, the "
        "serve daemon's)",
    )
    p.add_argument(
        "--json", action="store_true", help="raw JSON snapshot instead of a table"
    )
    p.set_defaults(fn=_cmd_queries)

    p = sub.add_parser(
        "slowlog", help="pretty-print a slow-query JSONL log"
    )
    p.add_argument("log", help="slow-query .jsonl file")
    p.add_argument(
        "--last", type=int, default=None, metavar="N", help="only the last N"
    )
    p.add_argument(
        "--json", action="store_true", help="raw JSONL instead of trees"
    )
    p.set_defaults(fn=_cmd_slowlog)

    p = sub.add_parser(
        "check",
        help="repro-check: AST-based invariant linter (durable writes, "
        "crash transparency, lock discipline, struct formats, span "
        "discipline, metric-name registry, resource release, exception "
        "status, blocking under lock, cancellation coverage)",
    )
    # The linter owns its own grammar (shared with `python -m
    # repro.analysis`); forward everything after `check` verbatim.
    p.add_argument("check_args", nargs=argparse.REMAINDER)
    p.set_defaults(fn=_cmd_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # Arm the crash flight recorder: an unhandled exception (anything the
    # handler below does not catch) or a SIGTERM leaves a post-mortem
    # JSON dump behind.  Idempotent across repeated main() calls.
    from .obs.flight import get_flight_recorder

    recorder = get_flight_recorder()
    recorder.install()
    recorder.note("cli.start", argv=list(argv))
    if argv[:1] == ["check"]:
        # Dispatch before argparse: REMAINDER mis-parses a remainder that
        # starts with an option (`check --format json`, bpo-17050), so the
        # linter gets the raw argv tail and applies its own grammar.
        from .analysis.main import main as check_main

        return check_main(list(argv[1:]))
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, IOError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

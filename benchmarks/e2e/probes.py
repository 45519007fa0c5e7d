"""The ``--trace`` run: spans around every whole call, the same ops
replayed through the layer functions in the order the program calls
them, and the per-layer metrics of ``BENCHMARK.json``.

Layers are measured from outside: by timing their public functions and
reading the counters they return.  Only those functions are replayed;
what a whole call does around them stays its self time
(``Spans.self_times``).  A traced run of any workload reports every
per-layer metric; the workload's own layer is probed with ``PROBE_OPS``
ops, the others with ``FOREIGN_OPS`` so the run stays short.  Every
replay is compared with the whole call it re-enacts (same oids, same
bytes); a difference counts as a failed operation.  End-to-end metrics
never come from this run.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import ops as oplists
import workloads
from common import PROBE_OPS, RESULTS, TABLE, Spans, median, metric, now, percentile
from data import Dataset
from workloads import Failures, Outcome

#: Ops per probe group outside the traced workload's own layer.
FOREIGN_OPS = 6
#: Ops of the three-way access-path comparison (a packed select on
#: shuffled data takes half a second).
ACCESS_PATH_OPS = 6
#: Ops run once more with the program's own tracer on, and big ops run
#: at threads=2.
TRACER_OPS = 10
THREADS2_OPS = 4
#: Round trips of the two-client pass that gives ``serve.http_p99_ms``.
P99_REQUESTS = 300

Metrics = Dict[str, Dict[str, Any]]


def ms(seconds: Sequence[float]) -> Dict[str, Any]:
    return metric(median(seconds) * 1e3, "ms", len(seconds))


def overhead_pct(plain: Sequence[float], traced: Sequence[float]) -> float:
    """How much slower the traced calls ran than their untraced twins,
    in %: the median of the per-op ratios when the two lists pair up,
    else the ratio of the medians (robust to the odd op that reallocates)."""
    if not plain:
        return 0.0
    if len(plain) == len(traced):
        return (median([t / p for p, t in zip(plain, traced)]) - 1.0) * 100.0
    return (median(traced) / median(plain) - 1.0) * 100.0


def twin_first(index: int, home: bool) -> Optional[bool]:
    """Where the untraced twin of a traced call runs: before it (True),
    after it (False), or not at all outside the workload's own layer.
    Alternating keeps either pass from always finding the warmer caches."""
    return (index % 2 == 0) if home else None


# -- core + engine: the filter and refine steps ------------------------------------


def op_envelope(op: oplists.Op):
    from repro.gis.predicates import geometry_envelope

    env = geometry_envelope(op.geometry)
    return env.expand(op.distance) if op.predicate == "dwithin" else env


def axis_ranges(env) -> Dict[str, Tuple[float, float]]:
    return {"x": (env.xmin, env.xmax), "y": (env.ymin, env.ymax)}


def imprint_probe(db, table, env, whole) -> Tuple[np.ndarray, float, str]:
    """``ImprintsManager.range_select`` as the whole call made it:
    (candidates, seconds, axis probed).

    Which axis the filter probes is the program's choice, and it reports
    only the zone-map counts of that probe (``whole``, the call's
    ``QueryStats``): the axis whose probe repeats those counts is the
    one it took.  Where both do (shuffled rows) they cost the same.
    """
    from repro.core.query import QueryStats

    for axis, (lo, hi) in axis_ranges(env).items():
        stats = QueryStats()
        t0 = now()
        candidates = db.manager.range_select(table, axis, lo, hi, threads=1, stats=stats)
        seconds = now() - t0
        if (stats.n_segments_skipped, stats.n_segments_probed) == (
            whole.n_segments_skipped,
            whole.n_segments_probed,
        ):
            break
    return candidates, seconds, axis


def spatial_group(
    db,
    packed_db,
    ops: List[oplists.Op],
    home_count: int,
    spans: Spans,
    failures: Failures,
) -> Tuple[Metrics, Dict[str, float]]:
    """Whole ``SpatialSelect.query`` calls, then each replayed as
    envelope -> imprint probe -> candidate scan -> take -> refine ->
    mask_select.  The first ``home_count`` ops are the traced workload's
    own; trace overhead and replay coverage are taken over those."""
    from repro.core.refine import refine, refine_exhaustive
    from repro.engine.select import mask_select, range_select
    from repro.gis.envelope import Box
    from repro.obs.resources import ResourceTracker

    table = db.table(TABLE)
    select = db.select_for(TABLE)
    query = lambda op, **kw: select.query(  # noqa: E731
        op.geometry, op.predicate, op.distance, **kw
    )

    def plain_call(op: oplists.Op) -> float:
        t0 = now()
        query(op)
        return now() - t0

    plain: List[float] = []
    whole: List[float] = []
    stats = []
    first_range: List[Tuple[str, float, float]] = []  # axis probed, lo, hi
    probe_s: List[float] = []
    scan_s: List[float] = []
    take_s: List[float] = []
    refine_s: List[float] = []
    exhaustive_s: List[float] = []
    refine_stats = []
    for i, op in enumerate(ops):
        # One untimed call first, so whichever timed call comes first
        # does not carry the op's first touch of its column ranges.
        query(op)
        twin = twin_first(i, i < home_count)
        if twin is True:
            plain.append(plain_call(op))
        with spans.span("SpatialSelect.query", i) as w:
            result = query(op)
        whole.append(spans.duration(w))
        if twin is False:
            plain.append(plain_call(op))
        stats.append(result.stats)
        with spans.span("gis.envelope", i, parent=w):
            env = op_envelope(op)
        candidates, seconds, first = imprint_probe(db, table, env, result.stats)
        spans.add("core.imprints.range_select", i, seconds, parent=w)
        probe_s.append(seconds)
        ranges = axis_ranges(env)
        first_range.append((first, *ranges.pop(first)))
        ((second, (lo, hi)),) = ranges.items()
        with spans.span("engine.select.range_select", i, parent=w) as s:
            candidates = range_select(
                table.column(second), lo, hi, candidates=candidates, threads=1
            )
        scan_s.append(spans.duration(s))
        oids = candidates
        refined = result.stats.refine_seconds > 0.0
        if refined:
            with spans.span("engine.column.take", i, parent=w) as s:
                xs = table.column("x").take(candidates)
                ys = table.column("y").take(candidates)
            take_s.append(spans.duration(s))
            with spans.span("core.refine.refine", i, parent=w) as s:
                mask, rstats = refine(
                    xs, ys, op.geometry, op.predicate, op.distance,
                    target_cells=select.target_cells, threads=1,
                )  # fmt: skip
            refine_s.append(spans.duration(s))
            refine_stats.append(rstats)
            with spans.span("engine.select.mask_select", i, parent=w):
                oids = mask_select(mask, candidates)
            t0 = now()
            brute, _ = refine_exhaustive(
                xs, ys, op.geometry, op.predicate, op.distance, threads=1
            )
            exhaustive_s.append(now() - t0)
            if not np.array_equal(brute, mask):
                failures.add("replay mismatch", f"refine vs exhaustive, {op.kind}")
            del xs, ys, mask, brute
        if not np.array_equal(oids, result.oids):
            failures.add("replay mismatch", f"spatial replay of {op.kind}")
        # Nothing of this op may still hold memory when the next whole
        # call runs, or that call pays page faults the workload never does.
        del result, candidates, oids

    # Three access paths on the same first-axis range: imprints, the
    # plain full-column scan, the packed mirror.
    boxes = [i for i, op in enumerate(ops) if isinstance(op.geometry, Box)]
    boxes = boxes[:ACCESS_PATH_OPS]
    paths: Dict[str, Tuple[List[float], List[int]]] = {
        name: ([], []) for name in ("imprints", "plain", "packed")
    }
    for i in boxes:
        first, lo, hi = first_range[i]
        calls = {
            "imprints": lambda: db.manager.range_select(table, first, lo, hi, threads=1),
            "plain": lambda: range_select(table.column(first), lo, hi, threads=1),
            "packed": lambda: range_select(
                packed_db.table(TABLE).column(first), lo, hi, threads=1
            ),
        }
        answers = []
        for name, call in calls.items():
            tracker = ResourceTracker()
            t0 = now()
            with tracker:
                answers.append(call())
            paths[name][0].append(now() - t0)
            paths[name][1].append(tracker.usage.bytes_touched)
        # The packed store keeps its own row order: check it against a
        # numpy scan of its own values, the other two against each other.
        values = packed_db.table(TABLE).column(first).values
        if not (
            np.array_equal(answers[0], answers[1])
            and np.array_equal(answers[2], np.flatnonzero((values >= lo) & (values <= hi)))
        ):
            failures.add("replay mismatch", f"access paths disagree on {ops[i].kind}")

    # threads=2 against threads=1 on the ops big enough to fan out.
    big = [op for op in ops if op.kind in ("box_0.1", "irregular41")][:THREADS2_OPS]
    t1 = t2 = 0.0
    for op in big:
        t0 = now()
        serial = query(op, threads=1)
        t1 += now() - t0
        t0 = now()
        parallel = query(op, threads=2)
        t2 += now() - t0
        if not np.array_equal(serial.oids, parallel.oids):
            failures.add("replay mismatch", f"threads=2 differs on {op.kind}")

    # The program's span tracer on against off, same ops.
    subset = ops[:TRACER_OPS]
    tracer = db.obs.tracer
    off, on = [], []
    for sink, enabled in ((off, False), (on, True)):
        tracer.enable() if enabled else tracer.disable()
        for op in subset:
            t0 = now()
            query(op)
            sink.append(now() - t0)
    tracer.disable()

    skipped = sum(s.n_segments_skipped for s in stats)
    probed = sum(s.n_segments_probed for s in stats)
    n = len(ops)
    out: Metrics = {
        "core.imprints.probe_ms": ms(probe_s),
        "core.imprints.segments_skipped_share": metric(
            skipped / max(skipped + probed, 1), "ratio", n
        ),
        "engine.select.candidate_scan_ms": ms(scan_s),
        "engine.select.plain_ms": ms(paths["plain"][0]),
        "engine.compressed.packed_ms": ms(paths["packed"][0]),
        "core.imprints.bytes_touched_per_op": metric(
            float(np.mean(paths["imprints"][1])), "B", len(boxes)
        ),
        "engine.select.bytes_touched_per_op": metric(
            float(np.mean(paths["plain"][1])), "B", len(boxes)
        ),
        "engine.compressed.bytes_touched_per_op": metric(
            float(np.mean(paths["packed"][1])), "B", len(boxes)
        ),
        "engine.parallel.threads2_speedup": metric(t1 / t2, "ratio", len(big)),
        "engine.column.take_ms": ms(take_s),
        "core.refine.refine_ms": ms(refine_s),
        "core.refine.exhaustive_ms": ms(exhaustive_s),
        "core.refine.exact_tested_share": metric(
            sum(r.points_tested_exact for r in refine_stats)
            / max(sum(r.n_candidates for r in refine_stats), 1),
            "ratio",
            len(refine_stats),
        ),
        "core.refine.boundary_cells_share": metric(
            sum(r.boundary_cells for r in refine_stats)
            / max(sum(r.n_cells for r in refine_stats), 1),
            "ratio",
            len(refine_stats),
        ),
        "core.query.filter_share": metric(
            sum(s.filter_seconds for s in stats[:home_count]) / sum(whole[:home_count]),
            "ratio",
            home_count,
        ),
        "core.query.refine_share": metric(
            sum(s.refine_seconds for s in stats[:home_count]) / sum(whole[:home_count]),
            "ratio",
            home_count,
        ),
        "core.query.overhead_ms": ms(
            [
                max(t - s.filter_seconds - s.refine_seconds - s.imprint_build_seconds, 0.0)
                for t, s in zip(whole, stats)
            ]
        ),
        "obs.tracer_on_overhead_pct": metric(overhead_pct(off, on), "%", len(subset)),
    }
    return out, {
        "trace_overhead_pct": overhead_pct(plain, whole[:home_count]),
        "coverage": spans.coverage("SpatialSelect.query", home_count),
    }


# -- serve ---------------------------------------------------------------------------


def serve_group(
    db,
    daemon: workloads.Daemon,
    ops: List[oplists.Op],
    spans: Spans,
    failures: Failures,
    p99_ops: Optional[List[oplists.Op]],
) -> Tuple[Metrics, Dict[str, float]]:
    """Single-client round trips, then each replayed in process:
    ``QueryService.handle`` + ``encode`` and, below that,
    ``select.query`` and the encoder alone.  What the service does
    around them (quota, admission, pin, request context, materialise)
    is ``handle``'s self time.  ``p99_ops`` marks the workload's own
    run: untraced twins, and a two-client pass for the tail.

    The in-process service runs with the daemon's observability: the
    sampling profiler and the heat map on.
    """
    from repro.gis.envelope import Box
    from repro.obs.heat import disable_heat, enable_heat
    from repro.obs.profiler import get_profiler, reset_profiler
    from repro.serve import QueryService, SnapshotManager, wire

    snapshots = SnapshotManager(directory=None, threads=1, obs=db.obs)
    snapshots.publish_db(db)
    service = QueryService(snapshots, obs=db.obs)
    table = db.table(TABLE)
    select = db.select_for(TABLE)
    heat_journal = RESULTS / f"tmp-heat-{os.getpid()}.jsonl"
    get_profiler().start()
    enable_heat(journal=heat_journal)

    statuses: List[int] = []
    plain: List[float] = []
    round_trip: Dict[str, List[float]] = {"json": [], "columnar": []}
    handle: Dict[str, List[float]] = {"json": [], "columnar": []}
    encode: Dict[str, List[float]] = {"json": [], "columnar": []}
    sizes: Dict[str, List[int]] = {"json": [], "columnar": []}
    engine: List[float] = []

    def plain_call(op: oplists.Op) -> None:
        t0 = now()
        statuses.append(daemon.post(op.payload)[0])
        plain.append(now() - t0)

    try:
        for i, op in enumerate(ops):
            twin = twin_first(i, p99_ops is not None)
            if twin is True:
                plain_call(op)
            with spans.span("http.round_trip", i) as rt:
                status, body = daemon.post(op.payload)
            if twin is False:
                plain_call(op)
            statuses.append(status)
            round_trip[op.kind].append(spans.duration(rt))
            sizes[op.kind].append(len(body))
            with spans.span("QueryService.handle", i, parent=rt) as h:
                response = service.handle("query", op.payload)
                with spans.span("ServiceResponse.encode", i) as e:
                    data = response.encode()
            handle[op.kind].append(spans.duration(h))
            with spans.span("SpatialSelect.query", i, parent=h) as s:
                result = select.query(
                    Box(*op.payload["bbox"]), timeout_s=service.config.max_timeout_s
                )
            engine.append(spans.duration(s))
            oids = result.oids[: op.payload["limit"]]
            arrays = {name: table.column(name).values[oids] for name in ("x", "y", "z")}
            same = status == 200
            if op.kind == "columnar":
                # handle built the frame inside itself; here the encoder alone.
                with spans.span("wire.encode_columns", i, parent=h) as e:
                    frame = wire.encode_columns(arrays)
                same = same and frame == data == body
            encode[op.kind].append(spans.duration(e))
            same = same and all(
                np.array_equal(got, want)
                for reply in (data, body)
                for got, want in zip(workloads.decode_body(op, reply), arrays.values())
            )
            if not same:
                failures.add("replay mismatch", f"serve replay of {op.kind} ({status})")

        # Uncontended admission and pin, amortised over a loop.
        loops = 2000
        t0 = now()
        for _ in range(loops):
            with service.admission.admit():
                pass
        admission_s = (now() - t0) / loops
        t0 = now()
        for _ in range(loops):
            with snapshots.pin():
                pass
        pin_s = (now() - t0) / loops

        if p99_ops is not None:
            clients = min(2, os.cpu_count() or 1)
            tail, replies, _ = workloads.drive(daemon, p99_ops, clients, failures)
            statuses.extend(reply[0] for reply in replies if reply is not None)
        else:
            tail = round_trip["json"] + round_trip["columnar"]
    finally:
        get_profiler().stop()
        reset_profiler()
        disable_heat()
        heat_journal.unlink(missing_ok=True)

    handles = handle["json"] + handle["columnar"]
    trips = round_trip["json"] + round_trip["columnar"]
    out: Metrics = {
        "serve.engine_ms": ms(engine),
        "serve.handle_json_ms": ms(handle["json"]),
        "serve.handle_rsrv_ms": ms(handle["columnar"]),
        "serve.service_overhead_ms": metric(
            (median(handles) - median(engine)) * 1e3, "ms", len(handles)
        ),
        "serve.encode_json_ms": ms(encode["json"]),
        "serve.encode_rsrv_ms": ms(encode["columnar"]),
        "serve.response_bytes_json": metric(median(sizes["json"]), "B", len(sizes["json"])),
        "serve.response_bytes_rsrv": metric(
            median(sizes["columnar"]), "B", len(sizes["columnar"])
        ),
        "serve.admission_ms": metric(admission_s * 1e3, "ms", loops),
        "serve.snapshot_pin_ms": metric(pin_s * 1e3, "ms", loops),
        "serve.http_c1_json_p50_ms": ms(round_trip["json"]),
        "serve.http_c1_rsrv_p50_ms": ms(round_trip["columnar"]),
        "serve.http_p99_ms": metric(percentile(tail, 0.99) * 1e3, "ms", len(tail)),
        "serve.http_overhead_ms": metric(
            (median(trips) - median(handles)) * 1e3, "ms", len(trips)
        ),
        "serve.shed_share": metric(
            sum(s in (429, 503) for s in statuses) / len(statuses), "ratio", len(statuses)
        ),
    }
    return out, {
        "trace_overhead_pct": overhead_pct(plain, trips),
        "coverage": spans.coverage("QueryService.handle"),
    }


# -- sql -----------------------------------------------------------------------------


def sql_group(
    db, session, ops: List[oplists.Op], home: bool, spans: Spans, failures: Failures
) -> Tuple[Metrics, Dict[str, float]]:
    """Whole ``Session.execute`` calls; their phases come from the
    program's own ``Session.last_profile``, the parse is replayed."""
    from repro.sql.parser import parse

    def plain_call(op: oplists.Op):
        t0 = now()
        rows = workloads.execute(db, session, op.sql).rows
        plain.append(now() - t0)
        return rows

    plain: List[float] = []
    whole: List[float] = []
    phases: Dict[str, List[float]] = {"parse": [], "join_filter": [], "project": []}
    parse_s: List[float] = []
    for i, op in enumerate(ops):
        twin = twin_first(i, home)
        twin_rows = plain_call(op) if twin is True else None
        with spans.span("Session.execute", i) as w:
            result = workloads.execute(db, session, op.sql)
        whole.append(spans.duration(w))
        if twin is False:
            twin_rows = plain_call(op)
        profile = dict(session.last_profile)
        for phase, sink in phases.items():
            spans.add(f"sql.{phase}", i, profile[phase], parent=w)
            sink.append(profile[phase])
        t0 = now()
        parse(op.sql)
        parse_s.append(now() - t0)
        if twin_rows is not None and not workloads.rows_match(result.rows, twin_rows):
            failures.add("replay mismatch", f"sql rerun of {op.kind}")

    viewports = [op for op in ops if op.kind == "viewport_avg"][:10]
    via_db, via_session, via_spatial = [], [], []
    z = db.table(TABLE).column("z")
    for op in viewports:
        t0 = now()
        db.sql(op.sql)
        via_db.append(now() - t0)
        t0 = now()
        workloads.execute(db, session, op.sql)
        via_session.append(now() - t0)
        t0 = now()
        oids = db.spatial_select(TABLE, op.geometry).oids
        float(np.mean(z.take(oids))) if oids.size else None
        via_spatial.append(now() - t0)

    out: Metrics = {
        "sql.parse_ms": ms(parse_s),
        "sql.join_filter_ms": ms(phases["join_filter"]),
        "sql.project_ms": ms(phases["project"]),
        "sql.session_setup_ms": metric(
            (median(via_db) - median(via_session)) * 1e3, "ms", len(viewports)
        ),
        "sql.overhead_vs_spatial_ms": metric(
            (median(via_session) - median(via_spatial)) * 1e3, "ms", len(viewports)
        ),
    }
    for template, _count in oplists.SQL_BLOCK:
        out[f"sql.tpl.{template}_ms"] = ms(
            [t for t, op in zip(whole, ops) if op.kind == template]
        )
    return out, {
        "trace_overhead_pct": overhead_pct(plain, whole),
        "coverage": spans.coverage("Session.execute"),
    }


def foreign_sql_ops(seed: int) -> List[oplists.Op]:
    """A short list with every template, for runs whose workload is not SQL."""
    block = oplists.sql_ops(seed, oplists.SQL_BLOCK_SIZE)
    out: List[oplists.Op] = []
    for template, _count in oplists.SQL_BLOCK:
        same = [op for op in block if op.kind == template]
        out.extend(same[: 4 if template == "viewport_avg" else 1])
    return out


# -- las + engine.storage + imprint lifecycle ------------------------------------------


def traced_tile_loader(spans: Spans) -> Callable[[int, Path, Callable[[], Any]], Any]:
    """Wraps every second ``load_las``: the whole call as a span, its
    read and append phases from the ``LoadStats`` the call returns.
    The tiles in between are the untraced twins (a tile can be ingested
    only once)."""

    def on_tile(index: int, path: Path, do: Callable[[], Any]):
        if index % 2 == 0:
            return do()
        with spans.span("load_las", index) as w:
            stats = do()
        spans.add("las.read", index, stats.read_seconds, parent=w)
        spans.add("table.append", index, stats.append_seconds, parent=w)
        return stats

    return on_tile


def storage_group(
    dataset: Dataset,
    db,
    store: Path,
    side: Dict[str, Any],
    opened: Dict[str, float],
    verify_s: float,
    tiles: Sequence[Path],
    packed: Path,
) -> Metrics:
    from repro.core.imprints import ImprintsManager
    from repro.las.reader import read_las

    read_s: List[float] = []
    for path in tiles[:32]:
        t0 = now()
        read_las(path)
        read_s.append(now() - t0)
    t0 = now()
    loaded = ImprintsManager(threads=1).load({TABLE: db.table(TABLE)}, store / "_imprints")
    load_s = now() - t0
    report = db.storage_report()[TABLE]
    return {
        "las.read_tile_ms": ms(read_s),
        "las.load_tile_ms": ms(side["latencies"]),
        "engine.storage.save_s": metric(
            median(side["persist_samples"]), "s", len(side["persist_samples"])
        ),
        "engine.storage.bytes_written": metric(side["bytes_written"], "B"),
        "engine.storage.open_s": metric(opened["open_s"], "s"),
        "engine.storage.open_user_cpu_s": metric(opened["open_user_cpu_s"], "s"),
        "engine.storage.open_sys_cpu_s": metric(opened["open_sys_cpu_s"], "s"),
        "engine.storage.verify_s": metric(verify_s, "s"),
        "core.imprints.build_s": metric(
            median(side["build_samples"]), "s", len(side["build_samples"])
        ),
        "core.imprints.load_s": metric(load_s, "s", loaded),
        "core.imprints.index_overhead_pct": metric(
            100.0 * report["imprint_bytes"] / report["column_bytes"], "%"
        ),
        "engine.compression.ratio": metric(
            dataset.manifest["compression"][packed.name]["ratio"], "ratio"
        ),
    }


# -- one traced run ---------------------------------------------------------------------


def run(workload: str, dataset: Dataset, seed: int, import_s: float) -> Outcome:
    from repro import PointCloudDB

    spans = Spans()
    failures = Failures()
    home: Dict[str, float]
    workdir: Optional[Path] = None
    try:
        if workload == "ingest_reopen":
            ingest = workloads.run_ingest(
                dataset, seed, import_s, on_tile=traced_tile_loader(spans), keep=True
            )
            failures.count += ingest.failed
            db, workdir = ingest.handoff["db"], ingest.handoff["workdir"]
            side, reopened = ingest.handoff["side"], ingest.notes["reopened"]
            store, opened, verify_s = side["store"], reopened, reopened["verify_s"]
            tiles = dataset.tiles
            home = {
                "trace_overhead_pct": overhead_pct(
                    side["latencies"][0::2], side["latencies"][1::2]
                ),
                "coverage": spans.coverage("load_las"),
            }
            attempted = len(tiles)
        else:
            side, _ = workloads.write_probe(dataset, seed, failures)
            store = dataset.store(shuffled=workload == "rect_shuffled")
            db, opened = workloads.timed_open(store)
            verify_s = workloads.timed_verify(db, failures)
            tiles = dataset.tiles[: workloads.WRITE_PROBE_TILES]
            attempted = 0
        session = workloads.attach_sql(db)
        packed = dataset.packed(shuffled=workload == "rect_shuffled")
        packed_db = PointCloudDB.load(packed, threads=1)

        def size(*homes: str) -> int:
            return PROBE_OPS if workload in homes else FOREIGN_OPS

        rects = oplists.rect_ops(seed, size("rect_clustered", "rect_shuffled"))
        polys = oplists.poly_ops(seed, size("poly_clustered"))
        spatial_ops = polys + rects if workload == "poly_clustered" else rects + polys
        home_count = len(polys) if workload == "poly_clustered" else len(rects)
        metrics, spatial_home = spatial_group(
            db, packed_db, spatial_ops, home_count, spans, failures
        )
        del packed_db

        daemon = workloads.Daemon(store)
        try:
            http_home = workload == "http_viewport"
            serve_metrics, serve_home = serve_group(
                db,
                daemon,
                oplists.viewport_ops(seed, size("http_viewport")),
                spans,
                failures,
                oplists.viewport_ops(seed + 1, P99_REQUESTS) if http_home else None,
            )
        finally:
            daemon.close()
        metrics.update(serve_metrics)

        sql_home_run = workload == "sql_thematic"
        sql_ops = (
            oplists.sql_ops(seed, oplists.SQL_BLOCK_SIZE)
            if sql_home_run
            else foreign_sql_ops(seed)
        )
        sql_metrics, sql_home = sql_group(
            db, session, sql_ops, sql_home_run, spans, failures
        )
        metrics.update(sql_metrics)
        metrics.update(
            storage_group(dataset, db, store, side, opened, verify_s, tiles, packed)
        )

        if workload in ("rect_clustered", "rect_shuffled", "poly_clustered"):
            home, attempted = spatial_home, home_count
        elif workload == "http_viewport":
            home, attempted = serve_home, PROBE_OPS
        elif workload == "sql_thematic":
            home, attempted = sql_home, len(sql_ops)
        metrics["bench.trace_overhead_pct"] = metric(home["trace_overhead_pct"], "%", attempted)
        metrics["bench.replay_cover_ratio"] = metric(home["coverage"], "ratio", attempted)
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    spans.dump(RESULTS / f"trace-{workload}.json")
    outcome = Outcome(metrics=metrics, attempted=attempted, failed=failures.count)
    outcome.notes["self_seconds"] = spans.self_times()
    return outcome

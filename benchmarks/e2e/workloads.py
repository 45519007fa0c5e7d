"""The six workloads: set-up, warm-up, the timed closed loop, counters
and the answer checks (which run after the timed window).

Every workload runs in its own fresh process, single closed-loop client
(two for ``http_viewport``), engine ``threads=1``.  ``run(...)`` returns
the end-to-end metrics; the per-layer numbers of a ``--trace`` run come
from probes.py.
"""

from __future__ import annotations

import http.client
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import ops as oplists
from common import (
    HERE,
    RESULTS,
    SETUP_REPEATS,
    TABLE,
    WARMUP_OPS,
    child_env,
    dir_bytes,
    latency_metrics,
    median,
    metric,
    now,
    peak_rss_mb,
)
from data import Dataset, extent, vector_relations
from oracle import Oracle

WORKLOADS = (
    "rect_clustered",
    "rect_shuffled",
    "poly_clustered",
    "http_viewport",
    "sql_thematic",
    "ingest_reopen",
)

#: Tiles of the write-side probe that gives the read workloads their
#: ``first_query_s`` / ``persist_s`` / ``bytes_per_point``.
WRITE_PROBE_TILES = 16
#: Whole ingests timed by ``ingest_reopen`` (the last one is kept).
INGEST_PASSES = 3
#: Timed first queries and saves after the full ingest, and in each of
#: the write-side probe's two windows.
WRITE_SAMPLES = 3
#: Share of spatial ops compared oid-for-oid with the oracle (>= 20 ops).
ORACLE_SHARE = 0.05
ORACLE_MIN = 20


@dataclass
class Outcome:
    """What one run measured."""

    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: JSON-safe extras saved beside the metrics.
    notes: Dict[str, Any] = field(default_factory=dict)
    #: Live objects a traced run takes over (database, directories).
    handoff: Dict[str, Any] = field(default_factory=dict)


class Failures:
    """Counts failed ops; prints the first traceback of each kind once."""

    def __init__(self) -> None:
        self.count = 0
        self._seen: set = set()

    def add(self, what: str, detail: str = "") -> None:
        self.count += 1
        if what not in self._seen:
            self._seen.add(what)
            print(f"FAILED {what}: {detail}", file=sys.stderr)

    def exception(self, what: str) -> None:
        self.add(what, traceback.format_exc())


# -- set-up --------------------------------------------------------------------


def timed_open(store: Path):
    """``PointCloudDB.load`` with wall, user and system CPU seconds."""
    from repro import PointCloudDB

    t0, c0 = now(), resource.getrusage(resource.RUSAGE_SELF)
    db = PointCloudDB.load(store, threads=1)
    c1 = resource.getrusage(resource.RUSAGE_SELF)
    return db, {
        "open_s": now() - t0,
        "open_user_cpu_s": c1.ru_utime - c0.ru_utime,
        "open_sys_cpu_s": c1.ru_stime - c0.ru_stime,
    }


def repeat_setup(setup: Callable[[], Any], repeats: int) -> Tuple[Any, List[float]]:
    """Run ``setup`` ``repeats`` times, keeping only the last state.

    Each earlier state is closed and dropped before the next set-up
    starts, so every sample pays for its own memory like a first one.
    """
    samples: List[float] = []
    state = None
    for _ in range(repeats):
        if state is not None:
            close = getattr(state, "close", None)
            if close is not None:
                close()
            state = None
        t0 = now()
        state = setup()
        samples.append(now() - t0)
    return state, samples


def timed_outcome(
    latencies: Sequence[float],
    wall: float,
    rows: int,
    import_s: float,
    setup_samples: List[float],
    rss_mb: float,
    failures: Failures,
) -> Outcome:
    """The metrics every timed loop yields.  ``setup_s`` is the imports
    (paid once per process) + the median set-up."""
    outcome = Outcome(attempted=len(latencies), failed=failures.count)
    outcome.metrics = latency_metrics(latencies, wall, rows)
    outcome.metrics["setup_s"] = metric(
        import_s + median(setup_samples), "s", len(setup_samples)
    )
    outcome.metrics["peak_rss_mb"] = metric(rss_mb, "MiB")
    outcome.notes["setup_samples_s"] = setup_samples
    return outcome


def closed_loop(
    items: Sequence[Any], call: Callable[[int, Any], Any], failures: Failures
) -> Tuple[List[float], List[Any], float]:
    """Run ``call(index, item)`` over ``items`` one after another.

    Returns per-op latencies, the calls' return values (``None`` for an
    op that raised) and the wall time of the whole loop.
    """
    latencies: List[float] = []
    results: List[Any] = []
    t_start = now()
    for index, item in enumerate(items):
        t0 = now()
        try:
            result = call(index, item)
        except Exception:
            result = None
            failures.exception(f"op {getattr(item, 'kind', item)}")
        latencies.append(now() - t0)
        results.append(result)
    return latencies, results, now() - t_start


def oracle_sample(n_ops: int, seed: int) -> np.ndarray:
    """Indices of the ops whose answers are checked against the oracle."""
    size = min(n_ops, max(ORACLE_MIN, int(round(ORACLE_SHARE * n_ops))))
    rng = np.random.default_rng([seed, 7])
    return np.sort(rng.choice(n_ops, size=size, replace=False))


# -- rect_clustered, rect_shuffled, poly_clustered ------------------------------


def spatial_ops(workload: str, seed: int, scale: float) -> List[oplists.Op]:
    make = oplists.poly_ops if workload == "poly_clustered" else oplists.rect_ops
    return make(seed, oplists.op_count(workload, scale))


def warmup_ops(workload: str, seed: int) -> List[oplists.Op]:
    make = oplists.poly_ops if workload == "poly_clustered" else oplists.rect_ops
    return make(seed + 1_000_003, WARMUP_OPS)


def run_spatial(
    workload: str, dataset: Dataset, seed: int, scale: float, import_s: float
) -> Outcome:
    shuffled = workload == "rect_shuffled"
    store = dataset.store(shuffled=shuffled)
    ops = spatial_ops(workload, seed, scale)
    warm = warmup_ops(workload, seed)

    def setup():
        db, _ = timed_open(store)
        for op in warm:
            db.spatial_select(TABLE, op.geometry, op.predicate, op.distance)
        return db

    db, setup_samples = repeat_setup(setup, SETUP_REPEATS)
    keep = set(oracle_sample(len(ops), seed).tolist())
    failures = Failures()

    def call(index: int, op: oplists.Op):
        result = db.spatial_select(TABLE, op.geometry, op.predicate, op.distance)
        return (len(result), result.stats, result.oids if index in keep else None)

    latencies, results, wall = closed_loop(ops, call, failures)
    rss = peak_rss_mb()

    oracle = Oracle(dataset.oracle)
    for index in sorted(keep):
        if results[index] is None:
            continue
        op = ops[index]
        want = oracle.rows(op.geometry, op.predicate, op.distance, shuffled=shuffled)
        if not np.array_equal(results[index][2], want):
            failures.add(
                "oracle mismatch",
                f"{workload} op {index} ({op.kind}): got "
                f"{results[index][2].shape[0]} rows, want {want.shape[0]}",
            )

    done = [r for r in results if r is not None]
    rows = sum(r[0] for r in done)
    outcome = timed_outcome(latencies, wall, rows, import_s, setup_samples, rss, failures)
    outcome.counters = spatial_counters([r[1] for r in done])
    outcome.counters["rows_returned"] = rows
    outcome.counters["oracle_checked"] = len(keep)
    outcome.notes["filter_share"] = sum(r[1].filter_seconds for r in done) / wall
    outcome.notes["refine_share"] = sum(r[1].refine_seconds for r in done) / wall
    return outcome


def spatial_counters(stats: Sequence[Any]) -> Dict[str, int]:
    """Deterministic work counters summed over ``QueryStats`` records."""
    return {
        "filter_candidates": sum(s.n_filter_candidates for s in stats),
        "segments_skipped": sum(s.n_segments_skipped for s in stats),
        "segments_probed": sum(s.n_segments_probed for s in stats),
        "points_tested_exact": sum(s.refine_stats.points_tested_exact for s in stats),
        "boundary_cells": sum(s.refine_stats.boundary_cells for s in stats),
        "bytes_touched": sum(s.resources.bytes_touched for s in stats),
    }


# -- sql_thematic ----------------------------------------------------------------


def attach_sql(db):
    """Register the vector relations; returns one reusable session."""
    from repro.sql.executor import Session

    for name, columns in vector_relations().items():
        db.register_vector(name, columns)
    session = Session(manager=db.manager, obs=db.obs)
    session.register_table(db.table(TABLE))
    for name, columns in db.vector_relations.items():
        session.register_columns(name, columns)
    return session


def execute(db, session, sql: str):
    """``Session.execute`` under the database's observability scope,
    exactly as ``PointCloudDB.sql`` runs it."""
    with db.obs.activate():
        return session.execute(sql)


def sql_expected(op: oplists.Op, oracle: Oracle, cloud: Dict[str, np.ndarray], roads):
    """The statement's answer by plain numpy (and ``points_satisfy``)."""
    if op.kind == "viewport_avg":
        rows = oracle.rows(op.geometry)
        return [(float(np.mean(cloud["z"][rows])),)] if rows.size else [(None,)]
    if op.kind == "zslab":
        z = cloud["z"]
        mask = (z >= op.params["lo"]) & (z <= op.params["hi"])
        return [(int(mask.sum()), float(np.mean(z[mask])))]
    if op.kind == "intensity_hist":
        mask = cloud["intensity"] > op.params["c"]
        classes = cloud["classification"][mask]
        intensity = cloud["intensity"][mask].astype(np.float64)
        return [
            (int(code), int((classes == code).sum()), float(intensity[classes == code].mean()))
            for code in np.unique(classes)
        ]
    hit = np.zeros(0, dtype=np.int64)
    for geom in roads:
        hit = np.union1d(hit, oracle.rows(geom, "dwithin", op.params["distance"]))
    return [(float(cloud["z"][hit].max()),)]


def rows_match(got: Sequence[Sequence[Any]], want: Sequence[Sequence[Any]]) -> bool:
    """Row sets equal; floats compared to 1e-9 relative (summation order)."""
    if len(got) != len(want):
        return False
    for g_row, w_row in zip(sorted(got), sorted(want)):
        if len(g_row) != len(w_row):
            return False
        for g, w in zip(g_row, w_row):
            if g is None or w is None:
                if g is not w:
                    return False
            elif not np.isclose(float(g), float(w), rtol=1e-9, atol=1e-9):
                return False
    return True


def sql_warmup_ops(seed: int) -> List[oplists.Op]:
    """20 statements holding the scan-bound templates once each: the
    first ``intensity > c`` lazily builds the intensity imprint (0.5 s),
    which must not land in whichever run's timed window meets it first.
    The one-second motorway join builds nothing and is left out."""
    block = oplists.sql_ops(seed + 1_000_003, oplists.SQL_BLOCK_SIZE)
    first = {op.kind: op for op in reversed(block)}
    cheap = [op for op in block if op.kind == "viewport_avg"]
    return [first["zslab"], first["intensity_hist"]] + cheap[: WARMUP_OPS - 2]


def run_sql(dataset: Dataset, seed: int, scale: float, import_s: float) -> Outcome:
    ops = oplists.sql_ops(seed, oplists.op_count("sql_thematic", scale))
    warm = sql_warmup_ops(seed)

    def setup():
        db, _ = timed_open(dataset.store())
        session = attach_sql(db)
        for op in warm:
            execute(db, session, op.sql)
        return db, session

    (db, session), setup_samples = repeat_setup(setup, SETUP_REPEATS)
    failures = Failures()

    def call(index: int, op: oplists.Op):
        return execute(db, session, op.sql).rows, session.last_resources

    latencies, results, wall = closed_loop(ops, call, failures)
    rss = peak_rss_mb()

    # One statement of every template plus a seeded 5 % are recomputed.
    oracle = Oracle(dataset.oracle)
    table = db.table(TABLE)
    cloud = {
        name: np.asarray(table.column(name).values)
        for name in ("z", "intensity", "classification")
    }
    roads = [
        geom
        for geom, code in zip(
            db.vector_relations["roads"]["geom"], db.vector_relations["roads"]["class"]
        )
        if code == 1
    ]
    check = set(oracle_sample(len(ops), seed).tolist())
    for template, _count in oplists.SQL_BLOCK:
        check.add(next(i for i, op in enumerate(ops) if op.kind == template))
    expected: Dict[str, Any] = {}  # identical statements are evaluated once
    for index in sorted(check):
        op = ops[index]
        if results[index] is None:
            continue
        if op.sql not in expected:
            expected[op.sql] = sql_expected(op, oracle, cloud, roads)
        if not rows_match(results[index][0], expected[op.sql]):
            failures.add("sql mismatch", f"{op.kind}: {op.sql}")

    done = [r for r in results if r is not None]
    rows = sum(len(r[0]) for r in done)
    outcome = timed_outcome(latencies, wall, rows, import_s, setup_samples, rss, failures)
    outcome.counters = {
        "rows_returned": rows,
        "bytes_touched": sum(r[1].bytes_touched for r in done if r[1] is not None),
        "rows_touched": sum(r[1].rows_touched for r in done if r[1] is not None),
        "oracle_checked": len(check),
    }
    for template, _count in oplists.SQL_BLOCK:
        samples = [lat for lat, op in zip(latencies, ops) if op.kind == template]
        outcome.notes[f"tpl.{template}_ms"] = median(samples) * 1e3
    return outcome


# -- http_viewport ---------------------------------------------------------------


class Daemon:
    """``python -m repro.cli serve <store> --port 0`` as a subprocess."""

    def __init__(self, store: Path) -> None:
        (store / "heat.jsonl").unlink(missing_ok=True)
        (RESULTS / "flight").mkdir(parents=True, exist_ok=True)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(store), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=child_env(),
            cwd=str(RESULTS),
            text=True,
        )
        try:
            line = self.process.stdout.readline()
            if "serving queries on " not in line:
                raise RuntimeError(f"daemon did not start: {line!r}")
            self.url = line.split("serving queries on ", 1)[1].split()[0]
            self.host, port = self.url.split("//", 1)[1].rsplit(":", 1)
            self.port = int(port)
            self.wait_healthy()
        except BaseException:
            self.close()
            raise

    def wait_healthy(self, timeout_s: float = 120.0) -> None:
        deadline = now() + timeout_s
        while now() < deadline:
            try:
                with urllib.request.urlopen(self.url + "/healthz", timeout=5) as reply:
                    if reply.status == 200:
                        return
            except (urllib.error.URLError, OSError):
                time.sleep(0.01)
        raise RuntimeError("daemon never answered /healthz")

    def post(self, payload: Dict[str, Any]) -> Tuple[int, bytes]:
        """One request on its own TCP connection; (status, body)."""
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            connection.request(
                "POST",
                "/v1/query",
                body=json.dumps(payload),
                headers={"Content-Type": "application/json"},
            )
            reply = connection.getresponse()
            return reply.status, reply.read()
        finally:
            connection.close()

    def close(self) -> None:
        """SIGTERM (graceful drain), wait, and make sure it is gone."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def decode_body(op: oplists.Op, body: bytes) -> Tuple[np.ndarray, ...]:
    """x, y, z arrays of a response in either format."""
    from repro.serve import wire

    if op.kind == "columnar":
        columns = wire.decode_columns(body)
        return columns["x"], columns["y"], columns["z"]
    reply = json.loads(body)
    rows = np.asarray(reply["rows"], dtype=np.float64).reshape(-1, len(reply["columns"]))
    order = [reply["columns"].index(name) for name in ("x", "y", "z")]
    return tuple(rows[:, i] for i in order)


def drive(
    daemon: Daemon, ops: Sequence[oplists.Op], clients: int, failures: Failures
) -> Tuple[List[float], List[Optional[Tuple[int, bytes]]], float]:
    """``clients`` closed-loop threads share ``ops`` round-robin."""
    latencies: List[float] = [0.0] * len(ops)
    replies: List[Optional[Tuple[int, bytes]]] = [None] * len(ops)
    barrier = threading.Barrier(clients + 1)
    lock = threading.Lock()

    def client(first: int) -> None:
        barrier.wait()
        for index in range(first, len(ops), clients):
            t0 = now()
            try:
                replies[index] = daemon.post(ops[index].payload)
            except Exception as exc:
                # Also http.client.HTTPException, when the daemon dies
                # mid-response: every reply left None is a counted failure.
                with lock:
                    failures.add("request error", repr(exc))
            latencies[index] = now() - t0

    threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    t_start = now()
    for thread in threads:
        thread.join()
    return latencies, replies, now() - t_start


def run_http(dataset: Dataset, seed: int, scale: float, import_s: float) -> Outcome:
    store = dataset.store()
    ops = oplists.viewport_ops(seed, oplists.op_count("http_viewport", scale))
    warm = oplists.viewport_ops(seed + 1_000_003, WARMUP_OPS)
    clients = min(2, os.cpu_count() or 1)

    def setup() -> Daemon:
        daemon = Daemon(store)
        try:
            for op in warm:
                daemon.post(op.payload)
        except BaseException:
            daemon.close()
            raise
        return daemon

    daemon, setup_samples = repeat_setup(setup, SETUP_REPEATS)
    failures = Failures()
    try:
        latencies, replies, wall = drive(daemon, ops, clients, failures)
        rss = peak_rss_mb(daemon.process.pid)
    finally:
        daemon.close()

    oracle = Oracle(dataset.oracle)
    rows = shed = response_bytes = 0
    for op, reply in zip(ops, replies):
        if reply is None:
            continue  # the request raised; drive() counted it as failed
        status, body = reply
        if op.kind == "columnar":  # JSON bodies carry a query id of varying width
            response_bytes += len(body)
        if status != 200:
            shed += status in (429, 503)
            failures.add(f"http {status}", body[:200].decode("utf-8", "replace"))
            continue
        got = decode_body(op, body)
        want = oracle.xyz(oracle.rows(op.geometry)[: op.payload["limit"]])
        if all(np.array_equal(g, w) for g, w in zip(got, want)):
            rows += got[0].shape[0]
        else:
            failures.add("body mismatch", f"{op.kind} {op.payload['bbox']}")

    outcome = timed_outcome(latencies, wall, rows, import_s, setup_samples, rss, failures)
    outcome.counters = {
        "rows_returned": rows,
        "response_bytes_rsrv": response_bytes,
        "shed": shed,
        "oracle_checked": sum(reply is not None for reply in replies),
    }
    outcome.notes["clients"] = clients
    return outcome


# -- the write side: ingest_reopen and the read workloads' probe -----------------


def first_query_box(seed: int):
    """A 10^-3-area box at a seeded position, twice as tall as wide so
    the filter always probes (and lazily builds) the x imprint."""
    from repro.gis.envelope import Box

    square = oplists.rect_ops(seed + 2_000_003, 1)[0].geometry
    side = (1e-3 / 2) ** 0.5 * extent().width
    x, y = min(square.xmin, extent().xmax - side), min(square.ymin, extent().ymax - 2 * side)
    return Box(x, y, x + side, y + 2 * side)


def column_crcs(db) -> Dict[str, int]:
    from repro.engine.storage import column_payload_crc

    table = db.table(TABLE)
    return {
        name: column_payload_crc(np.asarray(table.column(name).values))
        for name in table.column_names
    }


def tile_point_counts(tiles: Sequence[Path]) -> int:
    from repro.las.reader import read_header

    return sum(read_header(path).n_points for path in tiles)


def ingest_tiles(
    tiles: Sequence[Path],
    workdir: Path,
    failures: Failures,
    passes: int = 1,
    on_tile: Optional[Callable[[int, Path, Callable[[], Any]], Any]] = None,
) -> Dict[str, Any]:
    """``load_las`` of ``tiles`` one by one into an empty on-disk
    database (op = one tile).

    The ingest runs ``passes`` times, each into a fresh empty database
    (the last one is kept): one pass of 128 tiles is timed in under a
    second, and a 100 ms stall of the host then moves its p90.
    ``on_tile`` lets a traced run wrap each tile load.
    """
    from repro import PointCloudDB

    if workdir.exists():
        shutil.rmtree(workdir)
    store = workdir / "store"
    latencies: List[float] = []
    wall = 0.0
    db = None
    for _ in range(passes):
        del db  # the previous pass's 10^7 rows go before the next begins
        db = PointCloudDB(directory=store, threads=1)
        db.create_pointcloud(TABLE)

        def load(index: int, path: Path):
            do = lambda: db.load_las(TABLE, [path])  # noqa: E731
            stats = on_tile(index, path, do) if on_tile is not None else do()
            return stats.n_points

        pass_latencies, loaded, pass_wall = closed_loop(tiles, load, failures)
        latencies += pass_latencies
        wall += pass_wall
    return {
        "db": db,
        "store": store,
        "latencies": latencies,
        "wall": wall,
        "rows": sum(n for n in loaded if n is not None),
    }


def timed_writes(
    db, store: Path, seed: int, untimed: int, failures: Failures
) -> Dict[str, Any]:
    """First spatial queries (lazy imprint build) and ``save()`` calls
    on a freshly ingested database.

    ``first_query_s`` is the median of ``WRITE_SAMPLES`` cold queries
    (imprints invalidated before each), ``persist_s`` of as many saves,
    taken in turn so that both medians span the whole window (a stall
    of the host has to last half of it to move either).  ``untimed``
    queries and saves go first: the very first of each also pays the
    process's first touch of that much memory (5 s against 2.5 s for
    the 10^7-row save) and the second is still 15 % dearer than the
    ones after it, at prices that swing with the host.
    Every save goes to the store directory itself and writes
    every column again (each byte count must equal the first): saves
    into fresh directories that are deleted in between took 2.3-3.8 s
    where these take 2.4-2.5 s, because memory the guest frees goes back
    to the host and is paged in again at the next save.
    """
    table = db.table(TABLE)
    box = first_query_box(seed)
    first_query: List[float] = []
    build: List[float] = []
    persist: List[float] = []
    written: List[int] = []
    for _ in range(untimed + WRITE_SAMPLES):
        db.manager.invalidate(table)
        t0 = now()
        result = db.spatial_select(TABLE, box)
        first_query.append(now() - t0)
        build.append(result.stats.imprint_build_seconds)
        t0 = now()
        written.append(db.save(store))
        persist.append(now() - t0)
    if len(set(written)) != 1:
        failures.add("save", f"saves of one database wrote {sorted(set(written))} bytes")
    return {
        "first_query_samples": first_query[untimed:],
        "build_samples": build[untimed:],
        "persist_samples": persist[untimed:],
        "first_query_rows": len(result),
        "bytes_written": written[-1],
        "store_bytes": dir_bytes(store),
    }


def write_side_metrics(side: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {
        "first_query_s": metric(
            median(side["first_query_samples"]), "s", len(side["first_query_samples"])
        ),
        "persist_s": metric(
            median(side["persist_samples"]), "s", len(side["persist_samples"])
        ),
        "bytes_per_point": metric(side["store_bytes"] / side["rows"], "B"),
    }


def write_probe(
    dataset: Dataset,
    seed: int,
    failures: Failures,
    between: Callable[[], Any] = lambda: None,
) -> Tuple[Dict[str, Any], Any]:
    """The write side at reduced scale, for the workloads that only
    read: same definition, first tiles only, in a fresh process of its
    own (after a workload, what the process has freed decides what a
    page fault costs, and these are short ops).

    The child takes half of its samples before ``between()`` (the
    workload) runs and half after it, and sleeps on its stdin meanwhile:
    the host's speed drifts over seconds, and the two seconds of one
    window sat inside one such phase often enough for the ten-run
    spread of ``first_query_s`` to reach 23 %.  Returns the merged
    samples and what ``between`` returned.
    """
    command = [sys.executable, str(HERE / "run.py"), "--write-probe"]
    command += [str(dataset.points), str(seed)]
    with subprocess.Popen(
        command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env()
    ) as child:

        def window() -> Dict[str, Any]:
            child.stdin.write("\n")
            child.stdin.flush()
            line = child.stdout.readline()
            if not line:
                raise RuntimeError("the write probe ended early")
            return json.loads(line)

        try:
            side = window()
            result = between()
            again = window()
        finally:
            child.stdin.close()  # the child reads end-of-file and cleans up
            try:
                child.wait(timeout=60)
            except subprocess.TimeoutExpired:
                child.kill()
    # Everything else is taken from the first window (the catalog's
    # generation number grows by a digit, and the store by two bytes).
    for name in ("first_query_samples", "build_samples", "persist_samples"):
        side[name] += again[name]
    if side["rows"] != tile_point_counts(dataset.tiles[:WRITE_PROBE_TILES]):
        failures.add("write probe", "row count differs from tile headers")
    failures.count += again["failed"]
    return side, result


def write_probe_main(points: str, seed: str) -> None:
    """Body of ``run.py --write-probe`` (the child of :func:`write_probe`):
    one line of samples for every line read from stdin."""
    import data

    tiles = data.ensure(int(points)).tiles[:WRITE_PROBE_TILES]
    workdir = RESULTS / f"tmp-write-{os.getpid()}"
    failures = Failures()
    try:
        side = ingest_tiles(tiles, workdir, failures)
        db, store = side.pop("db"), side.pop("store")
        while sys.stdin.readline():
            side.update(timed_writes(db, store, int(seed), untimed=1, failures=failures))
            side["failed"] = failures.count
            print(json.dumps(side), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_verify(db, failures: Failures) -> float:
    t0 = now()
    if not db.verify()["ok"]:
        failures.add("verify", "verify() reported a damaged store")
    return now() - t0


def child_json(*args: str) -> Dict[str, Any]:
    """Run ``run.py <args>`` in a fresh process; its last stdout line."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"run.py {args[0]} failed: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def reopen_report(store: Path) -> Dict[str, Any]:
    """``PointCloudDB.load`` + ``verify()`` in a fresh process."""
    return child_json("--reopen", str(store))


def reopen_main(store: str) -> None:
    """Body of ``run.py --reopen`` (the child of :func:`reopen_report`)."""
    db, opened = timed_open(Path(store))
    failures = Failures()
    verify_s = timed_verify(db, failures)
    print(
        json.dumps(
            {
                **opened,
                "verify_s": verify_s,
                "ok": failures.count == 0,
                "rows": len(db.table(TABLE)),
                "crcs": column_crcs(db),
                "peak_rss_mb": peak_rss_mb(),
            }
        )
    )


def run_ingest(
    dataset: Dataset,
    seed: int,
    import_s: float,
    on_tile: Optional[Callable[[int, Path, Callable[[], Any]], Any]] = None,
    keep: bool = False,
) -> Outcome:
    from repro import PointCloudDB

    tiles = dataset.tiles

    def setup() -> None:
        # The warm-up is one whole untimed ingest into a scratch database:
        # a process that has never held 10^7 rows pays first-touch page
        # faults on every append, at a price that swings with the host.
        scratch = PointCloudDB(threads=1)
        scratch.create_pointcloud(TABLE)
        for path in tiles:
            scratch.load_las(TABLE, [path])

    _, setup_samples = repeat_setup(setup, SETUP_REPEATS if on_tile is None else 1)
    failures = Failures()
    workdir = RESULTS / f"tmp-ingest-{os.getpid()}"
    try:
        side = ingest_tiles(
            tiles,
            workdir,
            failures,
            passes=INGEST_PASSES if on_tile is None else 1,
            on_tile=on_tile,
        )
        db = side.pop("db")
        side.update(timed_writes(db, side["store"], seed, untimed=2, failures=failures))
        rss = peak_rss_mb()
        before = column_crcs(db)
        reopened = reopen_report(side["store"])
        expected_rows = tile_point_counts(tiles)
        if side["rows"] != expected_rows or reopened["rows"] != expected_rows:
            failures.add("row count", f"{side['rows']}/{reopened['rows']} != {expected_rows}")
        if not reopened["ok"]:
            failures.add("verify", "verify() reported a damaged store")
        if reopened["crcs"] != before:
            failures.add("column crc", "columns differ after save + reopen")
        box = first_query_box(seed)
        want = db.select_for(TABLE).query_scan(box)
        if not np.array_equal(db.spatial_select(TABLE, box).oids, want):
            failures.add("oracle mismatch", "first query differs from query_scan")
        outcome = timed_outcome(
            side["latencies"],
            side["wall"],
            side["rows"] * len(side["latencies"]) // len(tiles),
            import_s,
            setup_samples,
            rss,
            failures,
        )
        outcome.metrics.update(write_side_metrics(side))
        outcome.counters = {
            "rows_ingested": side["rows"],
            "bytes_on_disk": side["store_bytes"],
            "bytes_written": side["bytes_written"],
            "first_query_rows": side["first_query_rows"],
        }
        outcome.notes["reopened"] = reopened
        outcome.notes["persist_samples_s"] = side["persist_samples"]
        outcome.notes["first_query_samples_s"] = side["first_query_samples"]
        if keep:
            outcome.handoff = {"db": db, "workdir": workdir, "side": side}
        return outcome
    finally:
        if not keep:
            shutil.rmtree(workdir, ignore_errors=True)


# -- dispatch ----------------------------------------------------------------------


def run(
    workload: str, dataset: Dataset, seed: int, scale: float, import_s: float
) -> Outcome:
    """One untraced run: every end-to-end metric of ``workload``."""
    if workload == "ingest_reopen":
        return run_ingest(dataset, seed, import_s)
    failures = Failures()

    def read_side() -> Outcome:
        if workload == "http_viewport":
            return run_http(dataset, seed, scale, import_s)
        if workload == "sql_thematic":
            return run_sql(dataset, seed, scale, import_s)
        return run_spatial(workload, dataset, seed, scale, import_s)

    side, outcome = write_probe(dataset, seed, failures, between=read_side)
    outcome.metrics.update(write_side_metrics(side))
    outcome.notes["persist_samples_s"] = side["persist_samples"]
    outcome.notes["first_query_samples_s"] = side["first_query_samples"]
    outcome.failed += failures.count
    return outcome

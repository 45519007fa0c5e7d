"""The paper's binary bulk loader (Section 3.2).

"The loader takes as input a LAS/LAZ file and for each property it
generates a new file that is the binary dump of a C-array containing the
values of the property for all points.  Then, the generated files are
appended to each column of the flat table using the bulk loading operator
COPY BINARY."

:func:`load_file` implements exactly that two-stage pipeline (dump to
``.col`` files, then :func:`repro.engine.storage.copy_binary`), with an
in-memory fast path when no spool directory is given.  :func:`load_files`
drives a whole directory of LAS/LAZ tiles — the AHN2 layout — and reports
throughput, from which the E1 bench extrapolates the "640 billion points
in less than one day" claim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Optional, Union

import numpy as np

from ..engine.catalog import Database
from ..engine.column import TYPE_MAP
from ..engine.storage import copy_binary, dump_array
from ..engine.table import Table
from ..obs.metrics import get_registry
from ..obs.trace import maybe_span
from .header import LasFormatError
from .laz import read_laz
from .reader import read_las
from .spec import FLAT_SCHEMA

PathLike = Union[str, Path]


@dataclass
class LoadStats:
    """Throughput accounting for a bulk load."""

    n_points: int = 0
    n_files: int = 0
    seconds: float = 0.0
    read_seconds: float = 0.0
    append_seconds: float = 0.0
    #: Tiles skipped because the journal proved them already durable.
    n_skipped: int = 0
    #: Torn/failed tail rows rolled back before (re)appending.
    n_rows_rolled_back: int = 0

    @property
    def points_per_second(self) -> float:
        return self.n_points / self.seconds if self.seconds else 0.0



def create_flat_table(db: Database, name: str = "points") -> Table:
    """Create the 26-column flat point-cloud table of Section 3.1."""
    return db.create_table(name, FLAT_SCHEMA)


def flat_batch(columns: Dict[str, np.ndarray], n: int) -> Dict[str, np.ndarray]:
    """Complete a partial column dict to the full 26-column flat batch.

    LAS point formats below 3 lack some properties (colour, GPS time);
    the flat table stores zeros for those, as a DBMS stores defaults.
    """
    batch: Dict[str, np.ndarray] = {}
    for name, type_name in FLAT_SCHEMA:
        if name in columns:
            batch[name] = np.asarray(columns[name])
        else:
            batch[name] = np.zeros(n, dtype=TYPE_MAP[type_name])
    return batch


def read_point_file(path: PathLike):
    """Read a .las or .laz tile by extension (the loader's input stage)."""
    path = Path(path)
    if path.suffix.lower() == ".laz":
        return read_laz(path)
    return read_las(path)


def dump_to_binary(
    columns: Dict[str, np.ndarray], out_dir: PathLike
) -> Dict[str, Path]:
    """Stage 1: one binary C-array dump file per flat-table property."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n = np.asarray(columns["x"]).shape[0]
    batch = flat_batch(columns, n)
    files: Dict[str, Path] = {}
    for (name, type_name), _ in zip(FLAT_SCHEMA, range(len(FLAT_SCHEMA))):
        path = out_dir / f"{name}.col"
        dump_array(batch[name].astype(TYPE_MAP[type_name]), path)
        files[name] = path
    return files


def load_file(
    table: Table,
    path: PathLike,
    spool_dir: Optional[PathLike] = None,
) -> LoadStats:
    """Load one LAS/LAZ tile into the flat table.

    With ``spool_dir`` the loader runs the paper's literal two-stage
    pipeline (binary dumps + COPY BINARY); without it the dumps are
    skipped and the arrays append directly — same code path in the engine,
    minus the disk round trip.
    """
    stats = LoadStats(n_files=1)
    with maybe_span("load.file", path=str(path)) as file_span:
        t0 = time.perf_counter()
        with maybe_span("load.read"):
            _header, columns = read_point_file(path)
        t1 = time.perf_counter()
        n = np.asarray(columns["x"]).shape[0]
        with maybe_span("load.append") as append_span:
            if spool_dir is not None:
                files = dump_to_binary(columns, spool_dir)
                copy_binary(table, files)
            else:
                table.append_columns(flat_batch(columns, n))
            append_span.set(rows=n, spooled=spool_dir is not None)
        t2 = time.perf_counter()
        stats.n_points = n
        stats.read_seconds = t1 - t0
        stats.append_seconds = t2 - t1
        stats.seconds = t2 - t0
        file_span.set(rows=n)
    _record_load(stats)
    return stats


def _record_load(stats: LoadStats) -> None:
    """Fold one load's throughput accounting into the metrics registry."""
    registry = get_registry()
    registry.counter("load.points").inc(stats.n_points)
    registry.counter("load.files").inc(stats.n_files)
    registry.histogram("load.seconds").observe(stats.seconds)


def load_files(
    table: Table,
    paths: Iterable[PathLike],
    spool_dir: Optional[PathLike] = None,
    manifest=None,
    retries: int = 0,
    backoff: float = 0.01,
    checkpoint_every: int = 0,
    checkpoint=None,
) -> LoadStats:
    """Load a set of tiles (the 60,185-file AHN2 layout, scaled down).

    Beyond the paper's happy path, the loader is crash-safe:

    * ``manifest`` — a :class:`repro.las.manifest.LoadManifest` journals
      every tile (``pending`` → ``appended`` → ``indexed``) with source
      fingerprints; tiles the journal proves durable are skipped, which
      is how an interrupted ingest resumes exactly where it stopped.
    * a tile whose read or append fails is **rolled back** — the table
      is truncated to its pre-tile length, so no half-appended batch
      survives — before the error propagates (or the tile is retried).
    * ``retries`` — transient ``OSError``\\ s (NFS hiccups, ``EINTR``)
      are retried with bounded backoff; typed corruption errors
      (``LasFormatError``, ``StorageError``) are not, corrupt bytes do
      not heal on retry.
    * ``checkpoint`` — a zero-argument durability callback (e.g.
      ``db.save``) invoked every ``checkpoint_every`` tiles and at the
      end; afterwards the journal advances those tiles to ``indexed``.
    """
    from ..engine.durable import InjectedCrash, crash_point, with_retries
    from ..engine.storage import StorageError

    total = LoadStats()
    registry = get_registry()
    since_checkpoint = 0

    def run_checkpoint() -> None:
        with maybe_span("load.checkpoint", rows=len(table)):
            checkpoint()
        crash_point("ingest.checkpointed", rows=len(table))
        if manifest is not None:
            manifest.mark_checkpoint(len(table))

    for path in paths:
        if manifest is not None and manifest.is_done(path):
            total.n_skipped += 1
            registry.counter("load.tiles_skipped").inc()
            continue
        rows_before = len(table)
        if manifest is not None:
            manifest.begin(path, rows_before)
            crash_point("ingest.tile_pending", tile=str(path))

        def attempt(path=path, rows_before=rows_before):
            try:
                return load_file(table, path, spool_dir=spool_dir)
            except InjectedCrash:
                raise  # a dead process rolls nothing back
            except Exception:
                # Narrowed from BaseException so InjectedCrash (and a
                # real KeyboardInterrupt) can never detour through the
                # rollback path of a process that is supposed to be dead.
                torn = len(table) - rows_before
                if torn > 0:
                    table.truncate(rows_before)
                    total.n_rows_rolled_back += torn
                    registry.counter("durability.rolled_back_rows").inc(torn)
                raise

        try:
            stats = with_retries(
                attempt,
                retries=retries,
                backoff=backoff,
                retry_on=(OSError,),
                no_retry=(LasFormatError, StorageError),
                label="load.tile",
            )
        except InjectedCrash:
            raise  # leave the journal frozen, exactly like a kill -9
        except Exception:
            if manifest is not None:
                manifest.abort(path)
            raise
        if manifest is not None:
            manifest.mark_appended(path, len(table), stats.n_points)
            crash_point("ingest.tile_appended", tile=str(path))
        total.n_points += stats.n_points
        total.n_files += 1
        total.seconds += stats.seconds
        total.read_seconds += stats.read_seconds
        total.append_seconds += stats.append_seconds
        since_checkpoint += 1
        if checkpoint is not None and checkpoint_every and since_checkpoint >= checkpoint_every:
            run_checkpoint()
            since_checkpoint = 0
    if checkpoint is not None and since_checkpoint:
        run_checkpoint()
    return total


def load_arrays(table: Table, columns: Dict[str, np.ndarray]) -> LoadStats:
    """Load an in-memory column batch (generators feed this directly)."""
    with maybe_span("load.arrays") as span:
        t0 = time.perf_counter()
        n = np.asarray(columns["x"]).shape[0]
        table.append_columns(flat_batch(columns, n))
        dt = time.perf_counter() - t0
        span.set(rows=n)
    stats = LoadStats(n_points=n, n_files=0, seconds=dt, append_seconds=dt)
    _record_load(stats)
    return stats

"""Crash-resumable, checkpointed bulk ingest into a persisted database.

This is the operational wrapper around the paper's bulk loader: where
:func:`repro.las.binloader.load_files` moves tiles into an in-memory
table, :class:`ResumableIngest` owns the whole multi-hour job — open or
recover the on-disk database, journal every tile in a
:class:`~repro.las.manifest.LoadManifest`, checkpoint the table (and
catalog) durably every N tiles, and, after a crash, resume exactly where
the last checkpoint left off:

* tiles the journal proves durable (``indexed`` + matching size/mtime
  fingerprint) are skipped;
* tiles stuck in ``pending``/``appended`` — and any torn tail rows a
  crash mid-checkpoint left behind — are rolled back and redone;
* transient ``OSError``\\ s retry with bounded backoff.

The result is the guarantee the fault-injection suite enforces: an
ingest killed at any crash point and resumed with ``--resume`` produces
column files byte-identical to an uninterrupted run.

Driven by ``repro-gis load --resume`` (see ``docs/durability.md``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional, Tuple, Union

from ..engine.catalog import Database
from ..engine.durable import crash_point
from ..obs.metrics import get_registry
from ..obs.trace import maybe_span
from .binloader import LoadStats, create_flat_table, load_files
from .manifest import LoadManifest

PathLike = Union[str, Path]

#: Journal directory under the database root.
INGEST_DIR = "_ingest"


def manifest_path(root: PathLike, table: str = "points") -> Path:
    """Where the load journal for a table lives inside a database farm."""
    return Path(root) / INGEST_DIR / f"{table}.manifest.json"


class ResumableIngest:
    """A journaled bulk load of LAS/LAZ tiles into an on-disk database.

    Parameters
    ----------
    directory:
        Database root (the ``--db`` directory of the CLI).
    table:
        Flat table name to load into (created if missing).
    checkpoint_every:
        Tiles between durable checkpoints (table + catalog + journal).
        1 = maximum safety, larger amortises the save cost.
    retries / backoff:
        Transient-``OSError`` retry budget per tile.
    """

    def __init__(
        self,
        directory: PathLike,
        table: str = "points",
        checkpoint_every: int = 1,
        retries: int = 3,
        backoff: float = 0.01,
    ) -> None:
        self.root = Path(directory)
        self.table_name = table
        self.checkpoint_every = max(1, int(checkpoint_every))
        self.retries = retries
        self.backoff = backoff

    # -- database / journal opening ----------------------------------------

    def _open(self, resume: bool) -> Tuple[Database, LoadManifest]:
        """Open (or recover) the database and journal for this ingest."""
        self.root.mkdir(parents=True, exist_ok=True)
        journal = manifest_path(self.root, self.table_name)
        # Load (tolerantly) whatever the farm already holds so other
        # tables survive the next catalog write.
        db = Database.load(self.root)
        if not resume and self.table_name in db:
            # Fresh load replaces the target table, nothing else.
            db.drop_table(self.table_name)
        if self.table_name in db:
            table = db.table(self.table_name)
        else:
            table = create_flat_table(db, self.table_name)

        if resume:
            manifest = LoadManifest.open(journal, self.table_name)
            committed = manifest.reconcile(len(table))
            torn = len(table) - committed
            if torn > 0:
                # A crash between checkpoint stages left uncommitted tail
                # rows in the recovered table: roll them back, their tiles
                # will be redone.
                table.truncate(committed)
                get_registry().counter("durability.rolled_back_rows").inc(torn)
            dirty = torn > 0 or any(
                h["issues"] for h in db.health.values() if h["ok"]
            )
            if dirty:
                # Make the repaired state durable before loading anything,
                # so even a resume with zero new tiles heals the store.
                db.save()
                manifest.mark_checkpoint(len(table))
                crash_point("ingest.recovered", rows=len(table))
        else:
            manifest = LoadManifest(journal, self.table_name)
            manifest.discard()
        return db, manifest

    # -- the load -----------------------------------------------------------

    def load(
        self, paths: Iterable[PathLike], resume: bool = False
    ) -> Tuple[Database, LoadStats]:
        """Run (or resume) the ingest; returns the database and stats.

        Every tile is journaled; the table, catalog and journal are
        checkpointed durably every ``checkpoint_every`` tiles and once
        at the end, so a crash loses at most the tiles since the last
        checkpoint — and those are rolled back and redone on resume.
        """
        db, manifest = self._open(resume)
        table = db.table(self.table_name)
        with maybe_span(
            "load.ingest", table=self.table_name, resume=resume
        ) as span:
            stats = load_files(
                table,
                paths,
                manifest=manifest,
                retries=self.retries,
                backoff=self.backoff,
                checkpoint_every=self.checkpoint_every,
                checkpoint=db.save,
            )
            span.set(rows=len(table), skipped=stats.n_skipped)
        return db, stats

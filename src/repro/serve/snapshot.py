"""Reader snapshots over catalog generations.

The durability layer already publishes atomically: ``Database.save``
writes table data first and replaces ``_catalog.json`` last, stamping a
monotonically increasing **generation**.  This module turns that stamp
into the service's concurrency story:

* The daemon holds one current :class:`Snapshot` — a fully loaded
  :class:`~repro.api.PointCloudDB` plus the generation it was loaded at.
* Every request *pins* the current snapshot for its whole execution
  (:meth:`SnapshotManager.pin`).  Pinning is a reference, not a lock:
  the snapshot's tables are never mutated after publication, so any
  number of readers scan it freely.
* A writer (this process or another) publishes generation N+1 through
  the same atomic catalog replace; :meth:`SnapshotManager.reload_if_changed`
  notices the new stamp (one small JSON read — cheap enough to poll),
  loads the new generation *beside* the old one, and swaps the current
  pointer.  In-flight readers keep their pinned generation to the end;
  their result sets cannot change mid-scan.  The old snapshot is freed
  by ordinary refcounting once its last reader unpins.

This is MVCC at the coarsest possible grain — one version per published
catalog — which matches the paper's workload: bulk loads are rare and
big, reads are constant and latency-sensitive.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional, Union

from ..api import PointCloudDB
from ..engine.catalog import Database
from ..obs.context import ObsContext

PathLike = Union[str, Path]


class Snapshot:
    """One immutable published generation of the store.

    ``pins`` counts requests currently scanning this snapshot — surfaced
    in ``/healthz`` and the drain log, not used for locking.
    """

    def __init__(self, db: PointCloudDB, generation: int) -> None:
        self.db = db
        self.generation = generation
        self._pins = 0
        self._lock = threading.Lock()

    @property
    def pins(self) -> int:
        with self._lock:
            return self._pins

    def _pin(self) -> None:
        with self._lock:
            self._pins += 1

    def _unpin(self) -> None:
        with self._lock:
            self._pins -= 1


class SnapshotManager:
    """Owns the current snapshot; readers pin, writers publish.

    Parameters
    ----------
    directory:
        On-disk store root; ``None`` for a purely in-memory service
        (tests, benchmarks) seeded via :meth:`publish_db`.
    threads:
        Ignored; execution is serial; removed when ``benchmarks/e2e/``
        stops passing it.
    obs:
        The service :class:`ObsContext`; every loaded snapshot shares it
        so queries against any generation land in the same registry and
        query log.
    loader:
        Load override for tests (defaults to :meth:`PointCloudDB.load`).
    """

    def __init__(
        self,
        directory: Optional[PathLike] = None,
        threads: Optional[int] = None,
        obs: Optional[ObsContext] = None,
        loader: Optional[Callable[[], PointCloudDB]] = None,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.obs = obs
        self._loader = loader
        self._lock = threading.Lock()
        self._current: Optional[Snapshot] = None

    # -- loading / publishing ----------------------------------------------

    def _load(self) -> PointCloudDB:
        if self._loader is not None:
            return self._loader()
        if self.directory is None:
            raise ValueError("no store directory and no loader configured")
        return PointCloudDB.load(self.directory, obs=self.obs)

    def open(self) -> Snapshot:
        """Load the initial snapshot (idempotent)."""
        with self._lock:
            if self._current is None:
                db = self._load()
                self._current = Snapshot(db, db.db.generation)
            return self._current

    def publish_db(self, db: PointCloudDB) -> Snapshot:
        """Swap in an already-built database as the current snapshot.

        The in-process writer path: after ``db.save()`` bumped the
        generation durably, publishing here makes it the generation new
        requests pin.  In-flight readers keep their old snapshot.
        """
        snapshot = Snapshot(db, db.db.generation)
        with self._lock:
            self._current = snapshot
        return snapshot

    def reload_if_changed(self) -> bool:
        """Reload when the on-disk catalog advertises a newer generation.

        The external-writer path: another process published via the
        atomic catalog replace; one cheap ``_catalog.json`` read detects
        it.  Returns True when a new snapshot was published.
        """
        if self.directory is None:
            return False
        current = self.current()
        on_disk = Database.read_generation(self.directory)
        if on_disk == current.generation:
            return False
        db = self._load()
        self.publish_db(db)
        return True

    # -- reading -----------------------------------------------------------

    def current(self) -> Snapshot:
        snapshot = self._current
        if snapshot is None:
            return self.open()
        return snapshot

    @contextmanager
    def pin(self) -> Iterator[Snapshot]:
        """Pin the current snapshot for the duration of one request.

        The returned snapshot's generation — and therefore its data —
        is stable for the whole block, regardless of concurrent
        publishes.
        """
        with self._lock:
            snapshot = self._current
        if snapshot is None:
            snapshot = self.open()
        snapshot._pin()
        try:
            yield snapshot
        finally:
            snapshot._unpin()

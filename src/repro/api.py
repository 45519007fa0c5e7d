"""The public facade: a "spatially-enabled DBMS" in one object.

:class:`PointCloudDB` wires the pieces of the paper's architecture
together — flat tables (Section 3.1), the binary bulk loader (Section
3.2), lazily built column imprints and the two-step spatial query model
(Section 3.3), and the SQL layer for ad-hoc spatio-thematic queries
(Section 4.2)::

    from repro import PointCloudDB

    db = PointCloudDB()
    db.create_pointcloud("ahn2")
    db.load_las("ahn2", las_paths)
    result = db.spatial_select("ahn2", polygon)
    rows = db.sql("SELECT avg(z) FROM ahn2 WHERE ...").rows
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Union

import numpy as np

from .core.imprints import ImprintsManager
from .core.query import QueryResult, SpatialSelect
from .engine.catalog import Database
from .engine.table import Table
from .las.binloader import LoadStats, create_flat_table, load_arrays, load_files
from .obs.context import ObsContext, default_context
from .obs.slowlog import (
    DEFAULT_LOG_NAME,
    SlowQueryLog,
    path_from_env,
    threshold_from_env,
)
from .sql.executor import Result, Session

PathLike = Union[str, Path]


class PointCloudDB:
    """A column-store point-cloud database with GIS functionality.

    Parameters
    ----------
    directory:
        Optional persistence root (forwarded to the engine catalog).
    threads:
        Ignored; execution is serial; removed when ``benchmarks/e2e/``
        stops passing it.
    tracing:
        ``True`` enables this database's span tracer (``False`` disables
        it); ``None`` leaves it as-is (the ``REPRO_TRACE`` env var
        default).  Tracing off costs one attribute check per span site.
    slow_query_s:
        Arm the slow-query log: queries (spatial or SQL) taking at least
        this many wall-clock seconds append one structured JSONL record
        (identity, stats, resources, span tree) to ``slow_query_log``.
        ``None`` falls back to ``REPRO_SLOW_QUERY_S``; when neither is
        set the log is off and queries pay nothing.
    slow_query_log:
        The JSONL file for slow-query records.  Defaults to
        ``REPRO_SLOW_QUERY_LOG``, else ``slow-query.jsonl`` next to the
        database directory (or the working directory without one).
    obs:
        The :class:`~repro.obs.context.ObsContext` this database's
        queries run under — its tracer, metrics registry and query
        registry.  Defaults to the process-wide default context
        (wrapping the module singletons, the pre-context behaviour);
        pass ``ObsContext.fresh()`` to observe two databases in one
        process independently.
    """

    def __init__(
        self,
        directory: Optional[PathLike] = None,
        threads: Optional[int] = None,
        tracing: Optional[bool] = None,
        slow_query_s: Optional[float] = None,
        slow_query_log: Optional[PathLike] = None,
        obs: Optional[ObsContext] = None,
    ) -> None:
        self.db = Database(directory=directory)
        self.manager = ImprintsManager()
        self._selects: Dict[str, SpatialSelect] = {}
        self._vector_relations: Dict[str, Dict] = {}
        self.obs = obs if obs is not None else default_context()
        if tracing is not None:
            tracer = self.obs.tracer
            tracer.enable() if tracing else tracer.disable()
        if slow_query_s is None:
            slow_query_s = threshold_from_env()
        self.slow_log: Optional[SlowQueryLog] = None
        if slow_query_s is not None:
            log_path: Optional[PathLike] = (
                slow_query_log if slow_query_log is not None else path_from_env()
            )
            if log_path is None:
                root = Path(directory) if directory is not None else Path(".")
                log_path = root / DEFAULT_LOG_NAME
            self.slow_log = SlowQueryLog(slow_query_s, log_path)

    # -- point clouds ------------------------------------------------------------

    def create_pointcloud(self, name: str = "points") -> Table:
        """Create a 26-column flat point-cloud table."""
        table = create_flat_table(self.db, name)
        self._selects[name] = SpatialSelect(table, manager=self.manager)
        return table

    def load_las(
        self,
        name: str,
        paths: Iterable[PathLike],
        spool_dir: Optional[PathLike] = None,
    ) -> LoadStats:
        """Bulk-load LAS/LAZ tiles via the binary loader."""
        return load_files(self.db.table(name), paths, spool_dir=spool_dir)

    def load_points(self, name: str, columns: Dict[str, np.ndarray]) -> LoadStats:
        """Bulk-load an in-memory column batch (e.g. from the generator)."""
        return load_arrays(self.db.table(name), columns)

    def table(self, name: str) -> Table:
        return self.db.table(name)

    # -- spatial queries ------------------------------------------------------------

    def spatial_select(
        self,
        name: str,
        geometry,
        predicate: str = "contains",
        distance: float = 0.0,
        **kwargs,
    ) -> QueryResult:
        """Two-step (imprints filter + grid refine) spatial selection.

        Accepts the :meth:`SpatialSelect.query` keywords, including
        ``timeout_s=`` for a cooperative deadline.
        """
        select = self.select_for(name)
        with self.obs.activate():
            return select.query(geometry, predicate, distance, **kwargs)

    def select_for(self, name: str) -> SpatialSelect:
        """The cached :class:`SpatialSelect` over table ``name``, armed
        with this database's slow-query log.

        The building block :meth:`spatial_select` wraps; the query
        service calls it directly, under the service's own observability
        context, and is slow-logged all the same.
        """
        select = self._selects.get(name)
        if select is None:
            select = SpatialSelect(self.db.table(name), manager=self.manager)
            self._selects[name] = select
        select.slow_log = self.slow_log
        return select

    # -- SQL ---------------------------------------------------------------------------

    def register_vector(self, name: str, columns: Dict[str, Sequence]) -> None:
        """Register a vector relation (roads, zones...) for SQL queries.

        Object columns (strings, geometries) are allowed; the relation is
        snapshotted at registration.
        """
        self._vector_relations[name] = columns

    @property
    def vector_relations(self) -> Dict[str, Dict]:
        """Registered vector relations (name -> columns), read-only use."""
        return self._vector_relations

    def _session(self) -> Session:
        """A session over the current tables and vector relations.

        Assembled per call so appended points are always visible;
        imprints persist across calls via the shared manager (they belong
        to the columns, not the session).
        """
        session = Session(manager=self.manager, obs=self.obs)
        session.slow_log = self.slow_log
        for name in self.db.table_names:
            session.register_table(self.db.table(name))
        for name, columns in self._vector_relations.items():
            session.register_columns(name, columns)
        return session

    def sql(self, query: str, timeout_s: Optional[float] = None) -> Result:
        """Run a SQL query over the point clouds and vector relations.

        ``timeout_s`` arms a cooperative deadline; a query that outruns
        it raises :class:`~repro.obs.queries.QueryCancelled`.
        """
        return self._session().execute(query, timeout_s=timeout_s)

    def explain(self, query: str) -> str:
        """The query's plan as text (which indexes it would use)."""
        return self._session().explain(query)

    def explain_analyze(self, query: str) -> str:
        """Run the query under the tracer; per-operator tree with timings,
        cardinalities and imprint segment counts."""
        return self._session().explain_analyze(query)

    # -- observability ----------------------------------------------------------------

    def trace_spans(self):
        """Finished spans currently in this database's tracer ring."""
        return self.obs.tracer.spans()

    def metrics(self) -> Dict[str, Dict]:
        """Snapshot of this database's metrics registry."""
        return self.obs.registry.snapshot()

    def active_queries(self) -> Dict[str, list]:
        """Live view of this database's query registry: in-flight query
        records plus the recent finished ring (what ``/debug/queries``
        serves)."""
        return self.obs.queries.snapshot()

    # -- reporting ----------------------------------------------------------------------

    def storage_report(self) -> Dict[str, Dict[str, int]]:
        """Bytes per table plus imprint index bytes (the E2 accounting)."""
        report: Dict[str, Dict[str, int]] = {}
        for name in self.db.table_names:
            table = self.db.table(name)
            imprint_bytes = sum(
                stats.index_bytes
                for (tname, _col), stats in self.manager.stats().items()
                if tname == name
            )
            report[name] = {
                "rows": len(table),
                "column_bytes": table.nbytes,
                "imprint_bytes": imprint_bytes,
                "compressed_bytes": sum(
                    int(entry["nbytes"])
                    for entry in table.compression_report().values()
                ),
            }
        return report

    def compress(
        self,
        name: Optional[str] = None,
        columns: Optional[Sequence[str]] = None,
        segment_rows: Optional[int] = None,
        scheme: str = "auto",
    ) -> Dict[str, Dict[str, object]]:
        """Build compressed execution mirrors (see ``docs/compression.md``).

        Packs every column of ``name`` (or of every table when ``name``
        is ``None``) into per-segment :class:`CompressedBlock`\\ s the
        select kernels can scan without decompressing; mirrors persist
        as ``.colz`` sidecars at the next :meth:`save`.  Returns the
        per-table :meth:`~repro.engine.table.Table.compression_report`.
        """
        names = [name] if name is not None else self.db.table_names
        report: Dict[str, Dict[str, object]] = {}
        for table_name in names:
            table = self.db.table(table_name)
            table.compress(columns=columns, segment_rows=segment_rows, scheme=scheme)
            report[table_name] = dict(table.compression_report())
        return report

    def save(self, directory: Optional[PathLike] = None) -> int:
        """Persist all tables (per-column binaries) and built imprints."""
        total = self.db.save(directory)
        root = Path(directory) if directory is not None else self.db.directory
        total += self.manager.save(root / "_imprints")
        return total

    @classmethod
    def load(
        cls,
        directory: PathLike,
        threads: Optional[int] = None,
        obs: Optional[ObsContext] = None,
    ) -> "PointCloudDB":
        """Restore a persisted database, imprints included.

        The load degrades gracefully: tables with torn tails are rolled
        back to their last committed rows, unreadable tables are skipped,
        corrupt imprints are quarantined and rebuilt lazily — per-table
        outcomes land in :attr:`health` instead of killing the load.

        ``obs`` scopes the loaded database's observability; the query
        service passes its own context so every loaded snapshot
        generation reports into one registry.  ``threads`` is ignored;
        execution is serial; removed when ``benchmarks/e2e/`` stops
        passing it.
        """
        instance = cls(directory=directory, obs=obs)
        instance.db = Database.load(directory)
        tables = {name: instance.db.table(name) for name in instance.db.table_names}
        instance.manager.load(tables, Path(directory) / "_imprints")
        return instance

    # -- durability ---------------------------------------------------------

    @property
    def health(self) -> Dict[str, Dict]:
        """Per-table load/recovery health (see :attr:`Database.health`)."""
        return self.db.health

    def verify(self, directory: Optional[PathLike] = None) -> Dict:
        """Check every on-disk artifact of the store; returns a report.

        ``{"ok": bool, "tables": {...}, "imprints": {"ok", "issues"}}`` —
        table metadata, column checksums and row counts via
        :meth:`Database.verify`, plus structural/checksum verification of
        the persisted imprint files.  Read-only.
        """
        report = self.db.verify(directory)
        root = Path(directory) if directory is not None else self.db.directory
        imprint_issues = (
            self.manager.verify_directory(root / "_imprints")
            if root is not None
            else []
        )
        report["imprints"] = {"ok": not imprint_issues, "issues": imprint_issues}
        if imprint_issues:
            report["ok"] = False
        return report

    @classmethod
    def recover(
        cls,
        directory: PathLike,
        obs: Optional[ObsContext] = None,
    ) -> "PointCloudDB":
        """Tolerant load + rewrite of everything that needed repair.

        Rolls torn table tails back and re-persists them
        (:meth:`Database.recover`); corrupt imprint files are quarantined
        by the imprint loader and rebuilt lazily on first use.
        """
        instance = cls(directory=directory, obs=obs)
        instance.db = Database.recover(directory)
        tables = {name: instance.db.table(name) for name in instance.db.table_names}
        instance.manager.load(tables, Path(directory) / "_imprints")
        return instance

"""The two-step spatial query pipeline: imprint filter -> grid refinement.

This is the paper's query model (Section 3.3) end to end:

1. **Filter** — the query geometry's envelope gives one range per axis;
   the column imprints on X and Y (and Z for a 3-D query) are probed
   *together*: one segment scan skips a segment when either axis's zone
   map is disjoint and, on the rest, ANDs the axes' per-cacheline
   imprint matches before any coordinate is read ("the majority of
   points that do not satisfy the spatial predicate ... are identified and
   disregarded using a fast approximation").
2. **Refine** — the surviving candidates go through the regular grid +
   cell classification of :mod:`repro.core.refine`; only boundary-cell
   points are tested exactly.

:class:`SpatialSelect` binds the pipeline to one flat table and exposes
``query(geometry, predicate, distance)``.  The imprint filter can be
toggled off (a plain scan cascade) for the ablation benches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..engine.scan import ScanStats
from ..engine.select import mask_select, range_select
from ..engine.table import Table
from ..gis.envelope import Box
from ..gis.geometry import is_rectangle
from ..gis.predicates import geometry_envelope, points_in_geometry, points_satisfy
from ..obs import heat as _heat
from ..obs.metrics import get_registry
from ..obs.queries import query_scope
from ..obs.resources import ResourceUsage
from ..obs.slowlog import SlowQueryLog
from ..obs.timing import now
from ..obs.trace import maybe_span
from .grid import DEFAULT_TARGET_CELLS
from .imprints.manager import ImprintsManager
from .refine import RefineStats, refine


def filter_is_exact(geometry, predicate: str) -> bool:
    """Is the envelope filter already the answer, so refinement is skipped?

    It is when a point-containment predicate (``contains``,
    ``intersects``, ``within``) meets a rectangle (:func:`is_rectangle`):
    the filter returns exactly the rows in the closed envelope, and
    refinement would accept every one of them (ray-cast interior, edges
    within eps).  ``dwithin`` always refines.  :class:`SpatialSelect`
    and SQL EXPLAIN both ask this one rule.
    """
    return predicate in ("contains", "intersects", "within") and is_rectangle(
        geometry
    )



def _filter_envelope(geometry, predicate: str, distance: float) -> Box:
    """The closed box every path cuts at before the exact test: the
    geometry's envelope, grown by ``distance`` for ``dwithin``."""
    env = geometry_envelope(geometry)
    if predicate == "dwithin":
        env = env.expand(distance)
    return env


@dataclass
class QueryStats:
    """Phase timings and cardinalities for one spatial query.

    The phase boundaries are the same ones the tracer's spans wrap
    (``query.filter`` / ``query.refine`` / ``imprints.build``), so these
    numbers agree with an exported trace of the same query.
    """

    #: Seconds in the imprint filter step, *net of* lazy index builds.
    filter_seconds: float = 0.0
    refine_seconds: float = 0.0
    #: Seconds spent lazily building/extending imprints this query
    #: triggered (0.0 when the indexes were already warm).
    imprint_build_seconds: float = 0.0
    n_rows: int = 0
    n_filter_candidates: int = 0
    n_results: int = 0
    used_imprints: bool = True
    #: Columns whose imprint vectors the filter ANDed.  An axis missing
    #: here had no usable index (never built, or on another segment grid)
    #: and was compared value by value instead.
    imprint_columns: Tuple[str, ...] = ()
    #: What the imprint segment scans did; the ``n_segments_*`` and
    #: ``n_probes_*`` properties read it.
    scan: ScanStats = field(default_factory=ScanStats)
    refine_stats: RefineStats = field(default_factory=RefineStats)
    #: What the query *consumed* (CPU seconds, peak allocations,
    #: rows/bytes touched) — see :mod:`repro.obs.resources`.
    resources: ResourceUsage = field(default_factory=ResourceUsage)
    #: Registry identity of this execution (``""`` for the untracked
    #: empty-table fast path) — the id ``/debug/queries``, the slow log
    #: and the flight recorder all report.
    query_id: str = ""

    @property
    def n_segments_skipped(self) -> int:
        """Imprint segments the zone maps answered outright (disjoint on
        some axis, or covered on all) — no imprint probe, no data access.
        Each segment counts once per query, however many axes it consulted."""
        return self.scan.segments_skipped + self.scan.segments_full

    @property
    def n_segments_probed(self) -> int:
        """Imprint segments that paid a probe + exact verification."""
        return self.scan.segments_probed

    @property
    def n_probes_dense(self) -> int:
        """Probed segments that compared whole column slices (see
        :data:`repro.core.imprints.segments.DENSE_LINE_SHARE`); segments
        the vectors emptied read nothing and count as neither this nor
        :attr:`n_probes_gather`."""
        return self.scan.dense_probes

    @property
    def n_probes_gather(self) -> int:
        """Probed segments that gathered only the cache lines the imprint
        vectors left alive."""
        return self.scan.gather_probes

    @property
    def total_seconds(self) -> float:
        """Wall time of the whole query, lazy imprint builds included —
        a cold first query no longer under-reports its cost."""
        return (
            self.filter_seconds + self.refine_seconds + self.imprint_build_seconds
        )

    @property
    def filter_selectivity(self) -> float:
        """Candidates / table rows (how much the filter step discards).

        ``nan`` for an empty table: 0/0 is not "perfectly selective",
        and the CLI footer renders it as ``-``.
        """
        if self.n_rows == 0:
            return float("nan")
        return self.n_filter_candidates / self.n_rows


@dataclass
class QueryResult:
    """Row ids satisfying the predicate, plus execution statistics."""

    oids: np.ndarray
    stats: QueryStats

    def __len__(self) -> int:
        return int(self.oids.shape[0])


class SpatialSelect:
    """Spatial selection over a flat point-cloud table.

    Parameters
    ----------
    table:
        The flat table (one row per point).
    x_column, y_column:
        Names of the coordinate columns.
    manager:
        Shared :class:`ImprintsManager`; a private one is created when
        omitted.  Sharing a manager across query objects mirrors MonetDB,
        where imprints belong to the column, not to the query.
    target_cells:
        Refinement grid budget.
    """

    def __init__(
        self,
        table: Table,
        x_column: str = "x",
        y_column: str = "y",
        manager: Optional[ImprintsManager] = None,
        target_cells: int = DEFAULT_TARGET_CELLS,
    ) -> None:
        self.table = table
        self.x_column = x_column
        self.y_column = y_column
        self.manager = manager if manager is not None else ImprintsManager()
        self.target_cells = target_cells
        #: The owning database's slow-query log, refreshed by
        #: :meth:`~repro.api.PointCloudDB.select_for`; ``None`` logs nothing.
        self.slow_log: Optional[SlowQueryLog] = None

    # -- the two steps ---------------------------------------------------------

    def _filter(
        self,
        env: Box,
        use_imprints: bool,
        stats: Optional[QueryStats] = None,
        z_slab: Optional[Tuple[str, float, float]] = None,
    ) -> np.ndarray:
        """Candidate rows whose (x, y) lies in the query envelope (and
        whose ``z_slab`` column lies in its range, when given).

        With imprints this is the paper's two-axis filter as one fused
        segment scan (:meth:`ImprintsManager.select_conjunction`): zone
        maps of every axis settle what they can, the per-cacheline
        imprint matches of the axes are ANDed, and only then are values
        compared — no per-axis candidate list is ever materialised.  The
        axis where the query covers the smaller fraction of the domain
        goes first: its imprint (and the z column's) is built on first
        use; the other axis's is used when the manager already holds it
        but never created here, so a cold query builds one index.

        Without imprints the ranges run as a plain ``range_select``
        cascade, most selective axis first, each select scanning only the
        survivors of the one before.
        """
        x_lo, x_hi = self.table.column(self.x_column).minmax()
        y_lo, y_hi = self.table.column(self.y_column).minmax()
        x_fraction = (env.xmax - env.xmin) / max(float(x_hi) - float(x_lo), 1e-300)
        y_fraction = (env.ymax - env.ymin) / max(float(y_hi) - float(y_lo), 1e-300)
        ranges = [
            (self.x_column, env.xmin, env.xmax),
            (self.y_column, env.ymin, env.ymax),
        ]
        if y_fraction < x_fraction:
            ranges.reverse()
        if z_slab is not None:
            ranges.append(z_slab)
        if use_imprints:
            return self.manager.select_conjunction(
                self.table,
                ranges,
                create=[z_slab[0]] if z_slab is not None else (),
                stats=stats,
            )
        candidates = None
        for name, lo, hi in ranges:
            candidates = range_select(
                self.table.column(name), lo, hi, candidates=candidates
            )
        return candidates

    def query(
        self,
        geometry,
        predicate: str = "contains",
        distance: float = 0.0,
        use_imprints: bool = True,
        z_column: Optional[str] = None,
        z_range: Optional[tuple] = None,
        threads: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> QueryResult:
        """Rows whose point satisfies ``predicate`` against ``geometry``.

        ``geometry`` may be any :mod:`repro.gis` geometry or a raw
        :class:`~repro.gis.envelope.Box`.  ``predicate`` is ``contains`` /
        ``intersects`` (synonyms for points) or ``dwithin`` with
        ``distance``.

        ``z_range=(zmin, zmax)`` (with ``z_column``, default ``"z"``)
        turns the selection into the 3-D box/prism query the paper's
        conclusions motivate ("enable 3D operations and analyses"): the
        elevation slab joins the x and y ranges as a third term of the
        same fused filter scan, with the z column's imprint built on
        first use.

        ``threads`` is ignored; execution is serial; removed when
        ``benchmarks/e2e/`` stops passing it.

        ``timeout_s`` arms a cooperative deadline, checked at segment
        boundaries: a query that outruns it raises
        :class:`~repro.obs.queries.QueryCancelled` and its registry
        record is marked ``cancelled``.
        """
        if len(self.table) == 0:
            return QueryResult(
                oids=np.empty(0, dtype=np.int64),
                stats=QueryStats(n_rows=0, used_imprints=use_imprints),
            )
        with query_scope(
            "spatial",
            "query.spatial",
            {"table": self.table.name, "predicate": predicate},
            timeout_s,
            self.slow_log,
        ) as active:
            if active.slow_record is not None:
                bbox = geometry_envelope(geometry)
                active.slow_record.update(
                    bbox=[bbox.xmin, bbox.ymin, bbox.xmax, bbox.ymax]
                )
            active.set_phase("filter")
            stats = QueryStats(
                n_rows=len(self.table),
                used_imprints=use_imprints,
            )
            # The filter window opens before envelope derivation so that
            # geometry parsing counts toward the reported wall time.
            t0 = now()
            env = _filter_envelope(geometry, predicate, distance)

            z_slab = None
            if z_range is not None:
                zmin, zmax = z_range
                z_slab = (z_column if z_column is not None else "z", zmin, zmax)
            with maybe_span("query.filter") as filter_span:
                oids = self._filter(env, use_imprints, stats=stats, z_slab=z_slab)
                filter_span.set(
                    rows_in=stats.n_rows,
                    rows_out=int(oids.shape[0]),
                    segments_skipped=stats.n_segments_skipped,
                    segments_probed=stats.n_segments_probed,
                    imprint_columns=",".join(stats.imprint_columns),
                    probes_dense=stats.n_probes_dense,
                    probes_gather=stats.n_probes_gather,
                )
            t1 = now()

            # Lazy builds were timed by the manager; report the filter
            # phase net of them so the phases sum to the wall clock.
            stats.filter_seconds = max(
                (t1 - t0) - stats.imprint_build_seconds, 0.0
            )
            stats.n_filter_candidates = int(oids.shape[0])

            if not filter_is_exact(geometry, predicate):
                active.set_phase("refine")
                active.check_deadline()
                with maybe_span("query.refine") as refine_span:
                    xs = self.table.column(self.x_column).take(oids)
                    ys = self.table.column(self.y_column).take(oids)
                    mask, refine_stats = refine(
                        xs,
                        ys,
                        geometry,
                        predicate,
                        distance,
                        target_cells=self.target_cells,
                    )
                    refine_span.set(
                        rows_in=int(oids.shape[0]),
                        boundary_cells=refine_stats.boundary_cells,
                        points_tested_exact=refine_stats.points_tested_exact,
                    )
                stats.refine_seconds = now() - t1
                stats.refine_stats = refine_stats
                oids = mask_select(mask, oids)

            stats.n_results = int(oids.shape[0])
            active.span.set(rows_out=stats.n_results)
            if active.slow_record is not None:
                active.slow_record.update(
                    rows=stats.n_results,
                    stats={
                        "filter_seconds": stats.filter_seconds,
                        "refine_seconds": stats.refine_seconds,
                        "imprint_build_seconds": stats.imprint_build_seconds,
                        "n_filter_candidates": stats.n_filter_candidates,
                        "n_segments_skipped": stats.n_segments_skipped,
                        "n_segments_probed": stats.n_segments_probed,
                        "imprint_columns": list(stats.imprint_columns),
                        "n_probes_dense": stats.n_probes_dense,
                        "n_probes_gather": stats.n_probes_gather,
                    },
                )
        # The tracker's CPU delta lands at scope exit.
        stats.resources = active.tracker.usage
        stats.query_id = active.query_id
        self._record_metrics(stats)
        self._record_heat(geometry, predicate, distance, stats.resources)
        return QueryResult(oids=oids, stats=stats)

    def _record_heat(
        self,
        geometry,
        predicate: str,
        distance: float,
        usage: ResourceUsage,
    ) -> None:
        """Fold this query's bbox footprint into the workload heat map.

        Outside the query scope so the bookkeeping never counts against
        the query's own resource or latency accounting.
        """
        heat = _heat.maybe_heat()
        if heat is None:
            return
        env = _filter_envelope(geometry, predicate, distance)
        x_lo, x_hi = self.table.column(self.x_column).minmax()
        y_lo, y_hi = self.table.column(self.y_column).minmax()
        heat.record_footprint(
            table=self.table.name,
            bbox=(env.xmin, env.ymin, env.xmax, env.ymax),
            domain=(float(x_lo), float(y_lo), float(x_hi), float(y_hi)),
            nbytes=int(usage.bytes_touched),
        )

    @staticmethod
    def _record_metrics(stats: QueryStats) -> None:
        """Fold one query's stats into the active context's registry
        (after the query scope, like the heat map)."""
        registry = get_registry()
        registry.histogram("query.cpu_seconds").observe(stats.resources.cpu_seconds)
        registry.counter("query.count").inc()
        registry.counter("query.segments_skipped").inc(stats.n_segments_skipped)
        registry.counter("query.segments_probed").inc(stats.n_segments_probed)
        registry.histogram("query.filter_seconds").observe(stats.filter_seconds)
        registry.histogram("query.refine_seconds").observe(stats.refine_seconds)
        registry.histogram("query.total_seconds").observe(stats.total_seconds)

    # -- reference path ----------------------------------------------------------

    def query_scan(
        self, geometry, predicate: str = "contains", distance: float = 0.0
    ) -> np.ndarray:
        """Brute-force evaluation over every row (correctness oracle).

        Like every filtered path it first cuts at the closed envelope
        (grown by ``distance`` for ``dwithin``), so a point one ulp
        outside a rectangle is out even where an ulp is below the exact
        test's edge tolerance, and a NaN envelope selects nothing."""
        xs = np.asarray(self.table.column(self.x_column).values)
        ys = np.asarray(self.table.column(self.y_column).values)
        env = _filter_envelope(geometry, predicate, distance)
        mask = points_in_geometry(xs, ys, env) & points_satisfy(
            xs, ys, geometry, predicate, distance
        )
        return np.flatnonzero(mask).astype(np.int64)

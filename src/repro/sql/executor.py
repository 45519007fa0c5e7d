"""SQL sessions: register relations, then execute or explain statements.

A statement is parsed, planned once by :mod:`.plan` (bindings, join
strategy, which conjunct pushes down where), run by :mod:`.run` (the
filters and joins, as row ids) and projected by :mod:`.project`.
``EXPLAIN`` prints that same plan; ``EXPLAIN ANALYZE`` runs it and
prints the spans it recorded.
"""

from __future__ import annotations

import re
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.imprints import ImprintsManager
from ..core.query import SpatialSelect
from ..engine.table import Table
from ..obs.context import ObsContext, default_context
from ..obs.queries import query_scope
from ..obs.resources import ResourceUsage
from ..obs.slowlog import SlowQueryLog
from ..obs.timing import now
from ..obs.trace import format_tree, maybe_span
from . import ast
from .errors import SqlExecutionError
from .parser import parse
from .plan import Relation, plan_select, render_plan
from .project import Result, project
from .run import run

__all__ = ["Relation", "Result", "Session", "SqlExecutionError"]

#: ``EXPLAIN [ANALYZE] <select>`` prefix, handled before the SELECT parser.
_EXPLAIN_RE = re.compile(r"^\s*explain(\s+analyze)?\s+", re.IGNORECASE)


class Session:
    """A SQL session over registered relations.

    Parameters
    ----------
    manager:
        Shared imprints manager for point tables (created when omitted).
    obs:
        The observability context queries run under (tracer, metrics,
        query registry); the process default when omitted, so existing
        callers keep the singleton behaviour.
    """

    def __init__(
        self,
        manager: Optional[ImprintsManager] = None,
        obs: Optional[ObsContext] = None,
    ) -> None:
        self.manager = manager if manager is not None else ImprintsManager()
        self.obs = obs if obs is not None else default_context()
        self._relations: Dict[str, Relation] = {}
        #: Per-phase wall-clock seconds of the most recent execute() —
        #: the demo's "execution time spent in each operator" view.
        self.last_profile: Dict[str, float] = {}
        #: Resource attribution (CPU, allocations, data touched) of the
        #: most recent execute(); None before the first query.
        self.last_resources: Optional[ResourceUsage] = None
        #: Registry identity of the most recent execute() (None before
        #: the first query and after EXPLAIN, which is not tracked).
        self.last_query_id: Optional[str] = None
        #: The owning database's slow-query log, set by whoever builds
        #: or checks out the session; ``None`` logs nothing.
        self.slow_log: Optional[SlowQueryLog] = None

    # -- registration ---------------------------------------------------------------

    def register_table(
        self,
        table: Table,
        point_columns: Optional[Tuple[str, str]] = ("x", "y"),
    ) -> Relation:
        """Register an engine flat table.

        With ``point_columns`` the relation gets a :class:`SpatialSelect`
        and spatial WHERE conjuncts on those columns use the imprints
        pipeline.
        """
        columns = {
            name: np.asarray(table.column(name).values)
            for name in table.column_names
        }
        spatial = None
        if point_columns is not None:
            x_col, y_col = point_columns
            if x_col in table and y_col in table:
                spatial = SpatialSelect(
                    table,
                    x_column=x_col,
                    y_column=y_col,
                    manager=self.manager,
                )
        relation = Relation(
            name=table.name,
            columns=columns,
            spatial=spatial,
            table=table,
            manager=self.manager,
        )
        self._relations[table.name] = relation
        return relation

    def register_columns(self, name: str, columns: Dict[str, Sequence]) -> Relation:
        """Register an ad-hoc relation (object columns allowed: strings,
        geometries)."""
        arrays: Dict[str, np.ndarray] = {}
        for col_name, values in columns.items():
            arr = np.asarray(values)
            if arr.dtype.kind in "OU":
                arr = np.empty(len(values), dtype=object)
                arr[:] = list(values)
            arrays[col_name] = arr
        relation = Relation(name=name, columns=arrays)
        self._relations[name] = relation
        return relation

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SqlExecutionError(f"unknown table {name!r}") from None

    # -- execution ---------------------------------------------------------------------

    def execute(self, sql: str, timeout_s: Optional[float] = None) -> Result:
        """Parse and run one SELECT statement.

        ``EXPLAIN <select>`` returns the plan text as a one-column result;
        ``EXPLAIN ANALYZE <select>`` runs the query under the tracer and
        returns the per-operator span tree (timings + cardinalities).

        ``last_profile`` afterwards holds per-phase seconds:
        ``parse``, ``join_filter`` (planning, scans, index probes, joins),
        ``project`` (projection/aggregation/order/limit) and ``total``.

        ``timeout_s`` arms a cooperative deadline checked at segment
        boundaries; exceeding it raises
        :class:`~repro.obs.queries.QueryCancelled` (a spatial sub-query
        inherits the tighter of its own and this deadline).
        """
        prefix = _EXPLAIN_RE.match(sql)
        if prefix is not None:
            body = sql[prefix.end():]
            text = (
                self.explain_analyze(body)
                if prefix.group(1)
                else self.explain(body)
            )
            return Result(
                columns=["plan"], rows=[(line,) for line in text.splitlines()]
            )

        with self.obs.activate(), query_scope(
            "sql", "sql.query", {"sql": sql.strip()}, timeout_s, self.slow_log
        ) as active:
            t0 = now()
            active.set_phase("parse")
            with maybe_span("sql.parse"):
                select = parse(sql)
            t1 = now()
            active.set_phase("execute")
            result, t_join = self._run_profiled(select)
            t2 = now()
            self.last_profile = {
                "parse": t1 - t0,
                "join_filter": t_join,
                "project": (t2 - t1) - t_join,
                "total": t2 - t0,
            }
            active.span.set(rows_out=len(result.rows))
            if active.slow_record is not None:
                active.slow_record.update(
                    rows=len(result.rows), profile=dict(self.last_profile)
                )
        self.last_resources = active.tracker.usage
        self.last_query_id = active.query_id
        registry = self.obs.registry
        registry.counter("sql.queries").inc()
        registry.histogram("sql.seconds").observe(t2 - t0)
        return result

    def _run_profiled(self, select: ast.Select):
        t0 = now()
        plan = plan_select(select, self.relation)
        frame = run(plan)
        t_join = now() - t0
        return project(plan, frame), t_join

    def explain(self, sql: str) -> str:
        """The plan ``execute`` runs for this statement, as text (the demo
        lets users "see the plans of the queries", Section 4.2).

        Shows the join strategy, which conjuncts push down through which
        index (spatial pipeline / column imprint / packed segments), and
        what remains as residual vectorised filters.  Planning refreshes
        the relations and rejects what ``execute`` rejects before running
        (unknown tables, duplicate bindings); nothing runs.
        """
        return render_plan(plan_select(parse(sql), self.relation))

    def explain_analyze(self, sql: str) -> str:
        """Run the query under the tracer and render the operator tree.

        Each line is one span: operator name, wall-clock milliseconds and
        the attributes the operator recorded (rows in/out, segments
        skipped/probed, ...).  Works whether or not tracing is enabled
        globally — the capture records while it is open, and holds only
        the spans of this thread's statement.
        """
        with self.obs.tracer.capture() as spans:
            result = self.execute(sql)
        tree = format_tree(spans)
        footer = ""
        usage = self.last_resources
        if usage is not None:
            footer = (
                f"cpu: {usage.cpu_seconds * 1e3:.3f} ms"
                f"; touched: {usage.rows_touched} rows"
                f" / {usage.bytes_touched} bytes"
            )
            if usage.peak_alloc_bytes is not None:
                footer += f"; peak alloc: {usage.peak_alloc_bytes} bytes"
            footer += "\n"
        footer += f"rows returned: {len(result.rows)}"
        return tree + ("\n" if tree else "") + footer

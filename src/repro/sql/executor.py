"""Query execution: vectorised evaluation with an imprints fast path.

The executor mirrors the paper's architecture instead of being a toy
interpreter:

* **Spatial predicate push-down** — a WHERE conjunct of the form
  ``ST_Contains(<const geometry>, ST_Point(t.x, t.y))`` (or
  ``ST_DWithin(..., d)`` / ``ST_Intersects``) against a relation that was
  registered as a point table is routed through
  :class:`repro.core.query.SpatialSelect` — i.e. through the column
  imprints filter and grid refinement.  Everything else evaluates as
  vectorised numpy expressions.
* **Late materialisation** — filters and joins produce row ids, not
  values: a :class:`_Frame` holds one row-index array per binding,
  gathers a column the first time an expression names it and memoises
  it, and derived frames (residual filter, join output, group order)
  compose index arrays.  Aggregates run on
  :mod:`repro.engine.aggregate`'s group-by kernels.
* **Joins** — two relations joined on column equality hash-join;
  otherwise the smaller relations iterate as outer loops and probe the
  point table per outer row, which is exactly how the Scenario-2 queries
  ("LIDAR points near a fast transit road") want to run: one
  imprints-backed spatial probe per zone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.imprints import ImprintsManager
from ..core.query import SpatialSelect
from ..engine.aggregate import group_reduce, grouping
from ..engine.column import Column
from ..engine.join import hash_join
from ..engine.select import range_select as engine_range_select
from ..engine.table import Table
from ..gis.geometry import Geometry
from ..obs.context import ObsContext, default_context
from ..obs.queries import get_queries
from ..obs.resources import ResourceTracker, ResourceUsage
from ..obs.timing import now
from ..obs.trace import format_tree, maybe_span
from . import ast
from .functions import AGGREGATES, call
from .parser import parse

#: ``EXPLAIN [ANALYZE] <select>`` prefix, handled before the SELECT parser.
_EXPLAIN_RE = re.compile(r"^\s*explain(\s+analyze)?\s+", re.IGNORECASE)


class SqlExecutionError(ValueError):
    """Raised on semantic errors: unknown tables/columns, bad aggregates."""


@dataclass
class Relation:
    """A queryable relation: named columns plus optional index access.

    ``spatial`` enables the two-step pipeline for spatial conjuncts;
    ``table``/``manager`` enable imprints on *any* column for plain range
    conjuncts (MonetDB builds imprints for whatever column a range query
    first touches, not just coordinates).
    """

    name: str
    columns: Dict[str, np.ndarray]
    spatial: Optional[SpatialSelect] = None
    table: Optional[Table] = None
    manager: Optional[ImprintsManager] = None

    def __post_init__(self) -> None:
        lengths = {arr.shape[0] for arr in self.columns.values()}
        if len(lengths) > 1:
            raise SqlExecutionError(
                f"relation {self.name!r} has ragged columns {sorted(lengths)}"
            )
        self.n_rows = lengths.pop() if lengths else 0

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise SqlExecutionError(
                f"relation {self.name!r} has no column {name!r}"
            ) from None

    def refresh(self) -> None:
        """Re-snapshot from the backing table if it grew since
        registration (keeps long-lived sessions append-consistent)."""
        if self.table is None or len(self.table) == self.n_rows:
            return
        self.columns = {
            name: np.asarray(self.table.column(name).values)
            for name in self.table.column_names
        }
        self.n_rows = len(self.table)


@dataclass
class Result:
    """A query result: column names and row tuples."""

    columns: List[str]
    rows: List[tuple]

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(f"result has no column {name!r}") from None
        return [row[idx] for row in self.rows]

    def scalar(self):
        """The single value of a 1x1 result (aggregates)."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise SqlExecutionError(
                f"scalar() needs a 1x1 result, have "
                f"{len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]


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
                    threads=self.manager.threads,
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
            if arr.dtype.kind in "OU" or (
                arr.dtype == object
            ):
                out = np.empty(len(values), dtype=object)
                out[:] = list(values)
                arr = out
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
        ``parse``, ``join_filter`` (scans, index probes, joins),
        ``project`` (projection/aggregation/order/limit) and ``total``.

        ``timeout_s`` arms a cooperative deadline checked at morsel and
        segment boundaries; exceeding it raises
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

        # The tracker nests inside any caller's tracker (the spatial
        # sub-query's own tracker nests inside this one in turn), so the
        # SQL statement's attribution includes its index probes.
        tracker = ResourceTracker()
        with self.obs.activate(), get_queries().track(
            "sql",
            detail={"sql": sql.strip()},
            timeout_s=timeout_s,
            tracker=tracker,
        ) as active, tracker, maybe_span(
            "sql.query", sql=sql.strip()
        ) as query_span:
            query_span.set(query_id=active.query_id)
            trace_id = getattr(query_span, "trace_id", 0)
            if trace_id:
                active.set_trace(int(trace_id))
            t0 = now()
            active.set_phase("parse")
            with maybe_span("sql.parse"):
                select = parse(sql)
            t1 = now()
            active.set_phase("execute")
            result, t_join = self._run_profiled(select)
            t2 = now()
            query_span.set(rows_out=len(result.rows))
        self.last_resources = tracker.usage
        self.last_query_id = active.query_id
        self.last_profile = {
            "parse": t1 - t0,
            "join_filter": t_join,
            "project": (t2 - t1) - t_join,
            "total": t2 - t0,
        }
        registry = self.obs.registry
        registry.counter("sql.queries").inc()
        registry.histogram("sql.seconds").observe(t2 - t0)
        return result

    def _run_profiled(self, select: ast.Select):
        refs, conjuncts = _tables_and_conjuncts(select)
        bindings = []
        seen = set()
        for ref in refs:
            if ref.binding in seen:
                raise SqlExecutionError(
                    f"duplicate table binding {ref.binding!r}"
                )
            seen.add(ref.binding)
            relation = self.relation(ref.name)
            relation.refresh()
            bindings.append((ref.binding, relation))

        t0 = now()
        frame = _join(bindings, conjuncts)
        t_join = now() - t0
        return _project(select, frame), t_join

    def explain(self, sql: str) -> str:
        """The query plan as text (the demo lets users "see the plans of
        the queries", Section 4.2).

        Shows the join strategy, which conjuncts push down through which
        index (spatial pipeline / column imprint), and what remains as
        residual vectorised filters.
        """
        select = parse(sql)
        refs, conjuncts = _tables_and_conjuncts(select)
        bindings = [(ref.binding, self.relation(ref.name)) for ref in refs]
        return _explain_plan(select, bindings, conjuncts)

    def explain_analyze(self, sql: str) -> str:
        """Run the query under the tracer and render the operator tree.

        Each line is one span: operator name, wall-clock milliseconds and
        the attributes the operator recorded (rows in/out, segments
        skipped/probed, ...).  Works whether or not tracing is enabled
        globally — the capture context force-enables it for this query.
        """
        tracer = self.obs.tracer
        with tracer.capture() as spans:
            result = self.execute(sql)
        roots = [s for s in spans if s.name == "sql.query"]
        if roots:
            trace_id = roots[-1].trace_id
            spans = [s for s in spans if s.trace_id == trace_id]
        tree = format_tree(spans)
        footer = ""
        usage = self.last_resources
        if usage is not None:
            footer = (
                f"cpu: {usage.cpu_seconds * 1e3:.3f} ms"
                f" (workers {usage.worker_cpu_seconds * 1e3:.3f} ms)"
                f"; touched: {usage.rows_touched} rows"
                f" / {usage.bytes_touched} bytes"
            )
            if usage.peak_alloc_bytes is not None:
                footer += f"; peak alloc: {usage.peak_alloc_bytes} bytes"
            footer += "\n"
        footer += f"rows returned: {len(result.rows)}"
        return tree + ("\n" if tree else "") + footer


# -- the evaluation frame -----------------------------------------------------------


#: One binding of a frame: the relation's columns and the rows taken
#: from them (``None`` = every row, in order).
_Source = Tuple[Mapping[str, np.ndarray], Optional[np.ndarray]]


class _Frame:
    """Late-materialised rows, addressable as ``binding.column`` or bare name.

    Each binding keeps its relation's column mapping plus one ``int64``
    row-index array; a column is gathered the first time an expression
    names it and memoised.  ``outer`` is the ``(frame, row)`` of an
    enclosing nested-loop iteration, whose columns read as scalars.
    """

    def __init__(
        self,
        sources: Dict[str, _Source],
        n_rows: int,
        outer: Optional[Tuple["_Frame", int]] = None,
    ) -> None:
        self.sources = sources
        self.n_rows = n_rows
        self.outer = outer
        self._values: Dict[Tuple[str, str], np.ndarray] = {}
        #: Rows of the frame this one was taken from, whose gathered
        #: columns are re-used instead of going back to the relation.
        self._parent: Optional[Tuple["_Frame", np.ndarray]] = None
        #: Columns gathered from the relations, shared with derived frames.
        self.gathered: List[str] = []

    def take(self, rows: np.ndarray) -> "_Frame":
        """The frame of these row positions: index arrays compose."""
        sources: Dict[str, _Source] = {
            binding: (columns, rows if idx is None else idx[rows])
            for binding, (columns, idx) in self.sources.items()
        }
        taken = _Frame(sources, int(rows.shape[0]), self.outer)
        taken._parent = (self, rows)
        taken.gathered = self.gathered
        return taken

    def lookup(self, ref: ast.ColumnRef) -> Any:
        owners = [
            binding
            for binding, (columns, _idx) in self.sources.items()
            if ref.table in (None, binding) and ref.name in columns
        ]
        if len(owners) > 1:
            raise SqlExecutionError(f"ambiguous column {ref.name!r}")
        if not owners:
            if self.outer is None:
                raise SqlExecutionError(f"unknown column {ref.qualified!r}")
            frame, row = self.outer
            return frame.lookup(ref)[row]
        return self.column(owners[0], ref.name)

    def column(self, binding: str, name: str) -> np.ndarray:
        """``binding.name`` at this frame's rows, gathered once."""
        key = (binding, name)
        if key not in self._values:
            if self._parent is not None and key in self._parent[0]._values:
                self._values[key] = self._parent[0]._values[key][self._parent[1]]
            else:
                label = name if len(self.sources) == 1 else f"{binding}.{name}"
                self.gathered.append(label)
                columns, idx = self.sources[binding]
                arr = columns[name]
                self._values[key] = arr if idx is None else arr[idx]
        return self._values[key]


def _evaluate(node: ast.Node, frame: _Frame):
    """Evaluate an expression to a scalar or an array of frame length."""
    if isinstance(node, ast.Literal):
        return node.value
    if isinstance(node, ast.ColumnRef):
        return frame.lookup(node)
    if isinstance(node, ast.UnaryOp):
        return _apply_unaryop(node.op, _evaluate(node.operand, frame))
    if isinstance(node, ast.BinOp):
        return _apply_binop(
            node.op, _evaluate(node.left, frame), _evaluate(node.right, frame)
        )
    if isinstance(node, ast.Between):
        value = _evaluate(node.expr, frame)
        low = _evaluate(node.low, frame)
        high = _evaluate(node.high, frame)
        result = (value >= low) & (value <= high)
        return ~result if node.negated else result
    if isinstance(node, ast.InList):
        value = _evaluate(node.expr, frame)
        options = [_evaluate(opt, frame) for opt in node.options]
        if isinstance(value, np.ndarray):
            result = np.zeros(value.shape[0], dtype=bool)
            for opt in options:
                result |= value == opt
            return ~result if node.negated else result
        result = any(value == opt for opt in options)
        return (not result) if node.negated else result
    if isinstance(node, ast.FuncCall):
        if node.name in AGGREGATES:
            raise SqlExecutionError(
                f"aggregate {node.name}() is not allowed here"
            )
        args = [_evaluate(arg, frame) for arg in node.args]
        return call(node.name, args)
    if isinstance(node, ast.Star):
        raise SqlExecutionError("* is only valid as a select item or in count(*)")
    raise SqlExecutionError(f"cannot evaluate {type(node).__name__}")


def _apply_unaryop(op: str, value: Any):
    if op == "-":
        return -value
    if op == "not":
        return ~_as_bool(value) if isinstance(value, np.ndarray) else not value
    raise SqlExecutionError(f"unknown unary op {op!r}")


def _apply_binop(op: str, left: Any, right: Any):
    if op == "and":
        return _as_bool(left) & _as_bool(right)
    if op == "or":
        return _as_bool(left) | _as_bool(right)
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left / right
    if op == "%":
        return left % right
    raise SqlExecutionError(f"unknown operator {op!r}")


def _as_bool(value):
    if isinstance(value, np.ndarray):
        return value.astype(bool)
    return bool(value)


def _conjunct_mask(conjuncts: List[ast.Node], frame: _Frame) -> np.ndarray:
    """Which of the frame's rows satisfy every conjunct."""
    mask = np.ones(frame.n_rows, dtype=bool)
    for conjunct in conjuncts:
        mask &= _as_bool(_evaluate(conjunct, frame))
    return mask


# -- spatial push-down ----------------------------------------------------------------


_SPATIAL_FUNCS = {"st_contains", "st_within", "st_intersects", "st_dwithin"}


def _conjuncts_of(node: Optional[ast.Node]) -> List[ast.Node]:
    if node is None:
        return []
    if isinstance(node, ast.BinOp) and node.op == "and":
        return _conjuncts_of(node.left) + _conjuncts_of(node.right)
    return [node]


def _tables_and_conjuncts(
    select: ast.Select,
) -> Tuple[List[ast.TableRef], List[ast.Node]]:
    """FROM and JOIN tables, and the ON and WHERE conditions as conjuncts."""
    refs = list(select.tables)
    conjuncts: List[ast.Node] = []
    for table_ref, condition in select.joins:
        refs.append(table_ref)
        conjuncts.extend(_conjuncts_of(condition))
    return refs, conjuncts + _conjuncts_of(select.where)


def _refs_binding(node: ast.Node, binding: str, bare_ok: set) -> bool:
    """Does the expression reference columns of the given binding?"""
    for ref in ast.column_refs(node):
        if ref.table == binding:
            return True
        if ref.table is None and ref.name in bare_ok:
            return True
    return False


def _match_spatial(
    conjunct: ast.Node, binding: str, relation: Relation
) -> Optional[Tuple[ast.Node, str, Optional[ast.Node]]]:
    """Recognise a pushable spatial conjunct against the point relation.

    Returns ``(geometry_expr, predicate, distance_expr)`` when the
    conjunct is ``ST_Contains(G, ST_Point(x, y))`` (or within/intersects/
    dwithin variants) with G free of this relation's columns and (x, y)
    the relation's registered point columns.
    """
    if relation.spatial is None or not isinstance(conjunct, ast.FuncCall):
        return None
    name = conjunct.name
    if name not in _SPATIAL_FUNCS:
        return None
    args = list(conjunct.args)
    distance = None
    if name == "st_dwithin":
        if len(args) != 3:
            return None
        distance = args.pop()
    elif len(args) != 2:
        return None

    x_col = relation.spatial.x_column
    y_col = relation.spatial.y_column

    def is_point_of_relation(node: ast.Node) -> bool:
        if not (isinstance(node, ast.FuncCall) and node.name in ("st_point", "st_makepoint")):
            return False
        if len(node.args) != 2:
            return False
        ax, ay = node.args
        return (
            isinstance(ax, ast.ColumnRef)
            and isinstance(ay, ast.ColumnRef)
            and ax.name == x_col
            and ay.name == y_col
            and (ax.table in (None, binding))
            and (ay.table in (None, binding))
        )

    bare = set(relation.columns)
    for i, arg in enumerate(args):
        other = args[1 - i]
        if is_point_of_relation(arg) and not _refs_binding(other, binding, bare):
            if distance is not None and _refs_binding(distance, binding, bare):
                return None
            predicate = "dwithin" if name == "st_dwithin" else "contains"
            if name == "st_within" and i == 1:
                # ST_Within(G, point): the point must contain G -> not pushable.
                return None
            if name == "st_contains" and i == 0:
                # ST_Contains(point, G): only true for point == G -> skip.
                return None
            return other, predicate, distance
    return None


_RANGE_OPS = {"<", "<=", ">", ">=", "="}


def _match_range(
    conjunct: ast.Node, binding: str, relation: Relation
) -> Optional[Tuple[str, ast.Node, ast.Node, bool, bool]]:
    """Recognise an imprint-pushable range conjunct on this relation.

    Returns ``(column, lo_expr, hi_expr, lo_inclusive, hi_inclusive)``
    (either bound may be None) for patterns like ``t.z > c``,
    ``c >= t.z``, ``t.z = c`` and ``t.z BETWEEN a AND b``.  Pushable
    means the relation can serve the range from an index-shaped access
    path: an imprints manager, or a compressed execution mirror whose
    packed segments the select kernels scan directly.
    """
    if relation.table is None:
        return None

    def own_column(node: ast.Node) -> Optional[str]:
        if not isinstance(node, ast.ColumnRef):
            return None
        if node.table not in (None, binding):
            return None
        # Both access paths live on the table's (always numeric) columns.
        if node.name not in relation.columns or node.name not in relation.table:
            return None
        if (
            relation.manager is None
            and relation.table.column(node.name).packed is None
        ):
            return None
        return node.name

    bare = set(relation.columns)
    if isinstance(conjunct, ast.Between) and not conjunct.negated:
        name = own_column(conjunct.expr)
        if name is None:
            return None
        if _refs_binding(conjunct.low, binding, bare) or _refs_binding(
            conjunct.high, binding, bare
        ):
            return None
        return (name, conjunct.low, conjunct.high, True, True)
    if isinstance(conjunct, ast.BinOp) and conjunct.op in _RANGE_OPS:
        for col_side, const_side, flip in (
            (conjunct.left, conjunct.right, False),
            (conjunct.right, conjunct.left, True),
        ):
            name = own_column(col_side)
            if name is None or _refs_binding(const_side, binding, bare):
                continue
            op = conjunct.op
            if flip:  # c OP column  ->  column OP' c
                op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}[op]
            if op == "=":
                return (name, const_side, const_side, True, True)
            if op in ("<", "<="):
                return (name, None, const_side, True, op == "<=")
            return (name, const_side, None, op == ">=", True)
    return None


class _ProbeStats:
    """Zone-map accounting sink for a SQL-pushed imprint probe."""

    __slots__ = ("n_segments_skipped", "n_segments_probed", "imprint_build_seconds")

    def __init__(self) -> None:
        self.n_segments_skipped = 0
        self.n_segments_probed = 0
        self.imprint_build_seconds = 0.0


def _range_via_packed(relation: Relation, name: str) -> bool:
    """Serve a pushed range from the column's packed segments?

    A *built* imprint still wins (bit-level filtering beats zone maps on
    straddling segments); otherwise an existing compressed mirror is
    used as-is instead of paying a lazy imprint build — its encode-time
    zone maps already prune segments, and the packed kernels evaluate
    the rest without decoding.
    """
    if relation.table is None or name not in relation.table:
        return False
    if relation.table.column(name).packed is None:
        return False
    if relation.manager is None:
        return True
    return relation.manager.get(relation.table, name) is None


def _filter_relation(
    binding: str,
    relation: Relation,
    conjuncts: List[ast.Node],
    outer: Optional[Tuple[_Frame, int]] = None,
) -> np.ndarray:
    """Row indices of ``relation`` satisfying the conjuncts.

    Spatial conjuncts route through the imprints pipeline; the rest
    evaluate vectorised over the surviving candidates.  ``outer`` is the
    enclosing join loop's current row, read as scalars.
    """
    with maybe_span(
        "scan", table=relation.name, binding=binding, rows_in=relation.n_rows
    ) as scan_span:
        result = _filter_relation_inner(binding, relation, conjuncts, outer)
        scan_span.set(rows_out=int(result.shape[0]))
    return result


def _filter_relation_inner(
    binding: str,
    relation: Relation,
    conjuncts: List[ast.Node],
    outer: Optional[Tuple[_Frame, int]],
) -> np.ndarray:
    scalar_frame = _Frame({}, 0, outer)
    candidates: Optional[np.ndarray] = None
    residual: List[ast.Node] = []

    for conjunct in conjuncts:
        matched = _match_spatial(conjunct, binding, relation)
        if matched is None:
            residual.append(conjunct)
            continue
        geom_expr, predicate, distance_expr = matched
        geometry = _evaluate(geom_expr, scalar_frame)
        if not isinstance(geometry, Geometry):
            raise SqlExecutionError(
                "spatial predicate needs a geometry argument"
            )
        distance = (
            float(_evaluate(distance_expr, scalar_frame))
            if distance_expr is not None
            else 0.0
        )
        with maybe_span(
            "filter.spatial",
            predicate=predicate,
            expr=_describe_expr(conjunct),
        ) as spatial_span:
            query_result = relation.spatial.query(geometry, predicate, distance)
            oids = query_result.oids
            spatial_span.set(
                rows_out=int(oids.shape[0]),
                segments_skipped=query_result.stats.n_segments_skipped,
                segments_probed=query_result.stats.n_segments_probed,
            )
        candidates = (
            oids
            if candidates is None
            else np.intersect1d(candidates, oids, assume_unique=True)
        )

    if candidates is None:
        # No spatial index hit: push one plain range conjunct through its
        # column's imprint (built lazily, exactly MonetDB's trigger).
        for position, conjunct in enumerate(residual):
            matched = _match_range(conjunct, binding, relation)
            if matched is None:
                continue
            name, lo_expr, hi_expr, lo_inc, hi_inc = matched
            lo = (
                _evaluate(lo_expr, scalar_frame) if lo_expr is not None else None
            )
            hi = (
                _evaluate(hi_expr, scalar_frame) if hi_expr is not None else None
            )
            with maybe_span(
                "filter.range", column=name, expr=_describe_expr(conjunct)
            ) as range_span:
                if _range_via_packed(relation, name):
                    candidates = engine_range_select(
                        relation.table.column(name), lo, hi, lo_inc, hi_inc
                    )
                    range_span.set(
                        rows_out=int(candidates.shape[0]), access="packed"
                    )
                else:
                    probe_stats = _ProbeStats()
                    candidates = relation.manager.range_select(
                        relation.table,
                        name,
                        lo,
                        hi,
                        lo_inc,
                        hi_inc,
                        stats=probe_stats,
                    )
                    range_span.set(
                        rows_out=int(candidates.shape[0]),
                        segments_skipped=probe_stats.n_segments_skipped,
                        segments_probed=probe_stats.n_segments_probed,
                    )
            del residual[position]
            break

    if candidates is None and not residual:
        return np.arange(relation.n_rows, dtype=np.int64)
    if candidates is not None and (not residual or candidates.shape[0] == 0):
        return candidates

    with maybe_span("filter.residual", conjuncts=len(residual)) as residual_span:
        # Only the columns the conjuncts name are read, at the candidates
        # (the whole column, ungathered, when no index narrowed them).
        rows_in = relation.n_rows if candidates is None else candidates.shape[0]
        frame = _Frame({binding: (relation.columns, candidates)}, rows_in, outer)
        mask = _conjunct_mask(residual, frame)
        result = np.flatnonzero(mask) if candidates is None else candidates[mask]
        residual_span.set(
            rows_in=int(rows_in),
            rows_out=int(result.shape[0]),
            columns=",".join(frame.gathered),
        )
    return result


# -- joins -----------------------------------------------------------------------------


def _applicable(conjunct: ast.Node, available: set, bindings_bare: Dict[str, set]) -> bool:
    """Can the conjunct be evaluated once ``available`` bindings are bound?"""
    for ref in ast.column_refs(conjunct):
        if ref.table is not None:
            if ref.table not in available:
                return False
        else:
            owners = {
                b for b, cols in bindings_bare.items() if ref.name in cols
            }
            if not owners <= available:
                return False
    return True


def _match_equi_join(
    conjunct: ast.Node, binding_a: str, binding_b: str, bare: Dict[str, set]
) -> Optional[Tuple[str, str]]:
    """Recognise ``a.col = b.col`` between exactly the two bindings.

    Returns the (a_column, b_column) pair or None.
    """
    if not (isinstance(conjunct, ast.BinOp) and conjunct.op == "="):
        return None
    left, right = conjunct.left, conjunct.right
    if not (isinstance(left, ast.ColumnRef) and isinstance(right, ast.ColumnRef)):
        return None

    def owner(ref: ast.ColumnRef) -> Optional[str]:
        if ref.table is not None:
            return ref.table if ref.table in (binding_a, binding_b) else None
        holders = [b for b in (binding_a, binding_b) if ref.name in bare[b]]
        return holders[0] if len(holders) == 1 else None

    owner_left, owner_right = owner(left), owner(right)
    if owner_left == binding_a and owner_right == binding_b:
        return (left.name, right.name)
    if owner_left == binding_b and owner_right == binding_a:
        return (right.name, left.name)
    return None


def _hash_equi_join(
    bindings: List[Tuple[str, Relation]],
    conjuncts: List[ast.Node],
    key_cols: Tuple[str, str],
    equi_conjunct: ast.Node,
    bindings_bare: Dict[str, set],
) -> _Frame:
    """Two-relation equality join via the engine's hash join."""
    (binding_a, rel_a), (binding_b, rel_b) = bindings
    col_a, col_b = key_cols

    with maybe_span(
        "join.hash",
        left=rel_a.name,
        right=rel_b.name,
        on=f"{binding_a}.{col_a} = {binding_b}.{col_b}",
    ) as join_span:
        remaining = [c for c in conjuncts if c is not equi_conjunct]
        own_a = [c for c in remaining if _applicable(c, {binding_a}, bindings_bare)]
        own_b = [c for c in remaining if _applicable(c, {binding_b}, bindings_bare)]
        residual = [c for c in remaining if c not in own_a and c not in own_b]
        idx_a = _filter_relation(binding_a, rel_a, own_a)
        idx_b = _filter_relation(binding_b, rel_b, own_b)
        left = Column.from_array("l", np.asarray(rel_a.columns[col_a]))
        right = Column.from_array("r", np.asarray(rel_b.columns[col_b]))
        pairs_a, pairs_b = hash_join(
            left, right, left_candidates=idx_a, right_candidates=idx_b
        )
        frame = _Frame(
            {binding_a: (rel_a.columns, pairs_a), binding_b: (rel_b.columns, pairs_b)},
            int(pairs_a.shape[0]),
        )
        if residual:
            frame = frame.take(np.flatnonzero(_conjunct_mask(residual, frame)))
        join_span.set(rows_out=frame.n_rows)
    return frame


def _join(
    bindings: List[Tuple[str, Relation]], conjuncts: List[ast.Node]
) -> _Frame:
    """The (filtered) join of the registered relations, as row ids.

    Two relations joined on plain column equality use the engine's hash
    join; otherwise the largest relation becomes the inner probe (it is
    the point table in every demo query) and the others iterate as outer
    loops with their own single-table filters applied first.
    """
    bindings_bare = {b: set(rel.columns) for b, rel in bindings}

    if len(bindings) == 2:
        binding_a, binding_b = bindings[0][0], bindings[1][0]
        for conjunct in conjuncts:
            key_cols = _match_equi_join(
                conjunct, binding_a, binding_b, bindings_bare
            )
            if key_cols is not None and not (
                bindings[0][1].columns[key_cols[0]].dtype == object
                or bindings[1][1].columns[key_cols[1]].dtype == object
            ):
                return _hash_equi_join(
                    bindings, conjuncts, key_cols, conjunct, bindings_bare
                )

    if len(bindings) == 1:
        binding, relation = bindings[0]
        idx = _filter_relation(binding, relation, conjuncts)
        return _Frame({binding: (relation.columns, idx)}, int(idx.shape[0]))

    # Multi-way: probe = largest relation; outers = the rest, in order.
    probe_pos = max(range(len(bindings)), key=lambda i: bindings[i][1].n_rows)
    probe_binding, probe_relation = bindings[probe_pos]
    outers = [b for i, b in enumerate(bindings) if i != probe_pos]

    with maybe_span(
        "join.nested_loop",
        probe=probe_relation.name,
        outers=len(outers),
    ) as join_span:
        # Per-outer single-table filters run once, before the loops.
        remaining = list(conjuncts)
        filtered: Dict[str, _Source] = {}
        for binding, relation in outers:
            own = [
                c
                for c in remaining
                if _applicable(c, {binding}, bindings_bare)
            ]
            remaining = [c for c in remaining if c not in own]
            filtered[binding] = (relation.columns, _filter_relation(binding, relation, own))

        # The loops' iterations, first outer slowest: one frame whose rows
        # are the combinations of the outers' surviving rows.
        combos = np.indices([idx.shape[0] for _, idx in filtered.values()])
        combos = combos.reshape(len(outers), -1)
        outer = _Frame(
            {
                binding: (columns, idx[positions])
                for (binding, (columns, idx)), positions in zip(filtered.items(), combos)
            },
            int(combos.shape[1]),
        )
        probes = [
            _filter_relation(probe_binding, probe_relation, remaining, (outer, row))
            for row in range(outer.n_rows)
        ]
        # Each iteration's outer row repeats once per probe hit.
        hits = np.repeat(np.arange(outer.n_rows), [idx.shape[0] for idx in probes])
        joined: Dict[str, _Source] = {
            binding: (columns, idx[hits])
            for binding, (columns, idx) in outer.sources.items()
        }
        joined[probe_binding] = (
            probe_relation.columns,
            np.concatenate(probes + [np.empty(0, dtype=np.int64)]),
        )
        frame = _Frame(joined, int(hits.shape[0]))
        join_span.set(rows_out=frame.n_rows)
    return frame


# -- projection and aggregation ------------------------------------------------------------


def _has_aggregate(node: ast.Node) -> bool:
    return any(
        isinstance(n, ast.FuncCall) and n.name in AGGREGATES
        for n in ast.walk(node)
    )


def _item_name(item: ast.SelectItem, position: int) -> str:
    if item.alias:
        return item.alias
    expr = item.expr
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FuncCall):
        return expr.name
    return f"col{position}"


def _project(select: ast.Select, frame: _Frame) -> Result:
    aggregate_query = bool(select.group_by) or any(
        _has_aggregate(item.expr) for item in select.items
    )
    if aggregate_query:
        with maybe_span("aggregate", rows_in=frame.n_rows) as span:
            result = _aggregate(select, frame)
            span.set(
                rows_out=len(result.rows),
                groups=len(select.group_by),
                columns=",".join(frame.gathered),
            )
    else:
        with maybe_span("project", rows_in=frame.n_rows) as span:
            if select.limit is not None and not (select.order_by or select.distinct):
                # Nothing reorders or drops rows: cut before gathering.
                frame = frame.take(np.arange(min(select.limit, frame.n_rows)))
            result = _plain_project(select, frame)
            span.set(rows_out=len(result.rows), columns=",".join(frame.gathered))

    if select.distinct:
        seen = set()
        deduped = []
        for row in result.rows:
            try:
                key = row
                hash(key)
            except TypeError:
                key = tuple(repr(v) for v in row)
            if key not in seen:
                seen.add(key)
                deduped.append(row)
        result = Result(columns=result.columns, rows=deduped)

    if select.order_by:
        indices: Sequence[int] = range(len(result.rows))
        for order_item in reversed(select.order_by):  # stable sorts, minor key first
            values = _evaluate_ordering(order_item.expr, result, frame)
            indices = sorted(
                indices, key=values.__getitem__, reverse=order_item.descending
            )
        result = Result(
            columns=result.columns, rows=[result.rows[i] for i in indices]
        )
    if select.limit is not None:
        result = Result(columns=result.columns, rows=result.rows[: select.limit])
    return result


def _column_as_array(values: list) -> np.ndarray:
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


def _evaluate_ordering(expr: ast.Node, result: Result, frame: _Frame) -> list:
    """ORDER BY resolves against output aliases first, then input columns."""
    if isinstance(expr, ast.ColumnRef) and expr.table is None:
        if expr.name in result.columns:
            return result.column(expr.name)
    if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
        # ORDER BY <position>
        position = expr.value - 1
        if not 0 <= position < len(result.columns):
            raise SqlExecutionError(f"ORDER BY position {expr.value} out of range")
        return [row[position] for row in result.rows]
    # Evaluate against the output columns; for plain projections (result
    # rows align 1:1 with input rows) fall back to the input frame so
    # ORDER BY may use columns that were not selected.
    outputs = {name: _column_as_array(result.column(name)) for name in result.columns}
    out_frame = _Frame({"": (outputs, None)}, len(result.rows))
    try:
        value = _evaluate(expr, out_frame)
    except SqlExecutionError:
        if frame.n_rows != len(result.rows):
            raise
        value = _evaluate(expr, frame)
    if not isinstance(value, np.ndarray):
        return [value] * len(result.rows)
    return value.tolist()


def _plain_project(select: ast.Select, frame: _Frame) -> Result:
    columns: List[str] = []
    values: List[Any] = []
    for position, item in enumerate(select.items):
        if isinstance(item.expr, ast.Star):
            for binding, (relation_columns, _idx) in frame.sources.items():
                for name in relation_columns:
                    columns.append(f"{binding}.{name}")
                    values.append(frame.column(binding, name))
            continue
        columns.append(_item_name(item, position))
        values.append(_evaluate(item.expr, frame))
    return Result(columns=columns, rows=_rows(values, frame.n_rows))


def _rows(values: List[Any], n_rows: int) -> List[tuple]:
    """Result rows from one array (or constant) per output column, built
    column-wise: ``tolist`` converts a numeric column in one call."""
    cells: List[list] = []
    for value in values:
        if not isinstance(value, np.ndarray):
            cells.append([_to_python(value)] * n_rows)
        elif value.dtype == object:
            cells.append([_to_python(cell) for cell in value])
        else:
            cells.append(value.tolist())
    return list(zip(*cells))


def _to_python(value):
    """Numpy scalars -> plain Python values in result rows."""
    if isinstance(value, np.generic):
        return value.item()
    return value


# -- EXPLAIN ---------------------------------------------------------------------


def _describe_expr(node: ast.Node) -> str:
    """Compact textual form of an expression for plan output."""
    if isinstance(node, ast.Literal):
        return repr(node.value)
    if isinstance(node, ast.ColumnRef):
        return node.qualified
    if isinstance(node, ast.Star):
        return "*"
    if isinstance(node, ast.FuncCall):
        return f"{node.name}({', '.join(_describe_expr(a) for a in node.args)})"
    if isinstance(node, ast.UnaryOp):
        return f"{node.op} {_describe_expr(node.operand)}"
    if isinstance(node, ast.BinOp):
        return (
            f"({_describe_expr(node.left)} {node.op} "
            f"{_describe_expr(node.right)})"
        )
    if isinstance(node, ast.Between):
        word = "not between" if node.negated else "between"
        return (
            f"({_describe_expr(node.expr)} {word} "
            f"{_describe_expr(node.low)} and {_describe_expr(node.high)})"
        )
    if isinstance(node, ast.InList):
        word = "not in" if node.negated else "in"
        inner = ", ".join(_describe_expr(o) for o in node.options)
        return f"({_describe_expr(node.expr)} {word} ({inner}))"
    return type(node).__name__


def _explain_relation_access(
    binding: str, relation: Relation, conjuncts: List[ast.Node]
) -> List[str]:
    """Plan lines for one relation's conjuncts (mirrors _filter_relation)."""
    lines = [f"access {relation.name} as {binding} ({relation.n_rows} rows)"]
    residual: List[ast.Node] = []
    spatial_seen = False
    for conjunct in conjuncts:
        matched = _match_spatial(conjunct, binding, relation)
        if matched is not None:
            _geom, predicate, _dist = matched
            lines.append(
                f"  spatial filter [{predicate}] via imprints + grid "
                f"refinement: {_describe_expr(conjunct)}"
            )
            spatial_seen = True
            continue
        residual.append(conjunct)
    if not spatial_seen:
        for conjunct in list(residual):
            matched = _match_range(conjunct, binding, relation)
            if matched is not None:
                column = matched[0]
                access = (
                    "packed segments"
                    if _range_via_packed(relation, column)
                    else "imprint"
                )
                lines.append(
                    f"  range filter via {access} on {column!r}: "
                    f"{_describe_expr(conjunct)}"
                )
                residual.remove(conjunct)
                break
    for conjunct in residual:
        lines.append(f"  residual scan filter: {_describe_expr(conjunct)}")
    return lines


def _explain_plan(
    select: ast.Select,
    bindings: List[Tuple[str, Relation]],
    conjuncts: List[ast.Node],
) -> str:
    bindings_bare = {b: set(rel.columns) for b, rel in bindings}
    lines: List[str] = []

    if len(bindings) == 1:
        binding, relation = bindings[0]
        lines.extend(_explain_relation_access(binding, relation, conjuncts))
    elif len(bindings) == 2 and any(
        _match_equi_join(c, bindings[0][0], bindings[1][0], bindings_bare)
        for c in conjuncts
    ):
        equi = next(
            c
            for c in conjuncts
            if _match_equi_join(c, bindings[0][0], bindings[1][0], bindings_bare)
        )
        lines.append(f"hash join on {_describe_expr(equi)}")
        rest = [c for c in conjuncts if c is not equi]
        for binding, relation in bindings:
            own = [c for c in rest if _applicable(c, {binding}, bindings_bare)]
            lines.extend(
                "  " + line
                for line in _explain_relation_access(binding, relation, own)
            )
    else:
        probe_pos = max(
            range(len(bindings)), key=lambda i: bindings[i][1].n_rows
        )
        probe_binding, probe_relation = bindings[probe_pos]
        rest = list(conjuncts)
        lines.append("nested-loop join")
        for i, (binding, relation) in enumerate(bindings):
            if i == probe_pos:
                continue
            own = [c for c in rest if _applicable(c, {binding}, bindings_bare)]
            rest = [c for c in rest if c not in own]
            lines.append(f"  outer loop over {relation.name} as {binding}:")
            lines.extend(
                "    " + line
                for line in _explain_relation_access(binding, relation, own)
            )
        lines.append(f"  inner probe per outer row:")
        lines.extend(
            "    " + line
            for line in _explain_relation_access(
                probe_binding, probe_relation, rest
            )
        )

    if select.group_by:
        keys = ", ".join(_describe_expr(e) for e in select.group_by)
        lines.append(f"group by {keys}")
        if select.having is not None:
            lines.append(f"having {_describe_expr(select.having)}")
    elif any(_has_aggregate(item.expr) for item in select.items):
        lines.append("aggregate (single group)")
    if select.distinct:
        lines.append("distinct")
    if select.order_by:
        keys = ", ".join(
            _describe_expr(o.expr) + (" desc" if o.descending else "")
            for o in select.order_by
        )
        lines.append(f"order by {keys}")
    if select.limit is not None:
        lines.append(f"limit {select.limit}")
    return "\n".join(lines)


def _aggregate(select: ast.Select, frame: _Frame) -> Result:
    """One row per group, groups in ascending key order.

    The groups are numbered with one sort of the key columns; every
    aggregate then reduces its argument, gathered in group order, on
    the engine's group-by kernels.
    """
    if select.group_by:
        keys = []
        for expr in select.group_by:
            value = _evaluate(expr, frame)
            if not isinstance(value, np.ndarray):
                raise SqlExecutionError("GROUP BY expression must reference columns")
            if value.dtype == object:  # rank strings so they sort like numbers
                value = np.unique(value, return_inverse=True)[1]
            keys.append(value)
        order, starts, sizes = grouping(keys)
        rows, firsts = frame.take(order), order[starts]
    else:  # one group, which may be empty
        rows, starts = frame, np.zeros(1, dtype=np.int64)
        sizes, firsts = np.array([frame.n_rows]), starts[: frame.n_rows]
    groups = _Groups(rows, frame.take(firsts), starts, sizes)

    values = [_eval_aggregate_expr(item.expr, groups) for item in select.items]
    n_groups = int(groups.starts.shape[0])
    if select.having is not None:
        keep = np.ones(n_groups, dtype=bool)
        keep &= _as_bool(_eval_aggregate_expr(select.having, groups))
        values = [v[keep] if isinstance(v, np.ndarray) else v for v in values]
        n_groups = int(keep.sum())
    columns = [
        _item_name(item, position) for position, item in enumerate(select.items)
    ]
    return Result(columns=columns, rows=_rows(values, n_groups))


@dataclass
class _Groups:
    """An aggregation's input: ``rows`` in group order (group ``g`` is rows
    ``starts[g] : starts[g] + sizes[g]``) and each group's first row."""

    rows: _Frame
    firsts: _Frame
    starts: np.ndarray
    sizes: np.ndarray


def _eval_aggregate_expr(node: ast.Node, groups: _Groups):
    """Evaluate a select expression in aggregate context, to one value
    per group (an array) or a constant: aggregate calls reduce each
    group, everything else must be group-constant.  None is the NULL of
    an aggregate over no rows, and propagates through operators."""
    if isinstance(node, ast.FuncCall) and node.name in AGGREGATES:
        return _apply_aggregate(node, groups)
    if isinstance(node, ast.BinOp):
        left = _eval_aggregate_expr(node.left, groups)
        right = _eval_aggregate_expr(node.right, groups)
        if left is None or right is None:
            return None
        return _apply_binop(node.op, left, right)
    if isinstance(node, ast.UnaryOp):
        inner = _eval_aggregate_expr(node.operand, groups)
        return None if inner is None else _apply_unaryop(node.op, inner)
    value = _evaluate(node, groups.firsts)
    if isinstance(value, np.ndarray) and value.shape[0] < groups.starts.shape[0]:
        return None  # the one empty group of a plain aggregate
    return value


def _apply_aggregate(node: ast.FuncCall, groups: _Groups):
    if len(node.args) != 1:
        raise SqlExecutionError(f"{node.name}() takes one argument")
    value: Any = None
    if not (node.name == "count" and isinstance(node.args[0], ast.Star)):
        value = _evaluate(node.args[0], groups.rows)
    if node.name != "count":
        if groups.rows.n_rows == 0:  # no groups, or a plain aggregate's empty one
            return None
        if not isinstance(value, np.ndarray):
            value = np.full(groups.rows.n_rows, value, dtype=np.float64)
    return group_reduce(node.name, value, groups.starts, groups.sizes)

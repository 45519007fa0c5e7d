"""Running a plan: filters and joins over late-materialised frames.

Filters and joins produce row ids, not values: a :class:`Frame` holds
one row-index array per binding, gathers a column the first time an
expression names it and memoises it, and derived frames (residual
filter, join output, group order) compose index arrays.  Every filter,
index probe and join runs under the span EXPLAIN ANALYZE renders.
"""

from __future__ import annotations

import operator
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.query import QueryStats
from ..engine.column import Column
from ..engine.join import hash_join
from ..engine.select import range_select
from ..gis.geometry import Geometry
from ..obs.trace import maybe_span
from . import ast
from .functions import AGGREGATES, call
from .plan import Access, Plan, RangeFilter, Relation, SqlExecutionError

#: One binding of a frame: the relation's columns and the rows taken
#: from them (``None`` = every row, in order).
Source = Tuple[Mapping[str, np.ndarray], Optional[np.ndarray]]


class Frame:
    """Late-materialised rows, addressable as ``binding.column`` or bare name.

    Each binding keeps its relation's column mapping plus one ``int64``
    row-index array; a column is gathered the first time an expression
    names it and memoised.  ``outer`` is the ``(frame, row)`` of an
    enclosing nested-loop iteration, whose columns read as scalars.
    """

    def __init__(
        self,
        sources: Dict[str, Source],
        n_rows: int,
        outer: Optional[Tuple["Frame", int]] = None,
    ) -> None:
        self.sources = sources
        self.n_rows = n_rows
        self.outer = outer
        self._values: Dict[Tuple[str, str], np.ndarray] = {}
        #: Rows of the frame this one was taken from, whose gathered
        #: columns are re-used instead of going back to the relation.
        self._parent: Optional[Tuple["Frame", np.ndarray]] = None
        #: Columns gathered from the relations, shared with derived frames.
        self.gathered: List[str] = []

    def take(self, rows: np.ndarray) -> "Frame":
        """The frame of these row positions: index arrays compose."""
        sources: Dict[str, Source] = {
            binding: (columns, rows if idx is None else idx[rows])
            for binding, (columns, idx) in self.sources.items()
        }
        taken = Frame(sources, int(rows.shape[0]), self.outer)
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


def evaluate(node: ast.Node, frame: Frame):
    """Evaluate an expression to a scalar or an array of frame length."""
    if isinstance(node, ast.Literal):
        return node.value
    if isinstance(node, ast.ColumnRef):
        return frame.lookup(node)
    if isinstance(node, ast.UnaryOp):
        return apply_unaryop(node.op, evaluate(node.operand, frame))
    if isinstance(node, ast.BinOp):
        return apply_binop(
            node.op, evaluate(node.left, frame), evaluate(node.right, frame)
        )
    if isinstance(node, ast.Between):
        value = evaluate(node.expr, frame)
        low = evaluate(node.low, frame)
        high = evaluate(node.high, frame)
        result = (value >= low) & (value <= high)
        return ~result if node.negated else result
    if isinstance(node, ast.InList):
        value = evaluate(node.expr, frame)
        options = [evaluate(opt, frame) for opt in node.options]
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
        args = [evaluate(arg, frame) for arg in node.args]
        return call(node.name, args)
    if isinstance(node, ast.Star):
        raise SqlExecutionError("* is only valid as a select item or in count(*)")
    raise SqlExecutionError(f"cannot evaluate {type(node).__name__}")


def apply_unaryop(op: str, value: Any):
    if op == "-":
        return -value
    if op == "not":
        return ~as_bool(value) if isinstance(value, np.ndarray) else not value
    raise SqlExecutionError(f"unknown unary op {op!r}")


_BINOPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
}


def apply_binop(op: str, left: Any, right: Any):
    if op == "and":
        return as_bool(left) & as_bool(right)
    if op == "or":
        return as_bool(left) | as_bool(right)
    if op not in _BINOPS:
        raise SqlExecutionError(f"unknown operator {op!r}")
    return _BINOPS[op](left, right)


def as_bool(value):
    if isinstance(value, np.ndarray):
        return value.astype(bool)
    return bool(value)


def _conjunct_mask(conjuncts: List[ast.Node], frame: Frame) -> np.ndarray:
    """Which of the frame's rows satisfy every conjunct."""
    mask = np.ones(frame.n_rows, dtype=bool)
    for conjunct in conjuncts:
        mask &= as_bool(evaluate(conjunct, frame))
    return mask


# -- filters ---------------------------------------------------------------------


def _filter(access: Access, outer: Optional[Tuple[Frame, int]] = None) -> np.ndarray:
    """Row indices of the access's relation satisfying its conjuncts.

    ``outer`` is the enclosing join loop's current row, read as scalars.
    """
    relation = access.relation
    with maybe_span(
        "scan", table=relation.name, binding=access.binding, rows_in=relation.n_rows
    ) as scan_span:
        result = _select_rows(access, outer)
        scan_span.set(rows_out=int(result.shape[0]))
    return result


def _select_rows(access: Access, outer: Optional[Tuple[Frame, int]]) -> np.ndarray:
    relation = access.relation
    scalars = Frame({}, 0, outer)
    candidates: Optional[np.ndarray] = None
    for spatial in access.spatial:
        geometry = evaluate(spatial.geometry, scalars)
        if not isinstance(geometry, Geometry):
            raise SqlExecutionError("spatial predicate needs a geometry argument")
        distance = (
            float(evaluate(spatial.distance, scalars))
            if spatial.distance is not None
            else 0.0
        )
        with maybe_span(
            "filter.spatial", predicate=spatial.predicate, expr=spatial.expr
        ) as spatial_span:
            query_result = relation.spatial.query(geometry, spatial.predicate, distance)
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
    if access.range is not None:
        candidates = _range_rows(relation, access.range, scalars)

    residual = access.residual
    if candidates is None and not residual:
        return np.arange(relation.n_rows, dtype=np.int64)
    if candidates is not None and (not residual or candidates.shape[0] == 0):
        return candidates

    with maybe_span("filter.residual", conjuncts=len(residual)) as residual_span:
        # Only the columns the conjuncts name are read, at the candidates
        # (the whole column, ungathered, when no index narrowed them).
        rows_in = relation.n_rows if candidates is None else candidates.shape[0]
        frame = Frame({access.binding: (relation.columns, candidates)}, rows_in, outer)
        mask = _conjunct_mask(residual, frame)
        result = np.flatnonzero(mask) if candidates is None else candidates[mask]
        residual_span.set(
            rows_in=int(rows_in),
            rows_out=int(result.shape[0]),
            columns=",".join(frame.gathered),
        )
    return result


def _range_rows(relation: Relation, pushed: RangeFilter, scalars: Frame) -> np.ndarray:
    """The pushed range through the packed segments or the imprint."""
    lo = evaluate(pushed.lo, scalars) if pushed.lo is not None else None
    hi = evaluate(pushed.hi, scalars) if pushed.hi is not None else None
    bounds = (lo, hi, pushed.lo_inclusive, pushed.hi_inclusive)
    with maybe_span(
        "filter.range", column=pushed.column, expr=pushed.expr
    ) as range_span:
        if pushed.packed:
            oids = range_select(relation.table.column(pushed.column), *bounds)
            range_span.set(rows_out=int(oids.shape[0]), access="packed")
        else:
            stats = QueryStats()
            oids = relation.manager.range_select(
                relation.table, pushed.column, *bounds, stats=stats
            )
            range_span.set(
                rows_out=int(oids.shape[0]),
                segments_skipped=stats.n_segments_skipped,
                segments_probed=stats.n_segments_probed,
            )
    return oids


# -- joins -----------------------------------------------------------------------


def run(plan: Plan) -> Frame:
    """The plan's filtered join of its relations, as row ids."""
    if plan.join == "scan":
        access = plan.accesses[0]
        idx = _filter(access)
        return Frame({access.binding: (access.relation.columns, idx)}, int(idx.shape[0]))
    if plan.join == "hash":
        return _hash_join(plan)
    return _nested_loop(plan)


def _hash_join(plan: Plan) -> Frame:
    """Two-relation equality join via the engine's hash join."""
    left, right = plan.accesses
    _, col_a, col_b = plan.key
    with maybe_span(
        "join.hash",
        left=left.relation.name,
        right=right.relation.name,
        on=f"{left.binding}.{col_a} = {right.binding}.{col_b}",
    ) as join_span:
        idx_a = _filter(left)
        idx_b = _filter(right)
        pairs_a, pairs_b = hash_join(
            Column.from_array("l", np.asarray(left.relation.columns[col_a])),
            Column.from_array("r", np.asarray(right.relation.columns[col_b])),
            left_candidates=idx_a,
            right_candidates=idx_b,
        )
        frame = Frame(
            {
                left.binding: (left.relation.columns, pairs_a),
                right.binding: (right.relation.columns, pairs_b),
            },
            int(pairs_a.shape[0]),
        )
        if plan.residual:
            frame = frame.take(np.flatnonzero(_conjunct_mask(plan.residual, frame)))
        join_span.set(rows_out=frame.n_rows)
    return frame


def _nested_loop(plan: Plan) -> Frame:
    """The outer relations' filtered rows, each combination probing the
    inner relation once."""
    *outers, probe = plan.accesses
    with maybe_span(
        "join.nested_loop", probe=probe.relation.name, outers=len(outers)
    ) as join_span:
        # Per-outer single-table filters run once, before the loops.
        filtered = [(access, _filter(access)) for access in outers]
        # The loops' iterations, first outer slowest: one frame whose rows
        # are the combinations of the outers' surviving rows.
        combos = np.indices([idx.shape[0] for _, idx in filtered])
        combos = combos.reshape(len(outers), -1)
        outer = Frame(
            {
                access.binding: (access.relation.columns, idx[positions])
                for (access, idx), positions in zip(filtered, combos)
            },
            int(combos.shape[1]),
        )
        probes = [_filter(probe, (outer, row)) for row in range(outer.n_rows)]
        # Each iteration's outer row repeats once per probe hit.
        hits = np.repeat(np.arange(outer.n_rows), [idx.shape[0] for idx in probes])
        joined: Dict[str, Source] = {
            binding: (columns, idx[hits])
            for binding, (columns, idx) in outer.sources.items()
        }
        joined[probe.binding] = (
            probe.relation.columns,
            np.concatenate(probes + [np.empty(0, dtype=np.int64)]),
        )
        frame = Frame(joined, int(hits.shape[0]))
        join_span.set(rows_out=frame.n_rows)
    return frame

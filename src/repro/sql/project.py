"""Projection and aggregation: a plan's joined frame to result rows.

Aggregates run on :mod:`repro.engine.aggregate`'s group-by kernels;
result rows are built column-wise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence

import numpy as np

from ..engine.aggregate import group_reduce, grouping
from ..obs.trace import maybe_span
from . import ast
from .errors import SqlExecutionError
from .expr import Frame, apply_binop, apply_unaryop, as_bool, evaluate
from .functions import AGGREGATES
from .plan import Plan


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


def project(plan: Plan, frame: Frame) -> Result:
    """The SELECT list, DISTINCT, ORDER BY and LIMIT over the frame."""
    select = plan.select
    if plan.aggregate:
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


def _item_name(item: ast.SelectItem, position: int) -> str:
    if item.alias:
        return item.alias
    expr = item.expr
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FuncCall):
        return expr.name
    return f"col{position}"


def _column_as_array(values: list) -> np.ndarray:
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


def _evaluate_ordering(expr: ast.Node, result: Result, frame: Frame) -> list:
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
    out_frame = Frame({"": (outputs, None)}, len(result.rows))
    try:
        value = evaluate(expr, out_frame)
    except SqlExecutionError:
        if frame.n_rows != len(result.rows):
            raise
        value = evaluate(expr, frame)
    if not isinstance(value, np.ndarray):
        return [value] * len(result.rows)
    return value.tolist()


def _plain_project(select: ast.Select, frame: Frame) -> Result:
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
        values.append(evaluate(item.expr, frame))
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


# -- aggregation -----------------------------------------------------------------


def _aggregate(select: ast.Select, frame: Frame) -> Result:
    """One row per group, groups in ascending key order.

    The groups are numbered with one sort of the key columns; every
    aggregate then reduces its argument, gathered in group order, on
    the engine's group-by kernels.
    """
    if select.group_by:
        keys = []
        for expr in select.group_by:
            value = evaluate(expr, frame)
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
        keep &= as_bool(_eval_aggregate_expr(select.having, groups))
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

    rows: Frame
    firsts: Frame
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
        return apply_binop(node.op, left, right)
    if isinstance(node, ast.UnaryOp):
        inner = _eval_aggregate_expr(node.operand, groups)
        return None if inner is None else apply_unaryop(node.op, inner)
    value = evaluate(node, groups.firsts)
    if isinstance(value, np.ndarray) and value.shape[0] < groups.starts.shape[0]:
        return None  # the one empty group of a plain aggregate
    return value


def _apply_aggregate(node: ast.FuncCall, groups: _Groups):
    if len(node.args) != 1:
        raise SqlExecutionError(f"{node.name}() takes one argument")
    value: Any = None
    if not (node.name == "count" and isinstance(node.args[0], ast.Star)):
        value = evaluate(node.args[0], groups.rows)
    if node.name != "count":
        if groups.rows.n_rows == 0:  # no groups, or a plain aggregate's empty one
            return None
        if not isinstance(value, np.ndarray):
            value = np.full(groups.rows.n_rows, value, dtype=np.float64)
    return group_reduce(node.name, value, groups.starts, groups.sizes)

"""Expressions over late-materialised frames.

A :class:`Frame` holds one row-index array per binding and gathers a
column the first time an expression names it; :func:`evaluate` turns an
expression into a scalar or an array of frame length.  The planner
evaluates constant geometries with it, :mod:`.run` the filters and
:mod:`.project` the select list.
"""

from __future__ import annotations

import operator
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..gis.geometry import Geometry
from . import ast
from .errors import SqlExecutionError
from .functions import AGGREGATES, call

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


def geometry_of(value) -> Geometry:
    """A spatial conjunct's evaluated geometry argument, type-checked."""
    if not isinstance(value, Geometry):
        raise SqlExecutionError("spatial predicate needs a geometry argument")
    return value

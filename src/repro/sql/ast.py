"""Abstract syntax tree for the mini SQL dialect.

The demo's thesis (Section 2.2) is that file-based tools cannot express
ad-hoc multi-source queries, while "a declarative query language like SQL
allows the user to easily express queries that combine numerous data
sources".  This AST covers the slice of SQL the demo exercises: SELECT
with expressions and aggregates, FROM with aliases and inner joins, WHERE
with boolean/comparison/arithmetic operators and (spatial) function calls,
GROUP BY, ORDER BY, LIMIT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


class Node:
    """Base class for AST nodes (dataclass equality drives the tests)."""


@dataclass(frozen=True)
class Literal(Node):
    """A number or string constant."""

    value: object


@dataclass(frozen=True)
class Star(Node):
    """The ``*`` select item / ``count(*)`` argument."""


@dataclass(frozen=True)
class ColumnRef(Node):
    """A possibly table-qualified column reference."""

    name: str
    table: Optional[str] = None

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class FuncCall(Node):
    """A function or aggregate call; names are stored lower-case."""

    name: str
    args: Tuple[Node, ...] = ()


@dataclass(frozen=True)
class UnaryOp(Node):
    op: str  # '-' | 'not'
    operand: Node


@dataclass(frozen=True)
class BinOp(Node):
    op: str  # arithmetic, comparison, 'and', 'or'
    left: Node
    right: Node


@dataclass(frozen=True)
class Between(Node):
    expr: Node
    low: Node
    high: Node
    negated: bool = False


@dataclass(frozen=True)
class InList(Node):
    expr: Node
    options: Tuple[Node, ...]
    negated: bool = False


@dataclass(frozen=True)
class SelectItem(Node):
    expr: Node
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableRef(Node):
    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name expressions may qualify columns with."""
        return self.alias if self.alias else self.name


@dataclass(frozen=True)
class OrderItem(Node):
    expr: Node
    descending: bool = False


@dataclass(frozen=True)
class Select(Node):
    """A full SELECT statement."""

    items: Tuple[SelectItem, ...]
    tables: Tuple[TableRef, ...]
    joins: Tuple[Tuple[TableRef, Node], ...] = ()  # (table, ON condition)
    where: Optional[Node] = None
    group_by: Tuple[Node, ...] = ()
    having: Optional[Node] = None
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    distinct: bool = False


def walk(node: Node):
    """Yield ``node`` and all nested AST nodes (pre-order)."""
    yield node
    if isinstance(node, FuncCall):
        for arg in node.args:
            yield from walk(arg)
    elif isinstance(node, UnaryOp):
        yield from walk(node.operand)
    elif isinstance(node, BinOp):
        yield from walk(node.left)
        yield from walk(node.right)
    elif isinstance(node, Between):
        yield from walk(node.expr)
        yield from walk(node.low)
        yield from walk(node.high)
    elif isinstance(node, InList):
        yield from walk(node.expr)
        for option in node.options:
            yield from walk(option)


def walk_select(select: Select):
    """Every AST node of a statement's expressions (pre-order)."""
    exprs = [item.expr for item in select.items] + [on for _, on in select.joins]
    exprs += [e for e in (select.where, select.having) if e is not None]
    exprs += list(select.group_by) + [item.expr for item in select.order_by]
    for expr in exprs:
        yield from walk(expr)


def column_refs(node: Node) -> List[ColumnRef]:
    """All column references below a node."""
    return [n for n in walk(node) if isinstance(n, ColumnRef)]

"""The SQL planner: one plan per statement, run by :mod:`.run` and
printed by :func:`render_plan`.

:func:`plan_select` resolves the FROM/JOIN bindings (refreshing each
relation, rejecting a binding named twice), chooses the join strategy
and gives every ON/WHERE conjunct to exactly one place:

* a relation's **spatial push-down** — ``ST_Contains(<geometry>,
  ST_Point(t.x, t.y))`` (or ``ST_DWithin(..., d)`` / ``ST_Intersects``)
  against a registered point table runs through
  :class:`repro.core.query.SpatialSelect`: the imprints filter, then grid
  refinement unless :func:`~repro.core.query.filter_is_exact`.  A
  geometry that names no column is evaluated once, here;
* its one **pushed range** when it has no spatial conjunct — served by
  the column's imprint (built lazily, MonetDB's trigger) or its packed
  segments;
* its **residual**, evaluated vectorised over the surviving rows;
* the **join residual** of a hash join, evaluated on the joined pairs.

Two relations joined on equality of non-object columns hash-join;
otherwise the largest relation (the point table) is the inner probe and
the others iterate as outer loops: one imprints-backed spatial probe per
Scenario-2 zone ("LIDAR points near a fast transit road").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.imprints import ImprintsManager
from ..core.query import SpatialSelect, filter_is_exact
from ..engine.kernels import RangePredicate, theta_range
from ..engine.table import Table
from ..gis.geometry import Geometry
from . import ast
from .errors import SqlExecutionError
from .expr import Frame, evaluate, geometry_of
from .functions import AGGREGATES, function


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
class SpatialFilter:
    """A conjunct the relation's spatial pipeline answers.  ``value`` is
    the geometry when it names no column, evaluated once at plan time."""

    expr: str
    geometry: ast.Node
    predicate: str
    distance: Optional[ast.Node]
    value: Optional[Geometry] = None


@dataclass
class RangeFilter:
    """The conjunct pushed down as a range on one column, its bounds
    still AST nodes (either may be None); ``packed`` serves it from the
    column's packed segments, otherwise from its imprint."""

    expr: str
    column: str
    bounds: RangePredicate
    packed: bool


@dataclass
class Access:
    """How one binding's rows are selected."""

    binding: str
    relation: Relation
    spatial: List[SpatialFilter] = field(default_factory=list)
    range: Optional[RangeFilter] = None
    residual: List[ast.Node] = field(default_factory=list)


@dataclass
class Plan:
    """A statement's plan.  ``join`` is ``"scan"`` (one relation),
    ``"hash"`` (``accesses`` = left, right; ``key`` = the key conjunct and
    its two columns) or ``"nested_loop"`` (``accesses`` = the outer loops
    in FROM order, then the inner probe)."""

    select: ast.Select
    join: str
    accesses: List[Access]
    aggregate: bool
    key: Optional[Tuple[ast.Node, str, str]] = None
    residual: List[ast.Node] = field(default_factory=list)


def plan_select(select: ast.Select, relation_of: Callable[[str], Relation]) -> Plan:
    """Plan a parsed SELECT over the relations ``relation_of`` names."""
    refs = list(select.tables) + [ref for ref, _ in select.joins]
    conjuncts = [c for _, on in select.joins for c in _conjuncts_of(on)]
    conjuncts += _conjuncts_of(select.where)
    bindings: List[Tuple[str, Relation]] = []
    for ref in refs:
        if any(ref.binding == binding for binding, _ in bindings):
            raise SqlExecutionError(f"duplicate table binding {ref.binding!r}")
        relation = relation_of(ref.name)
        relation.refresh()
        bindings.append((ref.binding, relation))
    for node in ast.walk_select(select):
        if isinstance(node, ast.FuncCall) and node.name not in AGGREGATES:
            function(node.name)  # an unknown name raises here, not mid-run
    aggregate = bool(select.group_by) or any(
        _has_aggregate(item.expr) for item in select.items
    )
    bare = {binding: set(rel.columns) for binding, rel in bindings}

    if len(bindings) == 1:
        access = _access(*bindings[0], conjuncts)
        return Plan(select, "scan", [access], aggregate)

    if len(bindings) == 2:
        (binding_a, rel_a), (binding_b, rel_b) = bindings
        for conjunct in conjuncts:
            key = _match_equi_join(conjunct, binding_a, binding_b, bare)
            if key is None or (
                rel_a.column(key[0]).dtype == object
                or rel_b.column(key[1]).dtype == object
            ):
                continue  # object keys (strings, geometries) take the nested loop
            rest = [c for c in conjuncts if c is not conjunct]
            own_a, rest = _split(rest, binding_a, bare)
            own_b, residual = _split(rest, binding_b, bare)
            accesses = [
                _access(binding_a, rel_a, own_a),
                _access(binding_b, rel_b, own_b),
            ]
            return Plan(select, "hash", accesses, aggregate, (conjunct, *key), residual)

    probe = max(range(len(bindings)), key=lambda i: bindings[i][1].n_rows)
    accesses, rest = [], conjuncts
    for position, (binding, relation) in enumerate(bindings):
        if position != probe:
            own, rest = _split(rest, binding, bare)
            accesses.append(_access(binding, relation, own))
    accesses.append(_access(*bindings[probe], rest))
    return Plan(select, "nested_loop", accesses, aggregate)


def _has_aggregate(node: ast.Node) -> bool:
    return any(
        isinstance(n, ast.FuncCall) and n.name in AGGREGATES
        for n in ast.walk(node)
    )


def _conjuncts_of(node: Optional[ast.Node]) -> List[ast.Node]:
    if node is None:
        return []
    if isinstance(node, ast.BinOp) and node.op == "and":
        return _conjuncts_of(node.left) + _conjuncts_of(node.right)
    return [node]


def _split(
    conjuncts: List[ast.Node], binding: str, bare: Dict[str, set]
) -> Tuple[List[ast.Node], List[ast.Node]]:
    """The conjuncts that name no binding but ``binding``, and the rest."""
    own: List[ast.Node] = []
    rest: List[ast.Node] = []
    for conjunct in conjuncts:
        alone = all(
            ref.table == binding
            if ref.table is not None
            else all(b == binding for b, cols in bare.items() if ref.name in cols)
            for ref in ast.column_refs(conjunct)
        )
        (own if alone else rest).append(conjunct)
    return own, rest


def _access(binding: str, relation: Relation, conjuncts: List[ast.Node]) -> Access:
    """Spatial conjuncts push down; without one, the first range-shaped
    conjunct does; everything else is residual."""
    access = Access(binding, relation)
    for conjunct in conjuncts:
        spatial = _match_spatial(conjunct, binding, relation)
        if spatial is None:
            access.residual.append(conjunct)
        else:
            access.spatial.append(spatial)
    if access.spatial:
        return access
    for position, conjunct in enumerate(access.residual):
        access.range = _match_range(conjunct, binding, relation)
        if access.range is not None:
            del access.residual[position]
            break
    return access


def _refs_binding(node: ast.Node, binding: str, bare_ok: set) -> bool:
    """Does the expression reference columns of the given binding?"""
    return any(
        ref.table == binding or (ref.table is None and ref.name in bare_ok)
        for ref in ast.column_refs(node)
    )


_SPATIAL_FUNCS = {"st_contains", "st_within", "st_intersects", "st_dwithin"}


def _match_spatial(
    conjunct: ast.Node, binding: str, relation: Relation
) -> Optional[SpatialFilter]:
    """Recognise a pushable spatial conjunct against the point relation:
    the conjunct is ``ST_Contains(G, ST_Point(x, y))`` (or within/intersects/
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
        return len(node.args) == 2 and all(
            isinstance(arg, ast.ColumnRef)
            and arg.name == column
            and arg.table in (None, binding)
            for arg, column in zip(node.args, (x_col, y_col))
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
            spatial = SpatialFilter(describe(conjunct), other, predicate, distance)
            if not ast.column_refs(other):
                spatial.value = geometry_of(evaluate(other, Frame({}, 0)))
            return spatial
    return None


#: A pushable comparison with its operands swapped: ``c < t.z`` is ``t.z > c``.
_FLIPPED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _match_range(
    conjunct: ast.Node, binding: str, relation: Relation
) -> Optional[RangeFilter]:
    """Recognise an imprint-pushable range conjunct on this relation:
    patterns like ``t.z > c``, ``c >= t.z``, ``t.z = c`` and
    ``t.z BETWEEN a AND b``.  Pushable means the relation can serve the
    range from an index-shaped access path: an imprints manager, or a
    compressed execution mirror whose packed segments the select kernels
    scan directly.  Comparisons become ranges through the engine's one
    rule, :func:`~repro.engine.kernels.theta_range`.
    """
    table = relation.table
    if table is None:
        return None

    def own_column(node: ast.Node) -> Optional[str]:
        if not isinstance(node, ast.ColumnRef):
            return None
        if node.table not in (None, binding):
            return None
        # Both access paths live on the table's (always numeric) columns.
        if node.name not in relation.columns or node.name not in table:
            return None
        if relation.manager is None and table.column(node.name).packed is None:
            return None
        return node.name

    bare = set(relation.columns)
    bounds = None
    if isinstance(conjunct, ast.Between) and not conjunct.negated:
        name = own_column(conjunct.expr)
        if name is not None and not (
            _refs_binding(conjunct.low, binding, bare)
            or _refs_binding(conjunct.high, binding, bare)
        ):
            bounds = RangePredicate(conjunct.low, conjunct.high)
    elif isinstance(conjunct, ast.BinOp) and conjunct.op in _FLIPPED:
        for col_side, const_side, op in (
            (conjunct.left, conjunct.right, conjunct.op),
            (conjunct.right, conjunct.left, _FLIPPED[conjunct.op]),
        ):
            name = own_column(col_side)
            if name is not None and not _refs_binding(const_side, binding, bare):
                bounds = theta_range("==" if op == "=" else op, const_side)
                break
    if bounds is None:
        return None
    return RangeFilter(
        describe(conjunct), name, bounds, _range_via_packed(relation, name)
    )


def _range_via_packed(relation: Relation, name: str) -> bool:
    """Serve a pushed range from the column's packed segments?

    A *built* imprint still wins (bit-level filtering beats zone maps on
    straddling segments); otherwise an existing compressed mirror is
    used as-is instead of paying a lazy imprint build — its encode-time
    zone maps already prune segments, and the packed kernels evaluate
    the rest without decoding.
    """
    table = relation.table
    if table is None or name not in table or table.column(name).packed is None:
        return False
    return relation.manager is None or relation.manager.get(table, name) is None


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


# -- EXPLAIN ---------------------------------------------------------------------


def render_plan(plan: Plan) -> str:
    """The plan as text (the demo lets users "see the plans of the
    queries", Section 4.2)."""
    if plan.join == "scan":
        lines = _access_lines(plan.accesses[0])
    elif plan.join == "hash":
        lines = [f"hash join on {describe(plan.key[0])}"]
        for access in plan.accesses:
            lines.extend("  " + line for line in _access_lines(access))
        lines.extend(f"  join residual: {describe(c)}" for c in plan.residual)
    else:
        *outers, probe = plan.accesses
        lines = ["nested-loop join"]
        for access in outers:
            lines.append(
                f"  outer loop over {access.relation.name} as {access.binding}:"
            )
            lines.extend("    " + line for line in _access_lines(access))
        lines.append("  inner probe per outer row:")
        lines.extend("    " + line for line in _access_lines(probe))

    select = plan.select
    if select.group_by:
        keys = ", ".join(describe(e) for e in select.group_by)
        lines.append(f"group by {keys}")
        if select.having is not None:
            lines.append(f"having {describe(select.having)}")
    elif plan.aggregate:
        lines.append("aggregate (single group)")
    if select.distinct:
        lines.append("distinct")
    if select.order_by:
        keys = ", ".join(
            describe(o.expr) + (" desc" if o.descending else "")
            for o in select.order_by
        )
        lines.append(f"order by {keys}")
    if select.limit is not None:
        lines.append(f"limit {select.limit}")
    return "\n".join(lines)


def _access_lines(access: Access) -> List[str]:
    relation = access.relation
    lines = [f"access {relation.name} as {access.binding} ({relation.n_rows} rows)"]
    for spatial in access.spatial:
        value, predicate = spatial.value, spatial.predicate
        if value is not None and filter_is_exact(value, predicate):
            via = "on its box (exact, no refinement)"
        elif value is None and predicate != "dwithin":
            # Per-row geometries: SpatialSelect asks filter_is_exact per row.
            via = "+ grid refinement unless the row's geometry is a rectangle"
        else:
            via = "+ grid refinement"
        lines.append(
            f"  spatial filter [{predicate}] via imprints {via}: {spatial.expr}"
        )
    pushed = access.range
    if pushed is not None:
        via = "packed segments" if pushed.packed else "imprint"
        lines.append(f"  range filter via {via} on {pushed.column!r}: {pushed.expr}")
    lines.extend(f"  residual scan filter: {describe(c)}" for c in access.residual)
    return lines


def describe(node: ast.Node) -> str:
    """Compact textual form of an expression for plan output."""
    if isinstance(node, ast.Literal):
        return repr(node.value)
    if isinstance(node, ast.ColumnRef):
        return node.qualified
    if isinstance(node, ast.Star):
        return "*"
    if isinstance(node, ast.FuncCall):
        return f"{node.name}({', '.join(describe(a) for a in node.args)})"
    if isinstance(node, ast.UnaryOp):
        return f"{node.op} {describe(node.operand)}"
    if isinstance(node, ast.BinOp):
        return f"({describe(node.left)} {node.op} {describe(node.right)})"
    if isinstance(node, ast.Between):
        word = "not between" if node.negated else "between"
        return (
            f"({describe(node.expr)} {word} "
            f"{describe(node.low)} and {describe(node.high)})"
        )
    if isinstance(node, ast.InList):
        word = "not in" if node.negated else "in"
        inner = ", ".join(describe(o) for o in node.options)
        return f"({describe(node.expr)} {word} ({inner}))"
    return type(node).__name__

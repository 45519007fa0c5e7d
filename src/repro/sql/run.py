"""Running a plan: filters and joins over late-materialised frames.

Filters and joins produce row ids, not values: each derived
:class:`~.expr.Frame` (residual filter, join output, group order)
composes row-index arrays.  Every filter, index probe and join runs
under the span EXPLAIN ANALYZE renders.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.query import QueryStats
from ..engine.column import Column
from ..engine.join import hash_join
from ..engine.kernels import RangePredicate
from ..engine.select import range_select
from ..obs.trace import maybe_span
from . import ast
from .expr import Frame, Source, as_bool, evaluate, geometry_of
from .plan import Access, Plan, RangeFilter, Relation


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
        geometry = spatial.value
        if geometry is None:
            geometry = geometry_of(evaluate(spatial.geometry, scalars))
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
    lo, hi, lo_inclusive, hi_inclusive = pushed.bounds
    predicate = RangePredicate(
        None if lo is None else evaluate(lo, scalars),
        None if hi is None else evaluate(hi, scalars),
        lo_inclusive,
        hi_inclusive,
    )
    with maybe_span(
        "filter.range", column=pushed.column, expr=pushed.expr
    ) as range_span:
        if pushed.packed:
            oids = range_select(relation.table.column(pushed.column), *predicate)
            range_span.set(rows_out=int(oids.shape[0]), access="packed")
        else:
            stats = QueryStats()
            oids = relation.manager.range_select(
                relation.table, pushed.column, *predicate, stats=stats
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

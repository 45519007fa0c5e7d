"""Aggregation operators: scalar aggregates and grouped aggregates.

Scenario 2 of the demo runs queries like "compute the average elevation of
the LIDAR points near a fast transit road"; these operators are the engine
half of that.  Grouped aggregation uses the sort-based grouping idiom
(one stable sort numbers the groups, ``ufunc.reduceat`` reduces each),
the columnar analogue of MonetDB's group-by kernels; the SQL executor
aggregates through :func:`grouping` and :func:`group_reduce`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from .column import Column


def _materialise(column: Column, candidates: Optional[NDArray[Any]]) -> NDArray[Any]:
    return column.values if candidates is None else column.take(candidates)


def count(column: Column, candidates: Optional[NDArray[Any]] = None) -> int:
    """Number of qualifying rows."""
    return len(column) if candidates is None else int(len(candidates))


def sum_(column: Column, candidates: Optional[NDArray[Any]] = None) -> Any:
    """Sum over qualifying rows (0 on empty input, SQL-style for SUM of none
    is NULL; the engine returns 0 and the SQL layer maps empty to None)."""
    return _materialise(column, candidates).sum()


def avg(column: Column, candidates: Optional[NDArray[Any]] = None) -> float:
    """Arithmetic mean over qualifying rows; NaN on empty input."""
    vals = _materialise(column, candidates)
    if vals.shape[0] == 0:
        return float("nan")
    return float(vals.mean())


def min_(column: Column, candidates: Optional[NDArray[Any]] = None) -> Any:
    vals = _materialise(column, candidates)
    if vals.shape[0] == 0:
        raise ValueError("min of empty input")
    return vals.min()


def max_(column: Column, candidates: Optional[NDArray[Any]] = None) -> Any:
    vals = _materialise(column, candidates)
    if vals.shape[0] == 0:
        raise ValueError("max of empty input")
    return vals.max()


_UFUNCS: Dict[str, np.ufunc] = {"sum": np.add, "min": np.minimum, "max": np.maximum}


def grouping(
    keys: Sequence[NDArray[Any]],
) -> Tuple[NDArray[np.intp], NDArray[np.intp], NDArray[np.intp]]:
    """Number the groups of equal key tuples with one stable sort.

    Returns ``(order, starts, sizes)``: ``order`` sorts the rows by key
    (first key major, ascending, NaNs last and equal to each other),
    group ``g`` is ``order[starts[g]:starts[g] + sizes[g]]``.  Any number
    of :func:`group_reduce` calls share the one sort.
    """
    n = keys[0].shape[0]
    order = np.lexsort(tuple(keys[::-1]))
    boundary = np.zeros(n, dtype=bool)
    boundary[:1] = True
    for key in keys:
        ranked = key[order]
        differs = ranked[1:] != ranked[:-1]
        if ranked.dtype.kind == "f":
            differs &= ~(np.isnan(ranked[1:]) & np.isnan(ranked[:-1]))
        boundary[1:] |= differs
    starts = np.flatnonzero(boundary)
    return order, starts, np.diff(starts, append=n)


def group_reduce(
    func: str,
    values: Optional[NDArray[Any]],
    starts: NDArray[np.intp],
    sizes: NDArray[np.intp],
) -> NDArray[Any]:
    """``func`` per group over ``values`` laid out in group order
    (``column[order]``); ``count`` needs no values.  A single group is
    reduced whole, which keeps numpy's pairwise summation."""
    if func == "count":
        return sizes.astype(np.int64)
    if func not in ("avg", *_UFUNCS):
        raise ValueError(f"unknown aggregate {func!r}")
    if values is None:
        raise ValueError(f"aggregate {func!r} requires values")
    if func == "avg":
        return group_reduce("sum", values.astype(np.float64), starts, sizes) / sizes
    if starts.shape[0] == 1:
        return np.asarray(_UFUNCS[func].reduce(values, keepdims=True))
    return np.asarray(_UFUNCS[func].reduceat(values, starts))


def group_aggregate(
    group_values: NDArray[Any],
    agg_values: Optional[NDArray[Any]],
    func: str,
) -> Dict[str, NDArray[Any]]:
    """Grouped aggregate: one output row per distinct group value.

    Parameters
    ----------
    group_values:
        Grouping key per qualifying row.
    agg_values:
        Values to aggregate (ignored for ``count``).
    func:
        One of ``count``, ``sum``, ``avg``, ``min``, ``max``.

    Returns a dict with ``groups`` (distinct keys, sorted) and ``values``
    (the aggregate per group, aligned with ``groups``).
    """
    group_values = np.asarray(group_values)
    if group_values.shape[0] == 0:
        return {
            "groups": group_values[:0],
            "values": np.empty(0, dtype=np.float64),
        }
    order, starts, sizes = grouping([group_values])
    ordered = None if agg_values is None else np.asarray(agg_values)[order]
    return {
        "groups": group_values[order[starts]],
        "values": group_reduce(func, ordered, starts, sizes),
    }

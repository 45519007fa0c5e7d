"""Aggregation operators: grouped (and single-group) aggregates.

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

"""Candidate-list select operators.

MonetDB's operator-at-a-time execution threads *candidate lists* (sorted
arrays of row ids) between operators: each select consumes the previous
operator's candidates and returns the surviving subset.  These functions are
the engine's scan-based selects; the imprints index in
:mod:`repro.core.imprints` produces the same candidate-list contract, so the
two are interchangeable in query plans (which is exactly how the paper swaps
a full scan for an index probe).

When a column carries a compressed execution mirror
(:attr:`~repro.engine.column.Column.packed`) and the select starts from the
full column (no candidate list), the predicate runs on the *encoded*
segments instead — zone-map pruning, then packed kernels, decoding nothing
that does not survive (see :mod:`repro.engine.kernels`).  The result is
bit-identical to the plain scan; the span reports ``encoded_bytes`` vs.
``materialized_bytes`` so ``EXPLAIN ANALYZE`` shows which bytes each
operator really moved.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

from ..obs import heat as _heat
from ..obs import resources
from ..obs.metrics import get_registry
from ..obs.trace import maybe_span
from . import parallel
from .column import Column
from .kernels import RangePredicate, bounds_mask, theta_range
from .scan import ScanStats

#: Comparison operators accepted by :func:`theta_select`.
_THETA_OPS: Dict[str, Callable[[NDArray[Any], object], NDArray[Any]]] = {
    "==": lambda v, c: v == c,
    "!=": lambda v, c: v != c,
    "<": lambda v, c: v < c,
    "<=": lambda v, c: v <= c,
    ">": lambda v, c: v > c,
    ">=": lambda v, c: v >= c,
}


def _as_candidates(mask: NDArray[Any], candidates: Optional[NDArray[Any]]) -> NDArray[Any]:
    """Turn a boolean mask (over values or candidates) into a candidate list."""
    hits = np.flatnonzero(mask)
    if candidates is None:
        return hits.astype(np.int64)
    return candidates[hits]


def _account_touched(column: Column, vals: NDArray[Any]) -> None:
    """Credit a scan's actual data volume to the active resource tracker.

    Post-candidate-list, so an imprint-filtered select reports the small
    read the index earned it, not the column size.  One thread-local
    read when no tracker is open.
    """
    tracker = resources.current()
    if tracker is not None:
        tracker.add_touched(
            rows=int(vals.shape[0]), nbytes=int(vals.nbytes)
        )
        # Plain scans materialize everything they touch.
        tracker.add_scan_bytes(materialized=int(vals.nbytes))
    heat = _heat.maybe_heat()
    if heat is not None:
        # An unsegmented plain scan: heat's whole-column pseudo-segment.
        heat.record_scan(
            column.name, probed=[(-1, 0, int(vals.nbytes))]
        )


def _numeric_bound(bound: object) -> bool:
    """Only numeric predicates may take the packed path — the zone-map
    algebra compares against ``zmin``/``zmax`` with Python operators, so
    exotic constants stay on the plain numpy scan."""
    return bound is None or isinstance(bound, (bool, int, float, np.number, np.bool_))


def _morsel_mask(
    vals: NDArray[Any],
    kernel: Callable[[NDArray[Any]], NDArray[Any]],
    threads: Optional[int],
) -> NDArray[Any]:
    """Evaluate a boolean kernel over ``vals``, morsel-parallel when useful.

    Each morsel writes its disjoint slice of one preallocated mask, so the
    result is bit-identical to the serial evaluation whatever the worker
    interleaving.
    """
    n = vals.shape[0]
    n_threads = parallel.resolve_threads(threads)
    if n_threads <= 1 or n < 2 * parallel.MIN_PARALLEL_ROWS:
        return kernel(vals)
    mask = np.empty(n, dtype=bool)

    def scan(span: Tuple[int, int]) -> None:
        start, stop = span
        mask[start:stop] = kernel(vals[start:stop])

    parallel.run_tasks(scan, parallel.morsels(n), threads=n_threads)
    return mask


def _select(
    column: Column,
    predicate: RangePredicate,
    kernel: Callable[[NDArray[Any]], NDArray[Any]],
    candidates: Optional[NDArray[Any]],
    threads: Optional[int],
    span: Any,
) -> NDArray[Any]:
    """Run one select: ``predicate`` on the compressed mirror when the
    select starts from the full column and has one, else ``kernel`` (the
    same predicate as a numpy compare) over the (candidate) values."""
    packed = column.packed if candidates is None else None
    if packed is not None and _numeric_bound(predicate.lo) and _numeric_bound(predicate.hi):
        # The segment scanner has already credited the resource tracker
        # and the heat map; what is left is compression's own view.
        stats = ScanStats()
        result = packed.select(predicate, threads, stats)
        registry = get_registry()
        if stats.packed_probes:
            registry.counter("compression.packed_predicate_hits").inc(stats.packed_probes)
        saved = packed.plain_nbytes - stats.encoded_bytes - stats.materialized_bytes
        if saved > 0:
            registry.counter("compression.materialized_bytes_saved").inc(saved)
        span.set(
            rows_in=packed.n_rows,
            rows_out=stats.rows_out,
            segments_skipped=stats.segments_skipped,
            segments_full=stats.segments_full,
            segments_probed=stats.segments_probed,
            encoded_bytes=stats.encoded_bytes,
            materialized_bytes=stats.materialized_bytes,
        )
        return result
    vals = column.values if candidates is None else column.take(candidates)
    _account_touched(column, vals)
    result = _as_candidates(_morsel_mask(vals, kernel, threads), candidates)
    span.set(
        rows_in=int(vals.shape[0]),
        rows_out=int(result.shape[0]),
        encoded_bytes=0,
        materialized_bytes=int(vals.nbytes),
    )
    return result


def theta_select(
    column: Column,
    op: str,
    constant: object,
    candidates: Optional[NDArray[Any]] = None,
    threads: Optional[int] = None,
) -> NDArray[Any]:
    """Rows where ``column <op> constant`` holds, as a sorted oid array.

    When ``candidates`` is given, only those rows are inspected and the
    result is a subset of them (preserving order).  ``threads`` fans the
    comparison out over morsels (``1`` = the exact serial path).
    """
    try:
        fn = _THETA_OPS[op]
    except KeyError:
        raise ValueError(f"unknown theta operator {op!r}") from None
    predicate = theta_range(op, constant)
    with maybe_span("select.theta", column=column.name, op=op) as span:
        return _select(
            column, predicate, lambda part: fn(part, constant), candidates, threads, span
        )


def range_select(
    column: Column,
    lo: Optional[Any],
    hi: Optional[Any],
    lo_inclusive: bool = True,
    hi_inclusive: bool = True,
    candidates: Optional[NDArray[Any]] = None,
    threads: Optional[int] = None,
) -> NDArray[Any]:
    """Rows with ``lo <(=) column <(=) hi`` as a sorted oid array.

    Either bound may be ``None`` for a half-open range.  This is the scan
    equivalent of an imprints probe and is used both as the fallback path
    and as the exactness reference in tests.  ``threads`` splits the scan
    into morsels across the worker pool (``1`` = the exact serial path);
    the reassembled result is identical either way.
    """
    predicate = RangePredicate(lo, hi, lo_inclusive, hi_inclusive)
    with maybe_span("select.range", column=column.name) as span:
        return _select(
            column,
            predicate,
            lambda part: bounds_mask(part, lo, hi, lo_inclusive, hi_inclusive),
            candidates,
            threads,
            span,
        )


def mask_select(
    mask: NDArray[Any], candidates: Optional[NDArray[Any]] = None
) -> NDArray[Any]:
    """Candidate list from a caller-computed boolean mask.

    The mask is over the full column when ``candidates`` is ``None`` and
    over the candidate rows otherwise.
    """
    return _as_candidates(np.asarray(mask, dtype=bool), candidates)


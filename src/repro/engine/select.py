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

from typing import Any, Optional

import numpy as np
from numpy.typing import NDArray

from ..obs.trace import maybe_span
from .column import Column
from .kernels import RangePredicate, bounds_mask
from .scan import ScanStats, bill_scan


def _as_candidates(mask: NDArray[Any], candidates: Optional[NDArray[Any]]) -> NDArray[Any]:
    """Turn a boolean mask (over values or candidates) into a candidate list."""
    hits = np.flatnonzero(mask)
    if candidates is None:
        return hits.astype(np.int64)
    return candidates[hits]


def _numeric_bound(bound: object) -> bool:
    """Only numeric predicates may take the packed path — the zone-map
    algebra compares against ``zmin``/``zmax`` with Python operators, so
    exotic constants stay on the plain numpy scan."""
    return bound is None or isinstance(bound, (bool, int, float, np.number, np.bool_))


def _select(
    column: Column,
    predicate: RangePredicate,
    candidates: Optional[NDArray[Any]],
    span: Any,
) -> NDArray[Any]:
    """Run one select: ``predicate`` on the compressed mirror when the
    select starts from the full column and has one, else as a numpy
    compare over the (candidate) values."""
    packed = column.packed if candidates is None else None
    if packed is not None and _numeric_bound(predicate.lo) and _numeric_bound(predicate.hi):
        # The segment scanner has already credited the resource tracker
        # and the heat map; the span reports compression's view of it.
        stats = ScanStats()
        result = packed.select(predicate, stats)
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
    # Post-candidate-list, so an imprint-filtered select bills the small
    # read the index earned it; a plain scan materializes all it reads.
    bill_scan(
        [column.name], [(-1, [(0, int(vals.nbytes))])], rows=int(vals.shape[0])
    )
    result = _as_candidates(bounds_mask(vals, *predicate), candidates)
    span.set(
        rows_in=int(vals.shape[0]),
        rows_out=int(result.shape[0]),
        encoded_bytes=0,
        materialized_bytes=int(vals.nbytes),
    )
    return result


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
    and as the exactness reference in tests.  ``threads`` is ignored;
    execution is serial; removed when ``benchmarks/e2e/`` stops passing
    it.
    """
    predicate = RangePredicate(lo, hi, lo_inclusive, hi_inclusive)
    with maybe_span("select.range", column=column.name) as span:
        return _select(column, predicate, candidates, span)


def mask_select(
    mask: NDArray[Any], candidates: Optional[NDArray[Any]] = None
) -> NDArray[Any]:
    """Candidate list from a caller-computed boolean mask.

    The mask is over the full column when ``candidates`` is ``None`` and
    over the candidate rows otherwise.
    """
    return _as_candidates(np.asarray(mask, dtype=bool), candidates)


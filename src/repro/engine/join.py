"""Join operators over columns and candidate lists.

The engine provides an equi hash join (the workhorse for thematic joins in
Scenario 2) and a band join used by distance predicates.  Joins return a
pair of aligned oid arrays ``(left_oids, right_oids)``, matching MonetDB's
join-index style output, so results compose with :meth:`Table.fetch` and
the SQL executor's index-backed frames.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

from .column import Column


def hash_join(
    left: Column,
    right: Column,
    left_candidates: Optional[NDArray[Any]] = None,
    right_candidates: Optional[NDArray[Any]] = None,
) -> Tuple[NDArray[Any], NDArray[Any]]:
    """Equi-join two columns; returns aligned (left_oids, right_oids).

    Builds on the smaller input, probes with the larger, and produces every
    matching pair.  Implemented with a sort-based grouping of the build side
    (numpy has no hash table primitive, but the contract and cost profile —
    one pass build, one pass probe — are those of a hash join).
    """
    lvals = left.values if left_candidates is None else left.take(left_candidates)
    rvals = (
        right.values if right_candidates is None else right.take(right_candidates)
    )
    loids = (
        np.arange(len(left), dtype=np.int64)
        if left_candidates is None
        else np.asarray(left_candidates, dtype=np.int64)
    )
    roids = (
        np.arange(len(right), dtype=np.int64)
        if right_candidates is None
        else np.asarray(right_candidates, dtype=np.int64)
    )

    if lvals.shape[0] == 0 or rvals.shape[0] == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty

    # Build side: group identical values; probe side: binary-search the groups.
    build_vals, build_oids, probe_vals, probe_oids, swapped = (
        (lvals, loids, rvals, roids, False)
        if lvals.shape[0] <= rvals.shape[0]
        else (rvals, roids, lvals, loids, True)
    )
    order = np.argsort(build_vals, kind="stable")
    sorted_vals = build_vals[order]
    sorted_oids = build_oids[order]

    starts = np.searchsorted(sorted_vals, probe_vals, side="left")
    ends = np.searchsorted(sorted_vals, probe_vals, side="right")
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty

    # Expand each probe row into its group of build matches.
    probe_out = np.repeat(probe_oids, counts)
    offsets = np.repeat(starts, counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    build_out = sorted_oids[offsets + within]

    if swapped:
        return probe_out, build_out
    return build_out, probe_out


def band_join(
    left: Column,
    right: Column,
    radius: float,
    left_candidates: Optional[NDArray[Any]] = None,
    right_candidates: Optional[NDArray[Any]] = None,
) -> Tuple[NDArray[Any], NDArray[Any]]:
    """Pairs with ``|left - right| <= radius`` (1-D band join).

    Used as the per-axis prefilter of distance joins: a 2-D ``ST_DWithin``
    join runs a band join on x, then exact-checks the survivors.
    """
    if radius < 0:
        raise ValueError("band join radius must be non-negative")
    lvals = left.values if left_candidates is None else left.take(left_candidates)
    rvals = (
        right.values if right_candidates is None else right.take(right_candidates)
    )
    loids = (
        np.arange(len(left), dtype=np.int64)
        if left_candidates is None
        else np.asarray(left_candidates, dtype=np.int64)
    )
    roids = (
        np.arange(len(right), dtype=np.int64)
        if right_candidates is None
        else np.asarray(right_candidates, dtype=np.int64)
    )
    if lvals.shape[0] == 0 or rvals.shape[0] == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty

    order = np.argsort(rvals, kind="stable")
    sorted_vals = rvals[order]
    sorted_oids = roids[order]
    starts = np.searchsorted(sorted_vals, lvals - radius, side="left")
    ends = np.searchsorted(sorted_vals, lvals + radius, side="right")
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    left_out = np.repeat(loids, counts)
    offsets = np.repeat(starts, counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    right_out = sorted_oids[offsets + within]
    return left_out, right_out

"""The segment scanner: classify, then skip / accept / probe, then gather.

The paper's filter step (Section 3.2-3.3) is one idea: per-segment
metadata decides whether a segment can be skipped, accepted wholesale, or
must be looked at, and only the straddling segments touch data.  Every
segmented access path — imprint vectors in
:mod:`repro.core.imprints.segments`, packed blocks in
:mod:`repro.engine.compressed` — hands :func:`scan_segments` its
segment grid and zone maps as arrays (:class:`Zones`) and a *prober*
for one segment; the loop around them is written here, once.

A scan is a **conjunction** of range predicates over one segment grid
(the spatial filter's ``x``, ``y`` and optional ``z`` ranges; a single
predicate is the one-term case).  A segment is skipped when *any* term's
zone map is disjoint, accepted when *all* cover it, and probed
otherwise — :func:`zone_verdicts` and :func:`conjunction_verdicts`, a
handful of array comparisons over every segment at once and the only
place that rule is written.

This module is the only code that registers segment progress with the
live query, checks its deadline before each probe, and gathers FULL
ranges and probe hits in segment order into one sorted ``int64`` oid
array.  Its :func:`bill_scan` is the only code that credits the
:class:`~repro.obs.resources.ResourceTracker` and records heat, for the
segmented scans and for the plain one of :mod:`repro.engine.select`.
Accounting happens in a ``finally`` over the probes that completed, so
a cancelled scan is billed for exactly the work it did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from ..obs import heat as _heat
from ..obs import queries as _queries
from ..obs import resources
from .kernels import ZONE_FULL, ZONE_PROBE, ZONE_SKIP, RangePredicate

#: One segment's scan metadata: global ``[start, stop)`` rows and the
#: ``(zmin, zmax)`` zone map (``None`` when the segment carries none).
Segment = Tuple[int, int, Any, Any]


class Zones(NamedTuple):
    """A segment grid and its zone maps, one array entry per segment.

    Segment ``i`` holds the global rows ``[starts[i], stops[i])`` and
    values in ``[zmin[i], zmax[i]]``.  ``zmin``/``zmax`` are ``None``
    when the grid carries no zone maps at all (every segment PROBEs);
    ``known``, when given, is ``False`` where one segment lacks its own.
    Owners build this once per change of their segments, not per query.
    """

    starts: NDArray[np.int64]
    stops: NDArray[np.int64]
    zmin: Optional[NDArray[Any]] = None
    zmax: Optional[NDArray[Any]] = None
    known: Optional[NDArray[np.bool_]] = None


def zones_of(segments: Sequence[Segment]) -> Zones:
    """:class:`Zones` from per-segment ``(start, stop, zmin, zmax)``
    tuples; a ``None`` zone bound marks that segment's zone map missing.
    The zone arrays take the dtype numpy gives the bounds themselves, so
    an array comparison promotes exactly as the scalar one would."""
    n = len(segments)
    starts = np.fromiter((s[0] for s in segments), dtype=np.int64, count=n)
    stops = np.fromiter((s[1] for s in segments), dtype=np.int64, count=n)
    known = [s[2] is not None and s[3] is not None for s in segments]
    if not any(known):
        return Zones(starts, stops)
    fill = segments[known.index(True)]
    zmin = np.asarray([s[2] if k else fill[2] for s, k in zip(segments, known)])
    zmax = np.asarray([s[3] if k else fill[3] for s, k in zip(segments, known)])
    return Zones(starts, stops, zmin, zmax, None if all(known) else np.asarray(known))


class Conjunct(NamedTuple):
    """One range predicate of a conjunctive scan.

    Every conjunct of a scan lists the same ``[start, stop)`` rows per
    segment; a column that has no zone maps on that grid passes
    ``Zones(starts, stops)`` and is probed wherever the other terms do
    not settle the segment.  ``column`` names the term in the heat map.
    """

    column: str
    zones: Zones
    predicate: RangePredicate


#: ``probe(i, own)`` evaluates the whole conjunction on segment ``i``.
#: ``own[c]`` is conjunct ``c``'s zone verdict there: FULL (every row
#: satisfies it, nothing to read) or PROBE — a SKIP never reaches a
#: prober.  Returns the sorted global oids and, per conjunct, the
#: ``(encoded, materialized)`` bytes it read.
Prober = Callable[
    [int, Sequence[int]], Tuple[NDArray[np.int64], Sequence[Tuple[int, int]]]
]

#: Test-injection point: called with the segment index just before each
#: probe, on every prober.  The live-introspection tests install a
#: sleeping hook here to make scans slow enough to watch
#: ``/debug/queries`` progress tick and to land deadline checks mid-scan.
#: ``None`` (production) costs one read per scan.
probe_hook: Optional[Callable[[int], None]] = None


@dataclass
class ScanStats:
    """What segment scans actually did, for attribution: the one per-scan
    record (:class:`~repro.core.query.QueryStats` holds it as ``scan``)."""

    segments_skipped: int = 0
    segments_full: int = 0
    segments_probed: int = 0
    #: Probed segments evaluated on the packed representation.
    packed_probes: int = 0
    #: Imprint probes that compared whole column slices / gathered only
    #: the cache lines the vectors left alive (a probe the vectors
    #: emptied reads nothing and counts as neither).
    dense_probes: int = 0
    gather_probes: int = 0
    #: Encoded payload bytes the probes scanned.
    encoded_bytes: int = 0
    #: Bytes of plain (decoded) arrays the probes read.
    materialized_bytes: int = 0
    rows_out: int = 0


def zone_verdicts(zones: Zones, predicate: RangePredicate) -> NDArray[np.int8]:
    """SKIP / FULL / PROBE for every segment, without touching data.

    A zone is skipped when it lies wholly outside the range and accepted
    when it lies wholly inside; SKIP wins when a degenerate zone is both.
    Empty segments SKIP; segments without a zone map PROBE, as do NaN
    zones (they compare false everywhere), so missing metadata costs
    time, never correctness.  ``negate`` complements the verdicts:
    every-row-matches becomes no-row-matches and vice versa, PROBE stays
    PROBE.
    """
    lo, hi, lo_inclusive, hi_inclusive, negate = predicate
    starts, stops, zmin, zmax, known = zones
    verdicts = np.full(starts.shape[0], ZONE_PROBE, dtype=np.int8)
    if zmin is not None and zmax is not None:
        skip = np.zeros(starts.shape[0], dtype=bool)
        full = np.ones(starts.shape[0], dtype=bool)
        if lo is not None:
            skip |= zmax < lo if lo_inclusive else zmax <= lo
            full &= zmin >= lo if lo_inclusive else zmin > lo
        if hi is not None:
            skip |= zmin > hi if hi_inclusive else zmin >= hi
            full &= zmax <= hi if hi_inclusive else zmax < hi
        full &= ~skip
        if known is not None:
            skip &= known
            full &= known
        if negate:
            skip, full = full, skip
        verdicts[full] = ZONE_FULL
        verdicts[skip] = ZONE_SKIP
    verdicts[stops <= starts] = ZONE_SKIP
    return verdicts


def conjunction_verdicts(own: NDArray[np.int8]) -> NDArray[np.int8]:
    """Per segment, the verdict of a conjunction from its terms' own
    (``own[c, i]``, one row per term): any SKIP settles it (no row can
    satisfy every term), all FULL accepts it, anything else — a
    straddling or a missing zone map — must be probed.  With SKIP <
    FULL < PROBE that is the column minimum where it is SKIP and the
    column maximum elsewhere."""
    lowest = own.min(axis=0)
    return np.where(lowest == ZONE_SKIP, lowest, own.max(axis=0))


def bill_scan(
    columns: Sequence[str],
    probed: Sequence[Tuple[int, Sequence[Tuple[int, int]]]],
    rows: int,
    verdicts: Optional[NDArray[np.int8]] = None,
) -> Tuple[int, int]:
    """Credit one scan to the active resource tracker and the heat map.

    ``probed`` lists each segment that was read with, per column, the
    ``(encoded, materialized)`` bytes read there; ``rows`` is how many
    rows those segments hold.  ``verdicts``, one per segment, name the
    segments the zone maps skipped or accepted.  An unsegmented plain
    scan passes none and is heat's whole-column pseudo-segment ``-1``.
    Returns the scan's ``(encoded, materialized)`` totals.
    """
    encoded = sum(read[0] for _, reads in probed for read in reads)
    materialized = sum(read[1] for _, reads in probed for read in reads)
    tracker = resources.current()
    if tracker is not None and probed:
        tracker.add_scan(rows, encoded, materialized)
    heat = _heat.maybe_heat()
    if heat is not None:
        skipped: List[int] = []
        full: List[int] = []
        if verdicts is not None:
            skipped = np.flatnonzero(verdicts == ZONE_SKIP).tolist()
            full = np.flatnonzero(verdicts == ZONE_FULL).tolist()
        # One batched update per column per scan, never per segment.
        for c, column in enumerate(columns):
            heat.record_scan(
                column,
                probed=[(i, *reads[c]) for i, reads in probed],
                skipped=skipped,
                full=full,
            )
    return encoded, materialized


def scan_segments(
    conjuncts: Sequence[Conjunct],
    probe: Prober,
    stats: Optional[ScanStats] = None,
) -> NDArray[np.int64]:
    """Sorted global oids of the rows matching every conjunct.

    Zone maps first: segments a term rules out are skipped and segments
    every term covers are accepted wholesale, both without touching
    data.  Only the remaining segments pay ``probe``, in segment order.
    ``stats`` receives the verdict counts up front and the probe volumes
    as they complete.
    """
    stats = stats if stats is not None else ScanStats()
    starts, stops = conjuncts[0].zones.starts, conjuncts[0].zones.stops
    if any(c.zones.starts.shape != starts.shape for c in conjuncts):
        raise ValueError("conjuncts of one scan must share a segment grid")
    own = np.stack([zone_verdicts(c.zones, c.predicate) for c in conjuncts])
    verdicts = conjunction_verdicts(own)
    probes = np.flatnonzero(verdicts == ZONE_PROBE)
    n_total, n_probes = int(verdicts.shape[0]), int(probes.shape[0])
    n_full = int(np.count_nonzero(verdicts == ZONE_FULL))
    stats.segments_probed += n_probes
    stats.segments_full += n_full
    stats.segments_skipped += n_total - n_probes - n_full
    active = _queries.current_query()
    if active is not None:
        # Live progress: the denominator is every segment of this scan;
        # skips and wholesale accepts complete instantly, probes tick
        # one by one below.
        active.add_segments(total=n_total, done=n_total - n_probes)
    hook = probe_hook
    done: Dict[int, Tuple[NDArray[np.int64], Sequence[Tuple[int, int]]]] = {}

    try:
        for i, own_i in zip(probes.tolist(), own[:, probes].T.tolist()):
            if active is not None:
                active.check_deadline()
            if hook is not None:
                hook(i)
            done[i] = probe(i, own_i)
            if active is not None:
                active.add_segments(done=1)
    finally:
        # Bill what was read, whether or not the scan ran to the end:
        # zone-map skips and wholesale accepts cost zero data access (the
        # paper's point), a probe that never ran likewise.
        ran = list(done)
        encoded, materialized = bill_scan(
            [c.column for c in conjuncts],
            [(i, done[i][1]) for i in ran],
            rows=int((stops[ran] - starts[ran]).sum()),
            verdicts=verdicts,
        )
        stats.packed_probes += sum(
            1 for i in ran if any(read[0] for read in done[i][1])
        )
        stats.encoded_bytes += encoded
        stats.materialized_bytes += materialized

    pieces: List[NDArray[np.int64]] = []
    for i in np.flatnonzero(verdicts != ZONE_SKIP).tolist():
        if i not in done:
            pieces.append(np.arange(starts[i], stops[i], dtype=np.int64))
        elif done[i][0].shape[0]:
            pieces.append(done[i][0])
    if not pieces:
        return np.empty(0, dtype=np.int64)
    out = np.concatenate(pieces) if len(pieces) > 1 else pieces[0]
    stats.rows_out += int(out.shape[0])
    return out

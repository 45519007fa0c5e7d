"""The segment scanner: classify, then skip / accept / probe, then gather.

The paper's filter step (Section 3.2-3.3) is one idea: per-segment
metadata decides whether a segment can be skipped, accepted wholesale, or
must be looked at, and only the straddling segments touch data.  Every
segmented access path — imprint vectors in
:mod:`repro.core.imprints.segments`, packed blocks in
:mod:`repro.engine.compressed` — hands :func:`scan_segments` its
per-segment ``(start, stop, zmin, zmax)`` and a *prober* for one
segment; the loop around them is written here, once.

A scan is a **conjunction** of range predicates over one segment grid
(the spatial filter's ``x``, ``y`` and optional ``z`` ranges; a single
predicate is the one-term case).  A segment is skipped when *any* term's
zone map is disjoint, accepted when *all* cover it, and probed
otherwise — :func:`conjunction_verdict`, the only place that rule is
written.

This module is the only code that registers segment progress with the
live query, checks its deadline before each probe, fans probes out over
:func:`repro.engine.parallel.run_tasks`, credits the
:class:`~repro.obs.resources.ResourceTracker`, records segment heat, and
gathers FULL ranges and probe hits in segment order into one sorted
``int64`` oid array.  Accounting happens in a ``finally`` over the probes
that completed, so a cancelled scan is billed for exactly the work it did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from ..obs import heat as _heat
from ..obs import queries as _queries
from ..obs import resources
from .kernels import ZONE_FULL, ZONE_PROBE, ZONE_SKIP, RangePredicate, zone_verdict
from .parallel import run_tasks

#: One segment's scan metadata: global ``[start, stop)`` rows and the
#: ``(zmin, zmax)`` zone map (``None`` when the segment carries none).
Segment = Tuple[int, int, Any, Any]


class Conjunct(NamedTuple):
    """One range predicate of a conjunctive scan.

    Every conjunct of a scan lists the same ``[start, stop)`` rows per
    segment; a column that has no zone maps on that grid passes ``None``
    zones and is probed wherever the other terms do not settle the
    segment.  ``column`` names the term in the heat map.
    """

    column: str
    segments: Sequence[Segment]
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
    """What one segment scan actually did, for attribution."""

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


def _verdict(segment: Segment, predicate: RangePredicate) -> int:
    start, stop, zmin, zmax = segment
    if stop <= start:
        return ZONE_SKIP
    if zmin is None or zmax is None:
        return ZONE_PROBE
    lo, hi, lo_inclusive, hi_inclusive, negate = predicate
    verdict = zone_verdict(zmin, zmax, lo, hi, lo_inclusive, hi_inclusive)
    if negate and verdict != ZONE_PROBE:
        return ZONE_FULL if verdict == ZONE_SKIP else ZONE_SKIP
    return verdict


def zone_verdicts(
    segments: Sequence[Segment], predicate: RangePredicate
) -> List[int]:
    """SKIP / FULL / PROBE for every segment, without touching data.

    Empty segments SKIP; segments without a zone map PROBE, as do NaN
    zones (they compare false everywhere), so missing metadata costs
    time, never correctness.  ``negate`` complements the verdicts:
    every-row-matches becomes no-row-matches and vice versa, PROBE stays
    PROBE.
    """
    return [_verdict(segment, predicate) for segment in segments]


def conjunction_verdict(own: Sequence[int]) -> int:
    """One segment's verdict from its conjuncts' own: any SKIP settles it
    (no row can satisfy every term), all FULL accepts it, anything else —
    a straddling or a missing zone map — must be probed."""
    if ZONE_SKIP in own:
        return ZONE_SKIP
    if all(verdict == ZONE_FULL for verdict in own):
        return ZONE_FULL
    return ZONE_PROBE


def _own_verdicts(conjuncts: Sequence[Conjunct]) -> List[List[int]]:
    """Per segment, each conjunct's own verdict, cut short at the first
    SKIP: on clustered rows the first term settles most segments and the
    others' zone maps are never read."""
    n = len(conjuncts[0].segments)
    if any(len(c.segments) != n for c in conjuncts):
        raise ValueError("conjuncts of one scan must share a segment grid")
    own: List[List[int]] = []
    for i in range(n):
        row: List[int] = []
        for conjunct in conjuncts:
            row.append(_verdict(conjunct.segments[i], conjunct.predicate))
            if row[-1] == ZONE_SKIP:
                break
        own.append(row)
    return own


def scan_segments(
    conjuncts: Sequence[Conjunct],
    probe: Prober,
    threads: Optional[int] = None,
    stats: Optional[ScanStats] = None,
) -> NDArray[np.int64]:
    """Sorted global oids of the rows matching every conjunct.

    Zone maps first: segments a term rules out are skipped and segments
    every term covers are accepted wholesale, both without touching
    data.  Only the remaining segments pay ``probe``, fanned out over
    ``threads`` workers; results concatenate in segment order, so the
    answer is identical for every thread count.  ``stats`` receives the
    verdict counts up front and the probe volumes as they complete.
    """
    stats = stats if stats is not None else ScanStats()
    segments = conjuncts[0].segments
    own = _own_verdicts(conjuncts)
    verdicts = [conjunction_verdict(row) for row in own]
    probes = [i for i, v in enumerate(verdicts) if v == ZONE_PROBE]
    n_full = verdicts.count(ZONE_FULL)
    stats.segments_probed += len(probes)
    stats.segments_full += n_full
    stats.segments_skipped += len(verdicts) - len(probes) - n_full
    active = _queries.current_query()
    if active is not None:
        # Live progress: the denominator is every segment of this scan;
        # skips and wholesale accepts complete instantly, probes tick
        # one by one below.
        active.add_segments(total=len(verdicts), done=len(verdicts) - len(probes))
    # Captured on the caller's thread: trackers are thread-local, the
    # probes may run on pool workers.
    tracker = resources.current()
    heat = _heat.maybe_heat()
    hook = probe_hook
    done: Dict[int, Tuple[NDArray[np.int64], Sequence[Tuple[int, int]]]] = {}

    def probe_one(i: int) -> None:
        if active is not None:
            active.check_deadline()
        if hook is not None:
            hook(i)
        done[i] = probe(i, own[i])
        if active is not None:
            active.add_segments(done=1)

    try:
        run_tasks(probe_one, probes, threads=threads)
    finally:
        # Bill what was read, whether or not the scan ran to the end:
        # zone-map skips and wholesale accepts cost zero data access (the
        # paper's point), a probe that never ran likewise.
        order = sorted(done)
        encoded = sum(read[0] for i in order for read in done[i][1])
        materialized = sum(read[1] for i in order for read in done[i][1])
        stats.packed_probes += sum(
            1 for i in order if any(read[0] for read in done[i][1])
        )
        stats.encoded_bytes += encoded
        stats.materialized_bytes += materialized
        if tracker is not None and done:
            rows = sum(segments[i][1] - segments[i][0] for i in done)
            tracker.add_touched(rows=rows, nbytes=encoded + materialized)
            tracker.add_scan_bytes(encoded=encoded, materialized=materialized)
        if heat is not None:
            # One batched update per column per scan, never per segment.
            skipped = [i for i, v in enumerate(verdicts) if v == ZONE_SKIP]
            full = [i for i, v in enumerate(verdicts) if v == ZONE_FULL]
            for c, conjunct in enumerate(conjuncts):
                heat.record_scan(
                    conjunct.column,
                    probed=[(i, *done[i][1][c]) for i in order],
                    skipped=skipped,
                    full=full,
                )

    pieces: List[NDArray[np.int64]] = []
    for i, verdict in enumerate(verdicts):
        if verdict == ZONE_FULL:
            pieces.append(np.arange(segments[i][0], segments[i][1], dtype=np.int64))
        elif verdict == ZONE_PROBE and done[i][0].shape[0]:
            pieces.append(done[i][0])
    if not pieces:
        return np.empty(0, dtype=np.int64)
    out = np.concatenate(pieces) if len(pieces) > 1 else pieces[0]
    stats.rows_out += int(out.shape[0])
    return out

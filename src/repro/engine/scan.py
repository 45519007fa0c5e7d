"""The segment scanner: classify, then skip / accept / probe, then gather.

The paper's filter step (Section 3.2-3.3) is one idea: per-segment
metadata decides whether a segment can be skipped, accepted wholesale, or
must be looked at, and only the straddling segments touch data.  Every
segmented access path — imprint vectors in
:mod:`repro.core.imprints.segments`, packed blocks in
:mod:`repro.engine.compressed` — hands :func:`scan_segments` its
per-segment ``(start, stop, zmin, zmax)`` and a *prober* for one
segment; the loop around them is written here, once.

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
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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

#: A prober evaluates the predicate on segment ``i`` and returns
#: ``(sorted global oids, encoded bytes read, materialized bytes read)``.
Prober = Callable[[int], Tuple[NDArray[np.int64], int, int]]

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
    #: Encoded payload bytes the probes scanned.
    encoded_bytes: int = 0
    #: Bytes of plain (decoded) arrays the probes read.
    materialized_bytes: int = 0
    rows_out: int = 0


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
    lo, hi, lo_inclusive, hi_inclusive, negate = predicate
    verdicts: List[int] = []
    for start, stop, zmin, zmax in segments:
        if stop <= start:
            verdict = ZONE_SKIP
        elif zmin is None or zmax is None:
            verdict = ZONE_PROBE
        else:
            verdict = zone_verdict(zmin, zmax, lo, hi, lo_inclusive, hi_inclusive)
            if negate and verdict != ZONE_PROBE:
                verdict = ZONE_FULL if verdict == ZONE_SKIP else ZONE_SKIP
        verdicts.append(verdict)
    return verdicts


def scan_segments(
    column: str,
    segments: Sequence[Segment],
    predicate: RangePredicate,
    probe: Prober,
    threads: Optional[int] = None,
    stats: Optional[ScanStats] = None,
) -> NDArray[np.int64]:
    """Sorted global oids of the rows of ``segments`` matching ``predicate``.

    Zone maps first: disjoint segments are skipped and fully covered ones
    accepted wholesale, both without touching data.  Only the straddling
    segments pay ``probe``, fanned out over ``threads`` workers; results
    concatenate in segment order, so the answer is identical for every
    thread count.  ``column`` names the scan in the heat map; ``stats``
    receives the verdict counts up front and the probe volumes as they
    complete.
    """
    stats = stats if stats is not None else ScanStats()
    verdicts = zone_verdicts(segments, predicate)
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
    done: Dict[int, Tuple[NDArray[np.int64], int, int]] = {}

    def probe_one(i: int) -> None:
        if active is not None:
            active.check_deadline()
        if hook is not None:
            hook(i)
        done[i] = probe(i)
        if active is not None:
            active.add_segments(done=1)

    try:
        run_tasks(probe_one, probes, threads=threads)
    finally:
        # Bill what was read, whether or not the scan ran to the end:
        # zone-map skips and wholesale accepts cost zero data access (the
        # paper's point), a probe that never ran likewise.
        heat_probed = [(i, done[i][1], done[i][2]) for i in sorted(done)]
        encoded = sum(p[1] for p in heat_probed)
        materialized = sum(p[2] for p in heat_probed)
        stats.packed_probes += sum(1 for p in heat_probed if p[1])
        stats.encoded_bytes += encoded
        stats.materialized_bytes += materialized
        if tracker is not None and done:
            rows = sum(segments[i][1] - segments[i][0] for i in done)
            tracker.add_touched(rows=rows, nbytes=encoded + materialized)
            tracker.add_scan_bytes(encoded=encoded, materialized=materialized)
        if heat is not None:
            # One batched update per scan, never per segment.
            heat.record_scan(
                column,
                probed=heat_probed,
                skipped=[i for i, v in enumerate(verdicts) if v == ZONE_SKIP],
                full=[i for i, v in enumerate(verdicts) if v == ZONE_FULL],
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

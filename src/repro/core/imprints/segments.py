"""Segmented column imprints: zone maps + per-segment imprint vectors.

:class:`SegmentedImprints` cuts a column into fixed-size,
cacheline-aligned **segments** and gives each one

* a ``(min, max)`` **zone map** — queries skip a segment (or accept it
  wholesale) without touching its imprint or its data, and
* its own bin scheme + imprint vectors + cacheline dictionary, built from
  that segment's values only.

Segments are the unit of build, append and probe:

* **build** — segments are independent, so the first range query builds
  them one at a time, each from its own slice;
* **append** — new rows only ever create (or complete) trailing segments;
  the existing ones are immutable, so ``extend`` is O(appended), not O(n);
* **probe** — the zone maps settle most segments, and only the
  straddling ones pay an imprint probe + exact verification; per-segment
  results concatenate in segment order into the usual sorted candidate
  list.

One segment spanning the whole column (``segment_rows=len(column)``) is
the paper's single-unit imprint, the index the E-series benches report.

Indexes over different columns of one table that cut its rows into the
same segments and cache lines can be probed **together**:
:func:`select_conjunction` ANDs their per-cacheline match masks before
any value is read (the paper's Section 3.3 filter on X *and* Y), so the
false positives of the axes multiply instead of adding up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from ...engine.column import Column
from ...engine.kernels import (
    ZONE_FULL,
    ZONE_PROBE,
    ZONE_SKIP,
    RangePredicate,
    bounds_mask,
)
from ...engine.scan import (
    Conjunct,
    ScanStats,
    Zones,
    scan_segments,
    zone_verdicts,
    zones_of,
)
from ...obs import queries as _queries
from . import bitvec, dictionary
from .histogram import DEFAULT_SAMPLE, MAX_BINS, BinScheme, build_bins

if TYPE_CHECKING:
    from ..query import QueryStats

#: Default segment length in rows.  A multiple of 64 so it is aligned to
#: whole cache lines for every supported dtype (vpc is a power of two
#: <= 64 at the default cacheline size), and big enough that per-segment
#: Python overhead stays far below the numpy kernels it wraps.
DEFAULT_SEGMENT_ROWS = 64 * 1024

#: A probed segment whose imprint vectors leave more than this share of
#: its cache lines alive compares the contiguous column slices instead
#: of gathering the surviving lines.  Measured with the ``take`` gather
#: on the 10^7-point shuffled store (2-vCPU Xeon, the 120
#: ``rect_shuffled`` boxes, sum over the ops, median of five passes,
#: cuts interleaved): cut 0 (always dense) → 5719 ms, 0.05 → 4736,
#: 0.125 → 4218, 0.25 → 3995, 1/3 → 3917, 1 (always gather) → 4347.
#: Always gathering costs the 10^-1 boxes 17 % (75 against 64 ms);
#: never gathering costs the 10^-5 ones 2.4× (39 against 17 ms).  A
#: three-pass sweep the same hour ranked 0.125 first (3394 against
#: 3912 / 3822 ms for 0.25 / 1/3): between 1/8 and 1/3 the order flips
#: with the run-to-run spread, so the cut stays.
DENSE_LINE_SHARE = 1 / 8


@dataclass(frozen=True)
class ImprintStats:
    """Size and shape diagnostics for one imprint (E2/E4 benches)."""

    n_rows: int
    n_lines: int
    n_bins: int
    n_entries: int
    n_vectors: int
    index_bytes: int
    column_bytes: int

    @property
    def overhead(self) -> float:
        """Index bytes as a fraction of the indexed column bytes — the
        quantity the paper reports as "5-12% storage overhead"."""
        return (
            self.index_bytes / self.column_bytes if self.column_bytes else 0.0
        )

    @property
    def dict_compression(self) -> float:
        """Uncompressed per-line vectors bytes / stored dictionary bytes."""
        raw = 8 * self.n_lines
        dict_bytes = 4 * self.n_entries + 8 * self.n_vectors
        return raw / dict_bytes if dict_bytes else float("inf")


@dataclass
class SegmentImprint:
    """One immutable segment of a segmented imprints index.

    ``start``/``stop`` are row positions in the column; ``zmin``/``zmax``
    the segment's value range (the zone map); the rest is the segment's
    bin scheme, cacheline dictionary and per-vector line coverage.
    """

    start: int
    stop: int
    zmin: object
    zmax: object
    scheme: BinScheme
    cdict: dictionary.CachelineDict
    coverage: NDArray[Any]

    @property
    def n_rows(self) -> int:
        return self.stop - self.start

    @property
    def n_lines(self) -> int:
        return self.cdict.n_lines

    @property
    def nbytes(self) -> int:
        """Dictionary + borders + the two zone-map values (16 bytes)."""
        return self.cdict.nbytes + self.scheme.nbytes + 16


def build_segment(
    values: NDArray[Any],
    start: int,
    stop: int,
    vpc: int,
    max_bins: int = MAX_BINS,
    sample_size: int = DEFAULT_SAMPLE,
    max_counter: int = dictionary.MAX_COUNTER,
    zone: Optional[Tuple[Any, Any]] = None,
) -> SegmentImprint:
    """Build one segment's imprint from the column slice ``[start, stop)``.

    Pure function of the slice: each build seeds its own sampling RNG, so
    a segment's index does not depend on which segments were built
    before it.  ``zone`` supplies a precomputed ``(zmin, zmax)``
    when the caller already knows the range — the compressed mirror's FOR
    headers carry it for free, saving the min/max sweep here.
    """
    part = values[start:stop]
    scheme = build_bins(part, max_bins=max_bins, sample_size=sample_size)
    vectors = bitvec.build_vectors(part, scheme, vpc)
    cdict = dictionary.compress(vectors, max_counter=max_counter)
    if zone is None:
        zone = (part.min(), part.max())
    return SegmentImprint(
        start=start,
        stop=stop,
        zmin=zone[0],
        zmax=zone[1],
        scheme=scheme,
        cdict=cdict,
        coverage=cdict.coverage(),
    )


class SegmentedImprints:
    """A segmented imprints index over a snapshot of one column.

    The index behind the :class:`~.manager.ImprintsManager`: exact
    queries (sorted oids over the indexed prefix) with segment-granular
    builds, appends and probes.

    Parameters
    ----------
    column:
        The column to index (snapshot length recorded at build time).
    segment_rows:
        Segment length in rows; rounded up to a whole number of cache
        lines so segment borders never split an imprint vector.
    max_bins:
        Per-segment bin budget, at most 64.
    cacheline_bytes:
        Modelled cache line size; with the column's itemsize this sets the
        vector granularity (8 doubles per 64-byte line by default).
    sample_size:
        Sample each segment's bins are derived from.
    max_counter:
        Dictionary counter cap (24-bit in MonetDB).
    """

    def __init__(
        self,
        column: Column,
        segment_rows: int = DEFAULT_SEGMENT_ROWS,
        max_bins: int = MAX_BINS,
        cacheline_bytes: int = bitvec.CACHELINE_BYTES,
        sample_size: int = DEFAULT_SAMPLE,
        max_counter: int = dictionary.MAX_COUNTER,
    ) -> None:
        if len(column) == 0:
            raise ValueError("cannot build imprints over an empty column")
        if segment_rows < 1:
            raise ValueError("segment_rows must be positive")
        self.column = column
        self.vpc = bitvec.values_per_cacheline(
            column.dtype.itemsize, cacheline_bytes
        )
        # Align segments to whole cache lines.
        self.segment_rows = ((segment_rows + self.vpc - 1) // self.vpc) * self.vpc
        self.max_bins = max_bins
        self.sample_size = sample_size
        self.max_counter = max_counter
        self._set_segments([], 0)
        self.extend()

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_parts(
        cls,
        column: Column,
        vpc: int,
        segment_rows: int,
        n_rows: int,
        segments: List[SegmentImprint],
    ) -> "SegmentedImprints":
        """Reassemble an index from persisted parts (see ``persist``)."""
        instance = cls.__new__(cls)
        instance.column = column
        instance.vpc = vpc
        instance.segment_rows = segment_rows
        instance.max_bins = MAX_BINS
        instance.sample_size = DEFAULT_SAMPLE
        instance.max_counter = dictionary.MAX_COUNTER
        instance._set_segments(segments, n_rows)
        return instance

    def _set_segments(self, segments: List[SegmentImprint], n_rows: int) -> None:
        """Install ``segments`` and the scanner's arrays of their rows
        and zone maps; the only place either changes."""
        self.segments = segments
        self.n_rows = n_rows
        self.zones: Zones = zones_of([(s.start, s.stop, s.zmin, s.zmax) for s in segments])

    def extend(self) -> int:
        """Index rows appended since the last build; returns segments built.

        Existing full segments are immutable and untouched.  A trailing
        *partial* segment is rebuilt (bounded by ``segment_rows``, so still
        O(appended + one segment)); everything beyond it is new.  The
        deadline is checked before each segment's build.
        """
        values = np.asarray(self.column.values)
        n = values.shape[0]
        if n == self.n_rows:
            return 0
        # Columns are append-only; a shrunk column means this index
        # belongs to different data.  Rebuild from scratch.
        kept = self.segments if n > self.n_rows else []
        rebuild_from = self.n_rows if kept else 0
        if kept and kept[-1].n_rows < self.segment_rows:
            rebuild_from = kept[-1].start
            kept = kept[:-1]
        spans = [
            (start, min(start + self.segment_rows, n))
            for start in range(rebuild_from, n, self.segment_rows)
        ]
        zones = self._packed_zones()
        built: List[SegmentImprint] = []
        for span in spans:
            _queries.check_deadline()
            built.append(
                build_segment(
                    values,
                    span[0],
                    span[1],
                    self.vpc,
                    max_bins=self.max_bins,
                    sample_size=self.sample_size,
                    max_counter=self.max_counter,
                    zone=zones.get(span),
                )
            )
        self._set_segments(kept + built, n)
        return len(spans)

    def _packed_zones(self) -> Dict[Tuple[int, int], Tuple[Any, Any]]:
        """Zone maps the column's compressed mirror already knows.

        Every :class:`~repro.engine.compression.CompressedBlock` records
        its value range at encode time (for FOR blocks it *is* the
        header: reference and reference + span), so any imprint segment
        that lines up with a mirror segment gets its zone map without a
        min/max sweep.
        """
        packed = self.column.packed
        if packed is None:
            return {}
        zones: Dict[Tuple[int, int], Tuple[Any, Any]] = {}
        for i, block in enumerate(packed.blocks):
            if block.zmin is not None and block.zmax is not None:
                zones[packed.segment_bounds(i)] = (block.zmin, block.zmax)
        return zones

    # -- bookkeeping -----------------------------------------------------------

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def n_lines(self) -> int:
        return sum(seg.n_lines for seg in self.segments)

    @property
    def stale(self) -> bool:
        """True when the column has grown past the indexed snapshot."""
        return len(self.column) != self.n_rows

    @property
    def nbytes(self) -> int:
        """Total index bytes across all segments."""
        return sum(seg.nbytes for seg in self.segments)

    def stats(self) -> ImprintStats:
        """Aggregate :class:`ImprintStats` over all segments."""
        return ImprintStats(
            n_rows=self.n_rows,
            n_lines=self.n_lines,
            n_bins=max((seg.scheme.n_bins for seg in self.segments), default=0),
            n_entries=sum(seg.cdict.n_entries for seg in self.segments),
            n_vectors=sum(
                seg.cdict.vectors.shape[0] for seg in self.segments
            ),
            index_bytes=self.nbytes,
            column_bytes=self.n_rows * self.column.dtype.itemsize,
        )

    # -- query -----------------------------------------------------------------

    def _verdicts(self, lo: Optional[Any], hi: Optional[Any]) -> NDArray[np.int8]:
        """Zone-map verdict per segment for the closed range ``[lo, hi]``,
        by the same algebra :meth:`query` scans with."""
        return zone_verdicts(self.zones, RangePredicate(lo, hi))

    def _line_mask(
        self, seg: SegmentImprint, lo: Optional[Any], hi: Optional[Any]
    ) -> NDArray[np.bool_]:
        """Per cache line of ``seg``: may it hold a value in ``[lo, hi]``?"""
        mask = seg.scheme.range_mask(lo, hi)
        if mask == 0:
            return np.zeros(seg.n_lines, dtype=bool)
        vec_match: NDArray[np.bool_] = bitvec.match_vectors(seg.cdict.vectors, mask)
        if seg.cdict.vectors.shape[0] != seg.n_lines:
            return vec_match.repeat(seg.coverage)
        return vec_match

    def same_grid(self, other: "SegmentedImprints") -> bool:
        """True when ``other`` cuts the same rows into the same segments
        and cache lines, so the two indexes' per-line masks can be ANDed."""
        return (
            self.n_rows == other.n_rows
            and self.segment_rows == other.segment_rows
            and self.vpc == other.vpc
            and np.array_equal(self.zones.starts, other.zones.starts)
            and np.array_equal(self.zones.stops, other.zones.stops)
        )

    def query(
        self,
        lo: Optional[Any],
        hi: Optional[Any],
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
        stats: Optional["QueryStats"] = None,
    ) -> NDArray[Any]:
        """Exact range select over the indexed prefix, sorted oids.

        Zone maps first: disjoint segments are skipped and fully-covered
        segments accepted wholesale, both without touching data.  Only the
        straddling segments pay an imprint probe + exact verification.
        ``stats`` receives the scan.
        """
        term = RangeTerm(
            self.column, self, RangePredicate(lo, hi, lo_inclusive, hi_inclusive)
        )
        return select_conjunction(
            self, [term], scan=stats.scan if stats is not None else None
        )

    # -- diagnostics -----------------------------------------------------------

    def candidate_rows(self, lo: Optional[Any], hi: Optional[Any]) -> NDArray[Any]:
        """Candidate oids (superset of the exact result), sorted."""
        pieces: List[NDArray[Any]] = []
        verdicts = self._verdicts(lo, hi)
        for i in np.flatnonzero(verdicts != ZONE_SKIP).tolist():
            _queries.check_deadline()
            seg = self.segments[i]
            if verdicts[i] == ZONE_FULL:
                pieces.append(np.arange(seg.start, seg.stop, dtype=np.int64))
                continue
            lines = np.flatnonzero(self._line_mask(seg, lo, hi))
            if lines.shape[0] == 0:
                continue
            rows = (
                lines[:, None] * self.vpc + np.arange(self.vpc, dtype=np.int64)
            ).ravel() + seg.start
            pieces.append(rows[rows < seg.stop])
        if not pieces:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(pieces) if len(pieces) > 1 else pieces[0]

    def scanned_fraction(self, lo: Optional[Any], hi: Optional[Any]) -> float:
        """Fraction of cache lines whose *data* the query must touch.

        Zone-map skips and wholesale accepts both cost zero data access,
        so only probed segments' candidate lines count.
        """
        total = self.n_lines
        if total == 0:
            return 0.0
        touched = 0
        for i in np.flatnonzero(self._verdicts(lo, hi) == ZONE_PROBE).tolist():
            _queries.check_deadline()
            touched += int(np.count_nonzero(self._line_mask(self.segments[i], lo, hi)))
        return float(touched / total)

    def false_positive_rate(self, lo: Optional[Any], hi: Optional[Any]) -> float:
        """Fraction of candidate rows the exact check discards."""
        rows = self.candidate_rows(lo, hi)
        if rows.shape[0] == 0:
            return 0.0
        exact = self.query(lo, hi)
        return float(1.0 - exact.shape[0] / rows.shape[0])


class RangeTerm(NamedTuple):
    """A range predicate on ``column`` as one term of
    :func:`select_conjunction` (imprint vectors cannot answer a
    complement, so ``predicate.negate`` is rejected).

    ``index`` is an imprint over ``column`` on the scan's segment grid, or
    ``None``: the term then has no zone maps and no vectors, and its
    values are simply compared wherever the other terms leave rows.
    """

    column: Column
    index: Optional[SegmentedImprints]
    predicate: RangePredicate


_NO_OIDS: NDArray[np.int64] = np.empty(0, dtype=np.int64)


def select_conjunction(
    grid: SegmentedImprints,
    terms: Sequence[RangeTerm],
    scan: Optional[ScanStats] = None,
) -> NDArray[np.int64]:
    """Sorted oids of the rows of ``grid``'s snapshot satisfying every term.

    One segment scan for the whole conjunction: the scanner settles a
    segment from the zone maps of all terms, and a probed segment ANDs
    the per-cacheline match masks of every term that straddles it and
    has an imprint — before any value is read.  What survives decides
    the form of the exact check: more than :data:`DENSE_LINE_SHARE` of
    the lines (or no vectors at all, or a partial tail line) compares
    the contiguous slices; fewer gathers just those lines of each
    straddling column.  Every term's ``index`` must be ``None`` or
    satisfy ``grid.same_grid(index)``.
    """
    if any(term.predicate.negate for term in terms):
        raise ValueError("select_conjunction takes plain ranges, not complements")
    scan = scan if scan is not None else ScanStats()
    segments = grid.segments
    starts, stops = grid.zones.starts, grid.zones.stops
    vpc = grid.vpc
    # ``vpc`` is a power of two: a gathered hit's line and in-line
    # position are a shift and a mask of its flat position.
    line_shift, in_line = vpc.bit_length() - 1, vpc - 1
    values = [np.asarray(term.column.values) for term in terms]
    dense_forms: List[bool] = []  # one per probe that read values

    def probe(
        i: int, own: Sequence[int]
    ) -> Tuple[NDArray[np.int64], List[Tuple[int, int]]]:
        start, stop = int(starts[i]), int(stops[i])
        n_lines = segments[i].n_lines
        # A term whose zone map covers the segment holds on every row.
        live = [c for c, verdict in enumerate(own) if verdict == ZONE_PROBE]
        reads = [(0, 0)] * len(terms)
        alive: Optional[NDArray[np.bool_]] = None
        for c in live:
            index, predicate = terms[c].index, terms[c].predicate
            if index is not None:
                lines = index._line_mask(index.segments[i], predicate.lo, predicate.hi)
                alive = lines if alive is None else alive & lines
        # The lines to gather, or None for the dense form.
        picked: Optional[NDArray[np.intp]] = None
        if alive is not None and (stop - start) % vpc == 0:
            n_alive = np.count_nonzero(alive)
            if n_alive == 0:
                return _NO_OIDS, reads
            if n_alive <= n_lines * DENSE_LINE_SHARE:
                picked = alive.nonzero()[0]
        hit: Optional[NDArray[np.bool_]] = None
        for c in live:
            part = values[c][start:stop]
            if picked is not None:
                part = part.reshape(n_lines, vpc).take(picked, axis=0)
            lo, hi, lo_inclusive, hi_inclusive, _ = terms[c].predicate
            match = bounds_mask(part, lo, hi, lo_inclusive, hi_inclusive)
            hit = match if hit is None else hit & match
            reads[c] = (0, int(part.nbytes))
        assert hit is not None  # a probed segment has a straddling term
        if picked is None:
            oids = np.flatnonzero(hit) + start
        else:
            pos = hit.ravel().nonzero()[0]
            oids = picked.take(pos >> line_shift) * vpc + ((pos & in_line) + start)
        dense_forms.append(picked is None)
        return oids.astype(np.int64, copy=False), reads

    bare = Zones(starts, stops)
    conjuncts = [
        Conjunct(
            term.column.name,
            term.index.zones if term.index is not None else bare,
            term.predicate,
        )
        for term in terms
    ]
    oids = scan_segments(conjuncts, probe, stats=scan)
    scan.dense_probes += sum(dense_forms)
    scan.gather_probes += len(dense_forms) - sum(dense_forms)
    return oids

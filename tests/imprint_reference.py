"""Reference imprint build for parity tests.

These are the straightforward forms of the imprint build: every value
binned by ``np.searchsorted`` over the borders, each cache line's vector
folded with ``np.bitwise_or.reduce``, the cacheline dictionary always
split at ``max_counter``, and a fresh ``default_rng(0xC0FFEE)`` drawing
each segment's sample.  The production build in
:mod:`repro.core.imprints` bins through a bucket table, folds strided
columns in place and caches the sample positions; tests require it to
equal these bit for bit.  Test-only: nothing under ``src/`` may import it.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

from repro.core.imprints.dictionary import MAX_COUNTER, CachelineDict
from repro.core.imprints.histogram import DEFAULT_SAMPLE, MAX_BINS, BinScheme, build_bins
from repro.core.imprints.segments import SegmentImprint


def bin_of_reference(scheme: BinScheme, values: Any) -> np.ndarray:
    """The number of borders ``<= v`` for every value."""
    return np.searchsorted(scheme.borders, np.asarray(values), side="right")


def build_vectors_reference(values: Any, scheme: BinScheme, vpc: int) -> np.ndarray:
    """One uint64 vector per cache line; the last line repeats the final
    value's bin."""
    values = np.asarray(values)
    n = values.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    bins = bin_of_reference(scheme, values).astype(np.uint64)
    n_lines = (n + vpc - 1) // vpc
    pad = n_lines * vpc - n
    if pad:
        bins = np.concatenate([bins, np.repeat(bins[-1], pad)])
    bits = np.left_shift(np.uint64(1), bins)
    return np.bitwise_or.reduce(bits.reshape(n_lines, vpc), axis=1)


def compress_reference(vectors: Any, max_counter: int = MAX_COUNTER) -> CachelineDict:
    """Cacheline dictionary, every run and streak split at ``max_counter``."""
    vectors = np.asarray(vectors, dtype=np.uint64)
    n = vectors.shape[0]
    if n == 0:
        return CachelineDict(
            counters=np.empty(0, dtype=np.int64),
            repeats=np.empty(0, dtype=bool),
            vectors=vectors,
            n_lines=0,
        )
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = vectors[1:] != vectors[:-1]
    run_starts = np.flatnonzero(change)
    run_lengths = np.diff(np.append(run_starts, n))
    run_vectors = vectors[run_starts]

    n_full = run_lengths // max_counter
    remainder = run_lengths % max_counter
    per_run = n_full + (remainder > 0)
    n_items = int(per_run.sum())
    item = np.arange(n_items)
    run_of = np.repeat(np.arange(run_starts.shape[0]), per_run)
    first_item = np.cumsum(per_run) - per_run
    position = item - first_item[run_of]
    lines = np.where(position < n_full[run_of], max_counter, remainder[run_of])
    single = lines == 1

    streak_start = single.copy()
    streak_start[1:] &= ~single[:-1]
    in_streak = item - np.maximum.accumulate(np.where(streak_start, item, 0))
    opens = ~single | (in_streak % max_counter == 0)
    entry_starts = np.flatnonzero(opens)
    repeats = ~single[entry_starts]
    counters = np.where(
        repeats, lines[entry_starts], np.diff(np.append(entry_starts, n_items))
    )
    return CachelineDict(
        counters=counters.astype(np.int64, copy=False),
        repeats=repeats,
        vectors=run_vectors[run_of],
        n_lines=n,
    )


def build_segment_reference(
    values: Any,
    start: int,
    stop: int,
    vpc: int,
    max_bins: int = MAX_BINS,
    sample_size: int = DEFAULT_SAMPLE,
    max_counter: int = MAX_COUNTER,
    zone: Optional[Tuple[Any, Any]] = None,
) -> SegmentImprint:
    """One segment's imprint, its sample drawn by a fresh generator."""
    part = np.asarray(values)[start:stop]
    scheme = build_bins(
        part,
        max_bins=max_bins,
        sample_size=sample_size,
        rng=np.random.default_rng(0xC0FFEE),
    )
    cdict = compress_reference(
        build_vectors_reference(part, scheme, vpc), max_counter=max_counter
    )
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

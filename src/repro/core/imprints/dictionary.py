"""Cacheline-dictionary compression of imprint vector sequences.

Consecutive cache lines frequently produce identical imprint vectors
(data "often exhibits local clustering or partial ordering as a side effect
of the construction process", Section 2.1.1).  The imprint therefore does
not store one vector per cacheline; it stores a *cacheline dictionary* of
``(counter, repeat)`` entries over a deduplicated vector list:

* ``repeat = 1``: the next stored vector stands for ``counter`` consecutive
  cache lines.
* ``repeat = 0``: the next ``counter`` stored vectors stand for one cache
  line each.

Counters are bounded (24 bits in MonetDB); longer runs split into several
entries.  Compression is lossless — :func:`decompress` restores the exact
per-cacheline sequence — and CPU-friendly: queries scan entries linearly
and test each stored vector once regardless of how many cache lines it
covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from numpy.typing import NDArray

#: MonetDB packs the counter into 24 bits of a 32-bit dictionary entry.
MAX_COUNTER = (1 << 24) - 1


@dataclass(frozen=True)
class CachelineDict:
    """Compressed imprint vector sequence.

    Attributes
    ----------
    counters:
        Entry counters (int64; values in [1, MAX_COUNTER]).
    repeats:
        Entry repeat flags, aligned with ``counters``.
    vectors:
        Deduplicated imprint vectors: one per repeat entry, ``counter``
        per non-repeat entry, in entry order.
    n_lines:
        Total cache lines represented.
    """

    counters: NDArray[Any]
    repeats: NDArray[Any]
    vectors: NDArray[Any]
    n_lines: int

    @property
    def n_entries(self) -> int:
        return self.counters.shape[0]

    @property
    def nbytes(self) -> int:
        """Storage footprint: 4 bytes per entry (24-bit counter + flag,
        padded to a word as in MonetDB) plus 8 bytes per stored vector."""
        return 4 * self.n_entries + 8 * self.vectors.shape[0]

    def coverage(self) -> NDArray[Any]:
        """Cache lines covered by each *stored vector*, in vector order.

        Repeat entries contribute one vector covering ``counter`` lines;
        non-repeat entries contribute ``counter`` vectors covering one line
        each.  ``np.repeat(per_vector_flags, coverage())`` therefore expands
        any per-vector computation to per-cacheline granularity.
        """
        reps = self.repeats
        cnts = self.counters
        sizes = np.where(reps, 1, cnts)  # stored vectors per entry
        per_vector = np.ones(int(sizes.sum()), dtype=np.int64)
        # First vector of each repeat entry covers `counter` lines.
        starts = np.cumsum(sizes) - sizes
        per_vector[starts[reps]] = cnts[reps]
        return per_vector


def compress(vectors: NDArray[Any], max_counter: int = MAX_COUNTER) -> CachelineDict:
    """Build the cacheline dictionary from a raw per-cacheline sequence."""
    vectors = np.asarray(vectors, dtype=np.uint64)
    n = vectors.shape[0]
    if max_counter < 1:
        raise ValueError("max_counter must be >= 1")
    if n == 0:
        empty64 = np.empty(0, dtype=np.int64)
        return CachelineDict(
            counters=empty64,
            repeats=np.empty(0, dtype=bool),
            vectors=vectors,
            n_lines=0,
        )

    # Run-length encode the vector sequence.
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = vectors[1:] != vectors[:-1]
    run_starts = np.flatnonzero(change)
    run_lengths = np.diff(np.append(run_starts, n))
    run_vectors = vectors[run_starts]

    # Every run becomes a sequence of *items*, one stored vector each:
    # as many full ``max_counter`` pieces as fit, then the remainder.  An
    # item of one line is a single; anything longer is a repeat entry.
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

    # Consecutive singles coalesce into non-repeat entries of at most
    # ``max_counter`` vectors: a single opens an entry at the start of
    # its streak and every ``max_counter`` items after.
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


def decompress(cdict: CachelineDict) -> NDArray[Any]:
    """Restore the exact per-cacheline imprint vector sequence."""
    if cdict.n_lines == 0:
        return np.empty(0, dtype=np.uint64)
    return np.repeat(cdict.vectors, cdict.coverage())

"""Per-cacheline 64-bit imprint vectors.

"A column imprint ... is a collection of 64-bit vectors, each indexing data
points that fit into a single cache line.  Each of the 64 bits is
associated with a range of values.  A bit is set to 1 when the cache line
indexed by the vector contains values in the corresponding range."
(Section 2.1.1.)

This module turns a value array plus a :class:`~.histogram.BinScheme` into
that vector sequence.  The cacheline granularity is expressed in *values
per cacheline*; with 64-byte cache lines and 8-byte coordinates the default
is 8 values, exactly MonetDB's granularity for doubles.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.typing import NDArray

from .histogram import BinScheme

#: Cache line size assumed throughout, in bytes (the paper's 64-bit CPUs).
CACHELINE_BYTES = 64


def values_per_cacheline(itemsize: int, cacheline_bytes: int = CACHELINE_BYTES) -> int:
    """How many values of the given width share one cache line (>= 1)."""
    if itemsize <= 0:
        raise ValueError("itemsize must be positive")
    return max(1, cacheline_bytes // itemsize)


def build_vectors(
    values: NDArray[Any], scheme: BinScheme, vpc: int
) -> NDArray[Any]:
    """One uint64 imprint vector per cacheline of ``values``.

    The last (partial) cacheline is padded by repeating the final value,
    which adds no spurious bits because that value's bin is already set.
    """
    values = np.asarray(values)
    if vpc <= 0:
        raise ValueError("values per cacheline must be positive")
    n = values.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    bins = scheme.bin_of(values).astype(np.uint64)
    n_lines = (n + vpc - 1) // vpc
    pad = n_lines * vpc - n
    if pad:
        bins = np.concatenate([bins, np.repeat(bins[-1], pad)])
    bits = np.left_shift(np.uint64(1), bins, out=bins).reshape(n_lines, vpc)
    if vpc > 16:  # else ORing the strided columns in place is faster
        return np.bitwise_or.reduce(bits, axis=1)
    vectors = bits[:, 0].copy()
    for column in range(1, vpc):
        vectors |= bits[:, column]
    return vectors


def match_vectors(vectors: NDArray[Any], mask: int) -> NDArray[Any]:
    """Boolean array: which imprint vectors intersect the query bin mask."""
    return (vectors & np.uint64(mask)) != 0

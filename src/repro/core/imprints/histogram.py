"""Global bin boundaries for column imprints.

An imprint maps every column value to one of at most 64 bins.  Following
Sidirourgos & Kersten (SIGMOD 2013), the bin borders are *global* to the
imprint and "decided based on the distribution of the values of the indexed
column": we sample the column, sort the sample, and cut it into equi-depth
bins, so each bin receives roughly the same number of values regardless of
skew.  Low-cardinality columns get fewer (power-of-two) bins so every
distinct value can own a bin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np
from numpy.typing import NDArray

#: Hard cap from the paper: one bit per bin in a 64-bit imprint vector.
MAX_BINS = 64

#: Default sample size used to estimate the value distribution.
DEFAULT_SAMPLE = 2048


@dataclass(frozen=True)
class BinScheme:
    """The global binning of an imprint.

    Attributes
    ----------
    borders:
        Ascending interior borders; ``len(borders) == n_bins - 1``.  Value
        ``v`` belongs to bin ``searchsorted(borders, v, side='right')``
        (the number of borders ``<= v``): bin 0 holds ``v < borders[0]``,
        bin ``b`` holds ``borders[b-1] <= v < borders[b]``, and the last
        bin holds ``v >= borders[-1]``.  The first and last bins thereby
        absorb out-of-sample extremes, as in the reference implementation.
    n_bins:
        Number of bins, a power of two between 1 and 64.
    """

    borders: NDArray[Any]
    n_bins: int = field(default=0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_bins", len(self.borders) + 1)

    @property
    def nbytes(self) -> int:
        """Bytes occupied by the border array (counted as index overhead)."""
        return self.borders.nbytes

    def bin_of(self, values: NDArray[Any]) -> NDArray[Any]:
        """Bin id for each value (vectorised)."""
        return np.searchsorted(self.borders, np.asarray(values), side="right")

    def range_mask(self, lo: Optional[Any], hi: Optional[Any]) -> int:
        """64-bit mask with a 1 for every bin that may hold values in [lo, hi].

        ``None`` bounds mean unbounded.  This is the query-side mask that is
        ANDed against each imprint vector; a non-zero AND marks a candidate
        cacheline.
        """
        if lo is None:
            first = 0
        else:
            # bin_of is monotone in the value, so every v >= lo lands in a
            # bin >= bin_of(lo); bins below `first` hold only values < lo.
            first = int(self.borders.searchsorted(lo, side="right"))
        if hi is None:
            last = self.n_bins - 1
        else:
            last = int(self.borders.searchsorted(hi, side="right"))
        last = min(last, self.n_bins - 1)
        if first > last:
            return 0
        width = last - first + 1
        return ((1 << width) - 1) << first


def _pow2_at_most(n: int, cap: int = MAX_BINS) -> int:
    """Largest power of two <= max(n, 1), capped."""
    p = 1
    while p * 2 <= min(n, cap):
        p *= 2
    return p


def build_bins(
    values: NDArray[Any],
    max_bins: int = MAX_BINS,
    sample_size: int = DEFAULT_SAMPLE,
    rng: Optional[np.random.Generator] = None,
) -> BinScheme:
    """Derive a :class:`BinScheme` from (a sample of) the column values.

    Equi-depth cut points over a sorted sample; duplicate cut points are
    collapsed, and the bin count is rounded down to a power of two so the
    query mask arithmetic stays cheap (mirroring the paper's use of 8, 16,
    32 or 64 ranges depending on column cardinality).
    """
    values = np.asarray(values)
    if values.shape[0] == 0:
        raise ValueError("cannot build imprint bins for an empty column")
    if not 1 <= max_bins <= MAX_BINS:
        raise ValueError(f"max_bins must be in [1, {MAX_BINS}]")

    if values.shape[0] > sample_size:
        rng = rng if rng is not None else np.random.default_rng(0xC0FFEE)
        sample = values[rng.integers(0, values.shape[0], sample_size)]
    else:
        sample = values
    uniques = np.unique(sample)

    n_bins = _pow2_at_most(uniques.shape[0], max_bins)
    if n_bins <= 1:
        return BinScheme(borders=np.empty(0, dtype=values.dtype))

    # Equi-depth borders: the values at the (k/n_bins)-quantile positions of
    # the distinct sampled values; distinctness guarantees strictly
    # ascending borders.
    positions = (np.arange(1, n_bins) * uniques.shape[0]) // n_bins
    positions = np.clip(positions, 0, uniques.shape[0] - 1)
    borders = np.unique(uniques[positions])
    return BinScheme(borders=borders)

"""Column imprints: the cache-conscious secondary index of the paper.

Public surface:

* :class:`SegmentedImprints` — index one column: per-segment zone maps +
  imprint vectors, incremental appends, per-segment probes; ``query(lo,
  hi)`` returns the exact candidate-verified oid list.  One segment over
  the whole column is the paper's single-unit imprint.
* :class:`ImprintsManager` — lazy creation on first range query,
  incremental extension on append, the lifecycle MonetDB implements.
* :func:`build_bins` / :class:`BinScheme` — the global 64-bin histogram.
* :mod:`~.dictionary` — the (counter, repeat) cacheline dictionary.
"""

from .bitvec import CACHELINE_BYTES, values_per_cacheline
from .dictionary import MAX_COUNTER, CachelineDict, compress, decompress
from .histogram import DEFAULT_SAMPLE, MAX_BINS, BinScheme, build_bins
from .manager import ImprintsManager
from .segments import DEFAULT_SEGMENT_ROWS, ImprintStats, SegmentedImprints

__all__ = [
    "CACHELINE_BYTES",
    "CachelineDict",
    "DEFAULT_SAMPLE",
    "DEFAULT_SEGMENT_ROWS",
    "SegmentedImprints",
    "ImprintStats",
    "ImprintsManager",
    "MAX_BINS",
    "MAX_COUNTER",
    "BinScheme",
    "build_bins",
    "compress",
    "decompress",
    "values_per_cacheline",
]

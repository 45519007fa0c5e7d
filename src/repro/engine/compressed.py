"""Segmented compressed columns — the execution-side compressed format.

A :class:`CompressedColumn` is a column sliced into fixed-size segments
(the same ``64Ki``-row granularity the segmented imprints use), each
encoded independently by :func:`repro.engine.compression.encode_adaptive`.
Per-segment encoding is what makes compression an *execution* format
rather than a storage codec:

* every block carries its value range from encode time, so a range
  predicate prunes whole segments through
  :func:`repro.engine.kernels.zone_verdict` without touching any
  payload byte;
* segments that must be probed are evaluated by the packed kernels —
  FOR offsets compared at stored width, dictionary/RLE verdicts
  broadcast through codes and run lengths — decoding nothing;
* only predicate survivors are materialized, via
  :func:`repro.engine.kernels.take`.

The loop around those steps is :func:`repro.engine.scan.scan_segments`,
shared with the segmented imprints: this module supplies the per-block
zone maps and the packed prober, the scanner does the pruning, fan-out,
accounting and gather, and fills a :class:`~repro.engine.scan.ScanStats`
so ``EXPLAIN ANALYZE`` can show encoded versus materialized bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from ..obs import queries as _queries
from . import kernels
from .compression import CompressedBlock, CompressionError, decode, encode_adaptive
from .kernels import RangePredicate
from .scan import Conjunct, ScanStats, scan_segments

#: Rows per compressed segment; matches the segmented imprints so one
#: zone-map verdict lines up with one imprint segment.
DEFAULT_SEGMENT_ROWS = 64 * 1024


@dataclass(frozen=True)
class CompressedColumn:
    """An immutable, segmented, compressed snapshot of one column."""

    name: str
    dtype: str
    segment_rows: int
    n_rows: int
    blocks: Tuple[CompressedBlock, ...]
    #: crc32 of the source column's raw bytes at encode time; the
    #: storage layer uses it to detect stale sidecars.
    source_crc: int = 0
    _starts: Tuple[int, ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        counted = sum(b.count for b in self.blocks)
        if counted != self.n_rows:
            raise CompressionError(
                f"segment counts sum to {counted}, column has {self.n_rows} rows"
            )
        if not self._starts:
            starts: List[int] = []
            pos = 0
            for block in self.blocks:
                starts.append(pos)
                pos += block.count
            object.__setattr__(self, "_starts", tuple(starts))

    # -- construction -----------------------------------------------------

    @classmethod
    def from_values(
        cls,
        name: str,
        values: NDArray[Any],
        segment_rows: int = DEFAULT_SEGMENT_ROWS,
        scheme: str = "auto",
        source_crc: int = 0,
    ) -> "CompressedColumn":
        """Encode a value array segment by segment.

        ``scheme="auto"`` picks per segment via
        :func:`~repro.engine.compression.choose_scheme`, so a column can
        mix encodings (RLE where a tile's classification is constant,
        FOR elsewhere).
        """
        if segment_rows <= 0:
            raise CompressionError("segment_rows must be positive")
        values = np.asarray(values)
        blocks: List[CompressedBlock] = []
        for start in range(0, values.shape[0], segment_rows):
            _queries.check_deadline()
            blocks.append(encode_adaptive(values[start : start + segment_rows], scheme))
        return cls(
            name=name,
            dtype=values.dtype.str,
            segment_rows=segment_rows,
            n_rows=int(values.shape[0]),
            blocks=tuple(blocks),
            source_crc=source_crc,
        )

    # -- geometry ----------------------------------------------------------

    def segment_bounds(self, i: int) -> Tuple[int, int]:
        """Global ``[start, stop)`` row range of segment ``i``."""
        start = self._starts[i]
        return start, start + self.blocks[i].count

    @property
    def nbytes(self) -> int:
        """Encoded payload bytes across all segments."""
        return sum(b.nbytes for b in self.blocks)

    @property
    def plain_nbytes(self) -> int:
        """Bytes of the equivalent uncompressed column."""
        return self.n_rows * np.dtype(self.dtype).itemsize

    def scheme_counts(self) -> Dict[str, int]:
        """``{scheme: n_segments}`` — the adaptive encoder's choices."""
        out: Dict[str, int] = {}
        for block in self.blocks:
            out[block.scheme] = out.get(block.scheme, 0) + 1
        return out

    # -- materialization ---------------------------------------------------

    def decode_all(self) -> NDArray[Any]:
        """Full decode (verification, re-saving, non-predicate scans)."""
        if not self.blocks:
            return np.empty(0, dtype=np.dtype(self.dtype))
        return np.concatenate([decode(b) for b in self.blocks])

    def take(self, oids: NDArray[Any]) -> NDArray[Any]:
        """Gather values at sorted global row ids, late-materializing
        from each touched segment only."""
        oids = np.asarray(oids, dtype=np.int64)
        if oids.shape[0] == 0:
            return np.empty(0, dtype=np.dtype(self.dtype))
        starts = np.asarray(self._starts, dtype=np.int64)
        seg_of = np.searchsorted(starts, oids, side="right") - 1
        pieces: List[NDArray[Any]] = []
        for seg in np.unique(seg_of):
            _queries.check_deadline()
            in_seg = oids[seg_of == seg] - starts[seg]
            pieces.append(kernels.take(self.blocks[int(seg)], in_seg))
        return np.concatenate(pieces)

    # -- predicate scans ---------------------------------------------------

    def select(
        self,
        predicate: RangePredicate,
        stats: Optional[ScanStats] = None,
    ) -> NDArray[np.int64]:
        """Row ids matching ``predicate``: zone-map pruning, then the
        packed kernel on the PROBE segments — decoding nothing that does
        not survive."""

        def probe(
            i: int, own: Sequence[int]
        ) -> Tuple[NDArray[np.int64], List[Tuple[int, int]]]:
            block = self.blocks[i]
            mask, packed = kernels.predicate_mask(block, predicate)
            oids = (np.flatnonzero(mask) + self._starts[i]).astype(np.int64, copy=False)
            nbytes = kernels.scan_bytes(block, packed)
            return oids, [(nbytes, 0) if packed else (0, nbytes)]

        zones = [
            (start, start + block.count, block.zmin, block.zmax)
            for start, block in zip(self._starts, self.blocks)
        ]
        return scan_segments(
            [Conjunct(self.name, zones, predicate)], probe, stats=stats
        )

    def range_select(
        self,
        lo: Optional[Any],
        hi: Optional[Any],
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
        stats: Optional[ScanStats] = None,
    ) -> NDArray[np.int64]:
        """Row ids where ``lo <(=) value <(=) hi``."""
        return self.select(
            RangePredicate(lo, hi, lo_inclusive, hi_inclusive), stats
        )

    def theta_select(
        self,
        op: str,
        constant: Any,
        stats: Optional[ScanStats] = None,
    ) -> NDArray[np.int64]:
        """Row ids where ``value <op> constant`` for the six comparison
        operators; every operator reduces to a zone-pruned range probe."""
        return self.select(kernels.theta_range(op, constant), stats)

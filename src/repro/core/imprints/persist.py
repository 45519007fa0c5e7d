"""Imprint persistence: save/restore built indexes with their table.

MonetDB persists imprints next to the BAT files so a restarted server
does not pay the (cheap, but not free) rebuild on first query.  The
format here mirrors the column files: a small header plus the raw arrays
of the bin scheme and the cacheline dictionary.

One ``.imprint`` file (magic ``RIMS``, version 3) holds one
:class:`SegmentedImprints`::

    magic         4 bytes  b"RIMS"
    version       u16
    vpc           u16
    segment_rows  u64
    n_rows        u64
    n_segments    u32
    crc32         u32     CRC32 of header (crc field zeroed) + body
    table name    u16 length + utf-8 bytes
    column name   u16 length + utf-8 bytes
    per segment:
      start u64, stop u64
      5 framed arrays (dtype tag + length + raw bytes): minmax (column
      dtype, 2 values), borders, counters (i8), repeats (bool),
      vectors (u64)

The header carries the ``(table, column)`` key explicitly; the
manager's loader reads it from there instead of parsing file names
(which breaks on table names containing dots).  The prefix, the CRC and
the string framing are the store's one codec in
:mod:`repro.engine.durable`, which also writes the file atomically.  A
file is read whole, once: :func:`read_imprint_file` checks it and
parses its key, and :meth:`ImprintFile.restore` decodes the segments.
Any corruption, a checksum mismatch (counting
``durability.checksum_failures``) or another version number raises
:class:`~repro.engine.durable.StorageError`, so the manager can
quarantine the file and rebuild lazily: there is no unchecksummed
format to fall back to.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import TYPE_CHECKING, Any, List, Optional, Tuple, Union

import numpy as np
from numpy.typing import NDArray

from ...engine import durable
from ...engine.column import Column
from ...engine.durable import StorageError
from .dictionary import CachelineDict
from .histogram import BinScheme

if TYPE_CHECKING:
    from .segments import SegmentedImprints

PathLike = Union[str, Path]

_MAGIC = b"RIMS"
_VERSION = 3
_HEADER = struct.Struct("<4sHHQQII")
_SPAN = struct.Struct("<QQ")


def _frame(arr: NDArray[Any]) -> bytes:
    raw = np.ascontiguousarray(arr).tobytes()
    return durable.frame_str(arr.dtype.str) + len(raw).to_bytes(8, "little") + raw


def _unframe(raw: bytes, pos: int, path: Path) -> Tuple[NDArray[Any], int]:
    tag, pos = durable.read_str(raw, pos, path)
    try:
        dtype = np.dtype(tag)
    except (ValueError, TypeError) as exc:
        raise StorageError(f"{path}: bad imprint array dtype tag ({exc})") from None
    n = int.from_bytes(raw[pos : pos + 8], "little")
    pos += 8
    data = raw[pos : pos + n]
    if len(data) != n or n % max(dtype.itemsize, 1):
        raise StorageError(f"{path}: truncated imprint array")
    return np.frombuffer(data, dtype=dtype), pos + n


def save_segmented(
    imprint: "SegmentedImprints", table_name: str, column_name: str, path: PathLike
) -> int:
    """Persist a :class:`SegmentedImprints`; returns bytes written.

    The ``(table, column)`` key travels in the header so a loader never
    has to reverse-engineer it from the file name.
    """
    parts = [durable.frame_str(table_name), durable.frame_str(column_name)]
    for seg in imprint.segments:
        parts.append(_SPAN.pack(seg.start, seg.stop))
        parts.append(_frame(np.asarray([seg.zmin, seg.zmax])))
        parts.append(_frame(np.asarray(seg.scheme.borders)))
        parts.append(_frame(seg.cdict.counters))
        parts.append(_frame(seg.cdict.repeats))
        parts.append(_frame(seg.cdict.vectors))
    return durable.write_checksummed(
        path,
        lambda crc: _HEADER.pack(
            _MAGIC,
            _VERSION,
            imprint.vpc,
            imprint.segment_rows,
            imprint.n_rows,
            len(imprint.segments),
            crc,
        ),
        *parts,
        label="imprint",
    )


class ImprintFile:
    """One ``.imprint`` file, read whole and checked: header, CRC and
    ``(table, column)`` key.  :meth:`restore` decodes its segments."""

    def __init__(self, raw: bytes, path: Path) -> None:
        durable.read_checked(raw, path, _MAGIC, _VERSION, _HEADER.size)
        (_m, _v, self.vpc, self.segment_rows, self.n_rows, self.n_segments, _crc) = (
            _HEADER.unpack_from(raw)
        )
        table_name, pos = durable.read_str(raw, _HEADER.size, path)
        column_name, self._body = durable.read_str(raw, pos, path)
        self.key: Tuple[str, str] = (table_name, column_name)
        self.raw = raw
        self.path = path

    def restore(self, column: Column) -> "SegmentedImprints":
        """The persisted index over ``column``.

        The stored snapshot length must not exceed the column: a grown
        column loads as a stale index (the manager extends it), but a
        *shorter* column means the file belongs to different data and is
        rejected.
        """
        from .segments import SegmentImprint, SegmentedImprints

        raw, path, vpc = self.raw, self.path, self.vpc
        if self.n_rows > len(column):
            raise StorageError(
                f"{path}: imprint indexes {self.n_rows} rows but column "
                f"{column.name!r} holds only {len(column)}"
            )
        pos = self._body
        segments: List[SegmentImprint] = []
        covered = 0
        for _ in range(self.n_segments):
            if len(raw) < pos + _SPAN.size:
                raise StorageError(f"{path}: truncated segment header")
            start, stop = _SPAN.unpack_from(raw, pos)
            pos += _SPAN.size
            minmax, pos = _unframe(raw, pos, path)
            borders, pos = _unframe(raw, pos, path)
            counters, pos = _unframe(raw, pos, path)
            repeats, pos = _unframe(raw, pos, path)
            vectors, pos = _unframe(raw, pos, path)
            if minmax.shape[0] != 2 or start != covered or stop <= start:
                raise StorageError(f"{path}: inconsistent segment spans")
            cdict = CachelineDict(
                counters=counters.astype(np.int64),
                repeats=repeats.astype(bool),
                vectors=vectors.astype(np.uint64),
                n_lines=(stop - start + vpc - 1) // vpc,
            )
            coverage = cdict.coverage()
            if int(coverage.sum() if coverage.shape[0] else 0) != cdict.n_lines:
                raise StorageError(
                    f"{path}: dictionary does not cover segment [{start}, {stop})"
                )
            segments.append(
                SegmentImprint(
                    start=int(start),
                    stop=int(stop),
                    zmin=minmax[0],
                    zmax=minmax[1],
                    scheme=BinScheme(borders=borders),
                    cdict=cdict,
                    coverage=coverage,
                )
            )
            covered = stop
        if covered != self.n_rows:
            raise StorageError(
                f"{path}: segments cover {covered} rows, header says {self.n_rows}"
            )
        return SegmentedImprints.from_parts(
            column,
            vpc=int(vpc),
            segment_rows=int(self.segment_rows),
            n_rows=int(self.n_rows),
            segments=segments,
        )


def read_imprint_file(path: PathLike) -> Optional[ImprintFile]:
    """Read an imprint file with one open and check it as an
    :class:`ImprintFile`; raises :class:`StorageError` on any corruption.

    A file that does not start with the ``RIMS`` magic is not an imprint
    at all: ``None``, not an error.  Does not validate against a live
    column — that happens in :meth:`ImprintFile.restore`.
    """
    path = Path(path)
    raw = durable.read_file(path, "imprint file")
    if not raw.startswith(_MAGIC):
        return None
    return ImprintFile(raw, path)

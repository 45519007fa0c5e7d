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
(which breaks on table names containing dots).  Files are written
through the atomic-write protocol of :mod:`repro.engine.durable`, and a
checksum mismatch raises :class:`ImprintPersistError` (counting
``durability.checksum_failures``) so the manager can quarantine the file
and rebuild lazily.  Any other version number is rejected the same way:
there is no unchecksummed format to fall back to.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import TYPE_CHECKING, Any, List, Tuple, Union

import numpy as np
from numpy.typing import NDArray

from ...engine import durable
from ...engine.column import Column
from .dictionary import CachelineDict
from .histogram import BinScheme

if TYPE_CHECKING:
    from .segments import SegmentedImprints

PathLike = Union[str, Path]

_MAGIC_SEG = b"RIMS"
_VERSION_SEG = 3
_HEADER_SEG = struct.Struct("<4sHHQQII")
_PREFIX_SEG = struct.Struct("<4sH")
_SPAN = struct.Struct("<QQ")


class ImprintPersistError(IOError):
    """Raised on corrupt or mismatched imprint files."""


def _frame(arr: NDArray[Any]) -> bytes:
    raw = np.ascontiguousarray(arr).tobytes()
    tag = arr.dtype.str.encode()
    return (
        len(tag).to_bytes(2, "little")
        + tag
        + len(raw).to_bytes(8, "little")
        + raw
    )


def _unframe(raw: bytes, pos: int) -> Tuple[NDArray[Any], int]:
    tag_len = int.from_bytes(raw[pos : pos + 2], "little")
    tag = raw[pos + 2 : pos + 2 + tag_len]
    if len(tag) != tag_len:
        raise ImprintPersistError("truncated imprint array tag")
    try:
        dtype = np.dtype(tag.decode())
    except (ValueError, TypeError, UnicodeDecodeError) as exc:
        raise ImprintPersistError(f"bad imprint array dtype tag ({exc})") from None
    pos += 2 + len(tag)
    n = int.from_bytes(raw[pos : pos + 8], "little")
    pos += 8
    data = raw[pos : pos + n]
    if len(data) != n or n % max(dtype.itemsize, 1):
        raise ImprintPersistError("truncated imprint array")
    return np.frombuffer(data, dtype=dtype), pos + n


def _frame_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return len(raw).to_bytes(2, "little") + raw


def _unframe_str(raw: bytes, pos: int) -> Tuple[str, int]:
    n = int.from_bytes(raw[pos : pos + 2], "little")
    pos += 2
    data = raw[pos : pos + n]
    if len(data) != n:
        raise ImprintPersistError("truncated imprint name")
    try:
        return data.decode("utf-8"), pos + n
    except UnicodeDecodeError as exc:
        raise ImprintPersistError(f"bad imprint name ({exc})") from None


def _parse_seg_header(raw: bytes, path: Path) -> Tuple[int, int, int, int, int, int]:
    """(vpc, segment_rows, n_rows, n_segments, crc, body offset)."""
    if len(raw) < _PREFIX_SEG.size:
        raise ImprintPersistError(f"{path}: truncated header")
    magic, version = _PREFIX_SEG.unpack(raw[: _PREFIX_SEG.size])
    if magic != _MAGIC_SEG:
        raise ImprintPersistError(f"{path}: bad magic {magic!r}")
    if version != _VERSION_SEG:
        raise ImprintPersistError(f"{path}: unsupported version {version}")
    if len(raw) < _HEADER_SEG.size:
        raise ImprintPersistError(f"{path}: truncated header")
    (_m, _v, vpc, segment_rows, n_rows, n_segments, crc) = _HEADER_SEG.unpack(
        raw[: _HEADER_SEG.size]
    )
    return vpc, segment_rows, n_rows, n_segments, crc, _HEADER_SEG.size


def _seg_crc_ok(raw: bytes, offset: int, crc: int) -> bool:
    """Verify a file's CRC (crc32 is the last header field; zero it)."""
    base = raw[: offset - 4] + b"\x00\x00\x00\x00"
    return durable.checksum(base + raw[offset:]) == crc


def save_segmented(
    imprint: "SegmentedImprints", table_name: str, column_name: str, path: PathLike
) -> int:
    """Persist a :class:`SegmentedImprints`; returns bytes written.

    The ``(table, column)`` key travels in the header so a loader never
    has to reverse-engineer it from the file name; the CRC32 covers the
    whole body after the header.
    """
    parts = [_frame_str(table_name), _frame_str(column_name)]
    for seg in imprint.segments:
        parts.append(_SPAN.pack(seg.start, seg.stop))
        parts.append(_frame(np.asarray([seg.zmin, seg.zmax])))
        parts.append(_frame(np.asarray(seg.scheme.borders)))
        parts.append(_frame(seg.cdict.counters))
        parts.append(_frame(seg.cdict.repeats))
        parts.append(_frame(seg.cdict.vectors))
    body = b"".join(parts)
    # CRC over header-with-crc-zeroed + body: a flip anywhere in the
    # file (vpc, segment_rows, ... included) fails verification.
    base = _HEADER_SEG.pack(
        _MAGIC_SEG,
        _VERSION_SEG,
        imprint.vpc,
        imprint.segment_rows,
        imprint.n_rows,
        len(imprint.segments),
        0,
    )
    header = _HEADER_SEG.pack(
        _MAGIC_SEG,
        _VERSION_SEG,
        imprint.vpc,
        imprint.segment_rows,
        imprint.n_rows,
        len(imprint.segments),
        durable.checksum(base + body),
    )
    return durable.atomic_write_bytes(path, header + body, label="imprint")


def verify_segmented_file(path: PathLike) -> Tuple[str, str]:
    """Structural check of a segmented imprint file on disk.

    Parses the header, verifies the CRC32, and returns the
    ``(table, column)`` key; raises :class:`ImprintPersistError` on any
    corruption.  Does not validate against a live column — that happens
    at load time.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise ImprintPersistError(f"no imprint file at {path}") from None
    (_vpc, _seg_rows, _n_rows, _n_segments, crc, pos) = _parse_seg_header(raw, path)
    if not _seg_crc_ok(raw, pos, crc):
        durable.record_checksum_failure(path)
        raise ImprintPersistError(f"{path}: checksum mismatch")
    table_name, pos = _unframe_str(raw, pos)
    column_name, _pos = _unframe_str(raw, pos)
    return table_name, column_name


def looks_like_segmented(path: PathLike) -> bool:
    """True when the file starts with the segmented (``RIMS``) magic.

    Lets the manager distinguish foreign files (skipped silently) from
    corrupt segmented imprints (quarantined).
    """
    try:
        with open(path, "rb") as fh:
            return fh.read(4) == _MAGIC_SEG
    except OSError:
        return False


def read_segmented_key(path: PathLike) -> Tuple[str, str]:
    """The ``(table_name, column_name)`` key of an imprint file.

    Raises :class:`ImprintPersistError` for foreign files.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            raw = fh.read(_HEADER_SEG.size + 4 + 2 * 65536)
    except FileNotFoundError:
        raise ImprintPersistError(f"no imprint file at {path}") from None
    (*_fields, offset) = _parse_seg_header(raw, path)
    table_name, pos = _unframe_str(raw, offset)
    column_name, _pos = _unframe_str(raw, pos)
    return table_name, column_name


def load_segmented(column: Column, path: PathLike) -> "SegmentedImprints":
    """Restore a :class:`SegmentedImprints` over its column.

    The stored snapshot length must not exceed the column: a grown column
    loads as a stale index (the manager extends it), but a *shorter*
    column means the file belongs to different data and is rejected.
    """
    from .segments import SegmentImprint, SegmentedImprints

    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise ImprintPersistError(f"no imprint file at {path}") from None
    (vpc, segment_rows, n_rows, n_segments, crc, pos) = _parse_seg_header(raw, path)
    if not _seg_crc_ok(raw, pos, crc):
        durable.record_checksum_failure(path)
        raise ImprintPersistError(f"{path}: checksum mismatch")
    if n_rows > len(column):
        raise ImprintPersistError(
            f"{path}: imprint indexes {n_rows} rows but column "
            f"{column.name!r} holds only {len(column)}"
        )
    _table_name, pos = _unframe_str(raw, pos)
    _column_name, pos = _unframe_str(raw, pos)
    segments: List[SegmentImprint] = []
    covered = 0
    for _ in range(n_segments):
        if len(raw) < pos + _SPAN.size:
            raise ImprintPersistError(f"{path}: truncated segment header")
        start, stop = _SPAN.unpack(raw[pos : pos + _SPAN.size])
        pos += _SPAN.size
        minmax, pos = _unframe(raw, pos)
        borders, pos = _unframe(raw, pos)
        counters, pos = _unframe(raw, pos)
        repeats, pos = _unframe(raw, pos)
        vectors, pos = _unframe(raw, pos)
        if minmax.shape[0] != 2 or start != covered or stop <= start:
            raise ImprintPersistError(f"{path}: inconsistent segment spans")
        cdict = CachelineDict(
            counters=counters.astype(np.int64),
            repeats=repeats.astype(bool),
            vectors=vectors.astype(np.uint64),
            n_lines=(stop - start + vpc - 1) // vpc,
        )
        coverage = cdict.coverage()
        if int(coverage.sum() if coverage.shape[0] else 0) != cdict.n_lines:
            raise ImprintPersistError(
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
    if covered != n_rows:
        raise ImprintPersistError(
            f"{path}: segments cover {covered} rows, header says {n_rows}"
        )
    return SegmentedImprints.from_parts(
        column,
        vpc=int(vpc),
        segment_rows=int(segment_rows),
        n_rows=int(n_rows),
        segments=segments,
    )

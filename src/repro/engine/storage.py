"""Per-column binary persistence and the ``COPY BINARY`` bulk-append path.

The paper's loader (Section 3.2) dumps each LAS attribute to "the binary
dump of a C-array" and appends those files to the flat table's columns with
MonetDB's ``COPY BINARY`` operator.  This module defines that on-disk
format — a tiny self-describing header followed by raw little-endian array
bytes — plus table-level save/load as one file per column, which is exactly
MonetDB's BAT-file layout.

File format (``.col``, version 4)::

    magic   4 bytes  b"RCOL"
    version u16      format version (4)
    type    u16      index into the type table (column.TYPE_MAP order)
    count   u64      number of values
    crc32   u32      CRC32 of the 64-byte header (crc field zeroed,
                     padding as written) + payload
    pad     44 bytes zeros, so the payload starts at byte 64
    data    count * itemsize raw bytes, little endian

Files are always written through the atomic-write protocol of
:mod:`repro.engine.durable` (temp file + fsync + ``os.replace``), so a
crash mid-write leaves the previous file intact instead of a torn one.
A save writes the header and a view of the column's own array.  An open
streams the file through one small buffer to check the CRC, then maps
the payload copy-on-write (``np.memmap`` mode ``"c"``): the loaded
column's buffer *is* the file's pages, and only the pages a query
touches become resident.  The 64-byte header keeps the mapped payload
aligned for every dtype (a ``float64`` payload at byte 20 would not be,
and unaligned ``take`` is an order of magnitude slower).  Mapping is
safe because store files are only ever replaced, never rewritten in
place: a mapping keeps its inode's bytes even when a later save
replaces the file it came from.  Each mapping holds one file
descriptor until its column is freed.  Appending to a mapped column
reallocates it; writes into it land in private pages, never the file.
Version 2 (the same fields with the payload at byte 20) and the
CRC-less version 1 are rejected as unsupported.

Version 3 is the *compressed* generation of the format: a segmented
sequence of :class:`~repro.engine.compression.CompressedBlock` payloads
(see ``docs/compression.md`` for the exact layout).  It is written as a
``.colz`` **sidecar** next to each plain ``.col`` file — the plain file
stays the source of truth, the sidecar is the execution format the packed
select kernels scan.  A ``source_crc`` header field ties a sidecar to the
exact column payload it was encoded from, so a stale sidecar (column
rewritten, sidecar not yet) is detected and ignored rather than served.
Sidecars are read only by :func:`load_compressed` (:func:`load_array`
rejects them as an unsupported version); a corrupt sidecar is
quarantined by :func:`repro.engine.durable.quarantine`, as a corrupt
imprint is, and re-encoded from the plain column.

Both layouts are framed by :mod:`repro.engine.durable`: magic and
version prefix, header CRC, u16-length strings.  A corrupted header, a
short payload, or a checksum mismatch raises :class:`StorageError`
rather than yielding a truncated column; checksum mismatches also
increment the ``durability.checksum_failures`` counter.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np
from numpy.typing import NDArray

from . import durable
from .column import TYPE_MAP, Column
from .compressed import CompressedColumn
from .compression import CompressedBlock, CompressionError
from .durable import StorageError
from .table import Table

_MAGIC = b"RCOL"
_VERSION = 4
_VERSION_V3 = 3
_HEADER = struct.Struct("<4sHHQI")
#: Where a plain ``.col`` payload starts: the header fields, then zeros.
_PAYLOAD_OFFSET = 64
_PAD = bytes(_PAYLOAD_OFFSET - _HEADER.size)
#: Chunk the open-time CRC streams the file through.
_CRC_CHUNK = 1 << 20
#: v3: magic, version, type, count, n_segments, segment_rows,
#: source_crc (crc32 of the plain column payload), file crc32 (last).
_HEADER_V3 = struct.Struct("<4sHHQIIII")
_TYPE_NAMES: List[str] = list(TYPE_MAP.keys())
_TYPE_CODES = {name: i for i, name in enumerate(_TYPE_NAMES)}

PathLike = Union[str, Path]


# -- raw array dumps (the loader's intermediate files) ----------------------


def dump_array(array: NDArray[Any], path: PathLike) -> int:
    """Write a 1-D numpy array as a ``.col`` file; returns bytes written.

    The write is atomic (see :mod:`repro.engine.durable`): readers see
    either the old file or the complete new one, never a torn hybrid.
    """
    array = np.ascontiguousarray(array)
    if array.ndim != 1:
        raise StorageError("only 1-D arrays are stored")
    type_name = {v: k for k, v in TYPE_MAP.items()}.get(array.dtype)
    if type_name is None:
        raise StorageError(f"unsupported dtype {array.dtype}")
    code, count = _TYPE_CODES[type_name], array.shape[0]
    return durable.write_checksummed(
        path,
        lambda crc: _HEADER.pack(_MAGIC, _VERSION, code, count, crc) + _PAD,
        _payload_view(array),
        label="col",
    )


def _payload_view(array: NDArray[Any]) -> memoryview:
    """The little-endian payload bytes of a contiguous 1-D array, as a
    byte view of the array itself (a copy only on a big-endian host)."""
    little = array.astype(array.dtype.newbyteorder("<"), copy=False)
    return memoryview(little.view(np.uint8))


def _parse_header(raw: bytes, path: Path) -> Tuple["np.dtype[Any]", int, int]:
    """(dtype, count, crc) of a .col blob; the payload starts at
    ``_PAYLOAD_OFFSET``."""
    durable.check_prefix(raw, path, _MAGIC, _VERSION, _PAYLOAD_OFFSET)
    _magic, _version, type_code, count, crc = _HEADER.unpack_from(raw)
    if type_code >= len(_TYPE_NAMES):
        raise StorageError(f"{path}: unknown type code {type_code}")
    return TYPE_MAP[_TYPE_NAMES[type_code]], count, crc


def read_column_header(path: PathLike) -> Dict[str, object]:
    """Header fields of a ``.col`` file without loading the payload.

    Returns ``{"version", "type", "count"}``; raises
    :class:`StorageError` on anything that is not a column file.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            raw = fh.read(_PAYLOAD_OFFSET)
    except FileNotFoundError:
        raise StorageError(f"column file not found: {path}") from None
    dtype, count, _crc = _parse_header(raw, path)
    type_name = {v: k for k, v in TYPE_MAP.items()}[dtype]
    return {"version": _VERSION, "type": type_name, "count": count}


def load_array(path: PathLike) -> NDArray[Any]:
    """Read a ``.col`` file back into a numpy array.

    The whole file's embedded CRC32 is verified first, streamed through
    one small buffer; a mismatch raises :class:`StorageError` and counts
    a ``durability.checksum_failures``.  Only then is a plain payload
    mapped copy-on-write and returned as an ``ndarray`` over the map:
    no page is read into the process until it is used, and writes into
    the array never reach the file.
    """
    path = Path(path)
    try:
        with open(path, "rb", buffering=0) as fh:
            return _read_column(fh, path)
    except FileNotFoundError:
        raise StorageError(f"column file not found: {path}") from None


def _read_column(fh: io.FileIO, path: Path) -> NDArray[Any]:
    head = fh.read(_PAYLOAD_OFFSET)
    dtype, count, crc = _parse_header(head, path)
    expected = count * dtype.itemsize
    # Size the payload from the file before reading it: a corrupt count
    # must fail as a short payload, not as a huge read or map.
    got = min(os.fstat(fh.fileno()).st_size - _PAYLOAD_OFFSET, expected)
    if got != expected:
        raise StorageError(
            f"{path}: expected {expected} payload bytes, got {got}"
        )
    # crc32 follows the other header fields; zero it out for
    # verification.  The padding is checksummed as read, not assumed.
    zeroed = (head[: _HEADER.size - 4], b"\x00" * 4, head[_HEADER.size :])
    if _stream_crc(fh, expected, *zeroed) != crc:
        durable.record_checksum_failure(path)
        raise StorageError(f"{path}: checksum mismatch")
    if count == 0:
        return np.empty(0, dtype=dtype)  # a zero-length map is an error
    mapped = np.memmap(
        fh,
        dtype=dtype.newbyteorder("<"),
        mode="c",
        offset=_PAYLOAD_OFFSET,
        shape=(count,),
    ).view(np.ndarray)
    return mapped if mapped.dtype == dtype else mapped.astype(dtype)


def _stream_crc(fh: io.FileIO, nbytes: int, *head: bytes) -> int:
    """CRC32 of ``head`` followed by the next ``nbytes`` of ``fh``, read
    through one reusable buffer so checking a file keeps none of it."""
    crc = durable.checksum(*head)
    chunk = bytearray(min(_CRC_CHUNK, nbytes))
    view = memoryview(chunk)
    while nbytes:
        n = fh.readinto(view[: min(len(chunk), nbytes)])
        if not n:
            break
        crc = zlib.crc32(view[:n], crc)
        nbytes -= n
    return crc & 0xFFFFFFFF


# -- compressed sidecars (v3) ------------------------------------------------


def column_payload_crc(array: NDArray[Any]) -> int:
    """CRC32 of a column's raw little-endian payload bytes — the value
    that links a ``.colz`` sidecar to the exact ``.col`` data it encodes."""
    return durable.checksum(_payload_view(np.ascontiguousarray(array)))


def sidecar_path(directory: PathLike, column_name: str) -> Path:
    """Where a column's compressed sidecar lives inside a table dir."""
    return Path(directory) / f"{column_name}.colz"


def dump_compressed(packed: CompressedColumn, path: PathLike) -> int:
    """Write a :class:`CompressedColumn` as a v3 ``.colz`` file; returns
    bytes written.  Atomic, CRC-protected, like every durable write."""
    dtype = np.dtype(packed.dtype)
    type_name = {v: k for k, v in TYPE_MAP.items()}.get(dtype)
    if type_name is None:
        raise StorageError(f"unsupported dtype {packed.dtype}")
    body_parts: List[bytes] = []
    for block in packed.blocks:
        body_parts.append(durable.frame_str(block.scheme))
        body_parts.append(durable.frame_str(block.dtype))
        body_parts.append(block.count.to_bytes(8, "little"))
        if block.zmin is not None and block.zmax is not None:
            zone = np.ascontiguousarray(np.asarray([block.zmin, block.zmax]))
            body_parts.append(b"\x01")
            body_parts.append(durable.frame_str(zone.dtype.str))
            body_parts.append(zone.tobytes())
        else:
            body_parts.append(b"\x00")
        body_parts.append(len(block.payload).to_bytes(8, "little"))
        body_parts.append(block.payload)
    return durable.write_checksummed(
        path,
        lambda crc: _HEADER_V3.pack(
            _MAGIC,
            _VERSION_V3,
            _TYPE_CODES[type_name],
            packed.n_rows,
            len(packed.blocks),
            packed.segment_rows,
            packed.source_crc,
            crc,
        ),
        *body_parts,
        label="colz",
    )


def _parse_compressed(raw: bytes, path: Path, name: str) -> CompressedColumn:
    """Parse (and checksum-verify) a v3 blob into a CompressedColumn."""
    durable.read_checked(raw, path, _MAGIC, _VERSION_V3, _HEADER_V3.size)
    (_magic, _version, type_code, count, n_seg, seg_rows, src_crc, _crc) = (
        _HEADER_V3.unpack_from(raw)
    )
    if type_code >= len(_TYPE_NAMES):
        raise StorageError(f"{path}: unknown type code {type_code}")
    pos = _HEADER_V3.size
    blocks: List[CompressedBlock] = []
    for _ in range(n_seg):
        scheme, pos = durable.read_str(raw, pos, path)
        dtype_tag, pos = durable.read_str(raw, pos, path)
        if pos + 8 > len(raw):
            raise StorageError(f"{path}: truncated segment header")
        seg_count = int.from_bytes(raw[pos : pos + 8], "little")
        pos += 8
        if pos + 1 > len(raw):
            raise StorageError(f"{path}: truncated segment header")
        has_zone = raw[pos]
        pos += 1
        zmin = zmax = None
        if has_zone:
            zone_tag, pos = durable.read_str(raw, pos, path)
            try:
                zone_dtype = np.dtype(zone_tag)
            except TypeError as exc:
                raise StorageError(f"{path}: bad zone dtype ({exc})") from None
            zone_len = 2 * zone_dtype.itemsize
            if pos + zone_len > len(raw):
                raise StorageError(f"{path}: truncated zone map")
            zone = np.frombuffer(raw[pos : pos + zone_len], dtype=zone_dtype)
            zmin, zmax = zone[0], zone[1]
            pos += zone_len
        if pos + 8 > len(raw):
            raise StorageError(f"{path}: truncated segment header")
        payload_len = int.from_bytes(raw[pos : pos + 8], "little")
        pos += 8
        payload = raw[pos : pos + payload_len]
        if len(payload) != payload_len:
            raise StorageError(f"{path}: truncated segment payload")
        pos += payload_len
        blocks.append(
            CompressedBlock(scheme, dtype_tag, seg_count, payload, zmin, zmax)
        )
    dtype = TYPE_MAP[_TYPE_NAMES[type_code]]
    try:
        return CompressedColumn(
            name=name,
            dtype=dtype.str,
            segment_rows=seg_rows,
            n_rows=count,
            blocks=tuple(blocks),
            source_crc=src_crc,
        )
    except CompressionError as exc:
        raise StorageError(f"{path}: inconsistent segments ({exc})") from None


def load_compressed(path: PathLike, name: Optional[str] = None) -> CompressedColumn:
    """Read a ``.colz`` sidecar back; raises :class:`StorageError` on any
    corruption (the caller decides whether to quarantine)."""
    path = Path(path)
    raw = durable.read_file(path, "compressed sidecar")
    return _parse_compressed(raw, path, name=name or path.stem)


def _attach_sidecar(
    column: Column,
    values: NDArray[Any],
    path: Path,
    issues: List[str],
) -> None:
    """Adopt a column's ``.colz`` sidecar if it is present and fresh.

    A corrupt sidecar is quarantined and the mirror re-encoded from the
    just-loaded source column (same contract as the imprint quarantine
    path: the plain data always wins, the derived artifact is rebuilt).
    A stale sidecar — row count or ``source_crc`` not matching the plain
    payload — is simply ignored; the next save rewrites it.  The
    ``source_crc`` check reads the whole plain payload, so it faults a
    packed column's mapped pages in; only packed columns pay for it.
    """
    if not path.exists():
        return
    try:
        packed = load_compressed(path, name=column.name)
    except StorageError as exc:
        # Warn at the caller of Database.load, past recover_table.
        issues.append(durable.quarantine(path, exc, "sidecar", stacklevel=4)[0])
        column.pack()
        return
    if packed.n_rows != values.shape[0] or (
        packed.source_crc and packed.source_crc != column_payload_crc(values)
    ):
        return
    column.adopt_packed(packed)


# -- column / table persistence ---------------------------------------------


def save_column(column: Column, path: PathLike) -> int:
    """Persist a column; returns bytes written."""
    return dump_array(np.asarray(column.values), path)


def table_dir_layout(table: Table) -> Dict[str, str]:
    """Map column name -> file name used inside a table directory."""
    return {name: f"{name}.col" for name in table.column_names}


def save_table(
    table: Table, directory: PathLike, generation: Optional[int] = None
) -> int:
    """Persist a table as one ``.col`` file per column plus ``schema.json``.

    Column files are written first (each atomically); the table metadata
    goes last, so ``schema.json``'s row count is only ever updated once
    every column holding those rows is durable.  Returns total bytes
    written (excluding the schema file).

    ``generation`` (when given, i.e. on catalog-driven saves) is recorded
    in ``schema.json`` so a table directory is attributable to the
    catalog generation that wrote it — a crashed publish leaves some
    tables one generation ahead of the committed catalog, and the stamp
    makes that diagnosable from the wreckage alone.

    Columns with a compressed execution mirror also get a ``.colz``
    sidecar, written right after their ``.col`` file; an existing sidecar
    whose column has no live mirror is re-packed so the pair never
    drifts.  A crash between the two writes leaves a stale sidecar,
    which the ``source_crc`` check at load time ignores.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    total = 0
    for name, filename in table_dir_layout(table).items():
        column = table.column(name)
        total += save_column(column, directory / filename)
        durable.crash_point(
            "storage.table.column_saved", table=table.name, column=name
        )
        side = sidecar_path(directory, name)
        packed = column.packed
        if packed is None and side.exists():
            packed = column.pack()
        if packed is not None:
            crc = column_payload_crc(np.asarray(column.values))
            if packed.source_crc != crc:
                packed = dataclasses.replace(packed, source_crc=crc)
                column.adopt_packed(packed)
            total += dump_compressed(packed, side)
    meta: Dict[str, Any] = {
        "name": table.name,
        "schema": table.schema,
        "rows": len(table),
    }
    if generation is not None:
        meta["generation"] = generation
    durable.atomic_write_text(
        directory / "schema.json", json.dumps(meta, indent=2), label="schema"
    )
    return total


def recover_table(directory: PathLike) -> Tuple[Table, List[str]]:
    """Load a table, rolling back a torn tail instead of raising.

    The write protocol (columns first, ``schema.json`` last) means a
    crash mid-save can leave some column files one batch ahead of the
    committed metadata.  Recovery truncates every column to the shortest
    consistent prefix — ``min(schema rows, shortest column)`` — which is
    exactly the last committed state.  Returns ``(table, issues)`` where
    ``issues`` lists everything that was repaired.

    A missing/corrupt ``schema.json`` or a column that cannot be read at
    all (missing file, checksum failure) is not recoverable here and
    still raises :class:`StorageError`.
    """
    directory = Path(directory)
    meta_path = directory / "schema.json"
    try:
        meta = json.loads(meta_path.read_text())
    except FileNotFoundError:
        raise StorageError(f"no table at {directory}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StorageError(f"{meta_path}: corrupt table metadata ({exc})") from None
    issues: List[str] = []
    table = Table(meta["name"], [tuple(pair) for pair in meta["schema"]])
    batch: Dict[str, NDArray[Any]] = {}
    for name, _type in table.schema:
        batch[name] = load_array(directory / f"{name}.col")
    target = int(meta["rows"])
    shortest = min((arr.shape[0] for arr in batch.values()), default=target)
    if shortest < target:
        issues.append(
            f"column files hold only {shortest} rows, metadata claims "
            f"{target}; rolled back to {shortest}"
        )
        target = shortest
    for name, arr in batch.items():
        if arr.shape[0] > target:
            issues.append(
                f"column {name!r}: torn tail of "
                f"{arr.shape[0] - target} rows rolled back"
            )
            batch[name] = arr[:target]
    for name, arr in batch.items():
        table.column(name).adopt(arr)
    for name, _type in table.schema:
        _attach_sidecar(
            table.column(name),
            batch[name],
            sidecar_path(directory, name),
            issues,
        )
    return table, issues


def verify_table(directory: PathLike) -> List[str]:
    """Check a table directory's on-disk artifacts; returns issues.

    An empty list means: metadata parses, every column file loads with a
    valid checksum, and all row counts agree.
    """
    directory = Path(directory)
    issues: List[str] = []
    meta_path = directory / "schema.json"
    try:
        meta = json.loads(meta_path.read_text())
    except FileNotFoundError:
        return [f"missing schema.json in {directory}"]
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return [f"{meta_path}: corrupt table metadata ({exc})"]
    rows = meta.get("rows")
    for pair in meta.get("schema", []):
        name = pair[0]
        try:
            arr = load_array(directory / f"{name}.col")
        except StorageError as exc:
            issues.append(str(exc))
            continue
        if arr.shape[0] != rows:
            issues.append(
                f"{directory / (name + '.col')}: holds {arr.shape[0]} rows, "
                f"schema.json says {rows}"
            )
        issues.extend(_verify_sidecar(directory, name, arr))
    return issues


def _verify_sidecar(directory: Path, name: str, arr: NDArray[Any]) -> List[str]:
    """Issues with a column's ``.colz`` sidecar, if one exists: the file
    CRC must verify, every segment must decode, and the decoded values
    must equal the plain column exactly."""
    side = sidecar_path(directory, name)
    if not side.exists():
        return []
    try:
        packed = load_compressed(side, name=name)
    except StorageError as exc:
        return [str(exc)]
    if packed.n_rows != arr.shape[0]:
        return [
            f"{side}: stale sidecar ({packed.n_rows} rows, column holds "
            f"{arr.shape[0]})"
        ]
    if packed.source_crc and packed.source_crc != column_payload_crc(arr):
        return [f"{side}: stale sidecar (source checksum mismatch)"]
    try:
        decoded = packed.decode_all()
    except CompressionError as exc:
        return [f"{side}: undecodable segment ({exc})"]
    if not np.array_equal(decoded, arr):
        return [f"{side}: decoded values differ from {name}.col"]
    return []


def copy_binary(table: Table, column_files: Dict[str, PathLike]) -> int:
    """Append per-column binary dumps to a table (the ``COPY BINARY`` step).

    ``column_files`` maps every column of ``table`` to a ``.col`` dump file.
    All files must hold the same number of values.  Returns the first new
    oid, so callers can address the appended batch.
    """
    batch = {name: load_array(path) for name, path in column_files.items()}
    return table.append_columns(batch)

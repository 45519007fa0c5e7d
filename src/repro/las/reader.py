"""LAS 1.2 file reader.

Reads header + point records into the flat-table vocabulary: world-space
float64 ``x``/``y``/``z`` plus unpacked per-point properties, ready to
append to an engine table or feed the binary loader.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Tuple, Union

import numpy as np

from .header import HEADER_SIZE, LasFormatError, LasHeader
from .spec import POINT_FORMATS, unpack_classification, unpack_flags

PathLike = Union[str, Path]


def read_header(path: PathLike) -> LasHeader:
    """Read only the 227-byte header (the file-pruning fast path of
    file-based solutions)."""
    try:
        with open(Path(path), "rb") as fh:
            raw = fh.read(HEADER_SIZE)
    except FileNotFoundError:
        raise LasFormatError(f"no such LAS file: {path}") from None
    return LasHeader.unpack(raw)


def read_las(path: PathLike) -> Tuple[LasHeader, Dict[str, np.ndarray]]:
    """Read a whole LAS file into flat columns.

    Returns ``(header, columns)`` where columns always include ``x``,
    ``y``, ``z`` (dequantised float64) and every property stored by the
    file's point format, with flag bytes unpacked into separate columns.
    """
    path = Path(path)
    header = read_header(path)
    dtype = POINT_FORMATS[header.point_format]
    expected = header.n_points * dtype.itemsize
    with open(path, "rb") as fh:
        fh.seek(header.offset_to_point_data)
        raw = fh.read(expected)
    if len(raw) != expected:
        raise LasFormatError(
            f"{path}: truncated point data ({len(raw)} of {expected} bytes)"
        )
    records = np.frombuffer(raw, dtype=dtype)

    sx, sy, sz = header.scale
    ox, oy, oz = header.offset
    columns: Dict[str, np.ndarray] = {
        "x": records["X"].astype(np.float64) * sx + ox,
        "y": records["Y"].astype(np.float64) * sy + oy,
        "z": records["Z"].astype(np.float64) * sz + oz,
        "intensity": records["intensity"].copy(),
        "scan_angle": records["scan_angle_rank"].astype(np.int16),
        "user_data": records["user_data"].copy(),
        "point_source_id": records["point_source_id"].copy(),
    }
    columns.update(unpack_flags(records["flags"]))
    columns.update(unpack_classification(records["classification"]))
    if "gps_time" in dtype.names:
        columns["gps_time"] = records["gps_time"].copy()
    if "red" in dtype.names:
        for channel in ("red", "green", "blue"):
            columns[channel] = records[channel].copy()
    return header, columns


def read_intervals(
    path: PathLike, intervals
) -> Tuple[LasHeader, Dict[str, np.ndarray]]:
    """Read only the given ``[start, stop)`` record intervals of a file.

    This is how LAStools consumes a ``.lax`` index: seek to each candidate
    interval instead of decoding the whole tile.  Returns flat columns for
    the concatenated intervals plus ``_record_index`` — the original
    record position of every returned point (so exact-filter hits can be
    mapped back to file offsets).
    """
    path = Path(path)
    header = read_header(path)
    dtype = POINT_FORMATS[header.point_format]
    sx, sy, sz = header.scale
    ox, oy, oz = header.offset
    pieces = []
    index_pieces = []
    with open(path, "rb") as fh:
        for start, stop in intervals:
            if not 0 <= start <= stop <= header.n_points:
                raise LasFormatError(
                    f"{path}: interval [{start}, {stop}) out of range "
                    f"(file holds {header.n_points} records)"
                )
            if start == stop:
                continue
            fh.seek(header.offset_to_point_data + start * dtype.itemsize)
            raw = fh.read((stop - start) * dtype.itemsize)
            if len(raw) != (stop - start) * dtype.itemsize:
                raise LasFormatError(f"{path}: truncated point data")
            pieces.append(np.frombuffer(raw, dtype=dtype))
            index_pieces.append(np.arange(start, stop, dtype=np.int64))
    if pieces:
        records = np.concatenate(pieces)
        record_index = np.concatenate(index_pieces)
    else:
        records = np.empty(0, dtype=dtype)
        record_index = np.empty(0, dtype=np.int64)

    columns: Dict[str, np.ndarray] = {
        "x": records["X"].astype(np.float64) * sx + ox,
        "y": records["Y"].astype(np.float64) * sy + oy,
        "z": records["Z"].astype(np.float64) * sz + oz,
        "intensity": records["intensity"].copy(),
        "scan_angle": records["scan_angle_rank"].astype(np.int16),
        "user_data": records["user_data"].copy(),
        "point_source_id": records["point_source_id"].copy(),
        "_record_index": record_index,
    }
    columns.update(unpack_flags(records["flags"]))
    columns.update(unpack_classification(records["classification"]))
    if "gps_time" in dtype.names:
        columns["gps_time"] = records["gps_time"].copy()
    if "red" in dtype.names:
        for channel in ("red", "green", "blue"):
            columns[channel] = records[channel].copy()
    return header, columns

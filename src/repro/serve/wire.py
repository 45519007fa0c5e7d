"""Binary columnar wire format for query responses.

JSON rows are convenient but quadratically wasteful for point clouds:
every float render-trips through decimal text.  The service therefore
offers a second response encoding that ships columns as raw
little-endian arrays — the same idea as the engine's storage layer
(`repro.engine.storage`), shrunk to a self-describing network frame:

``RSRV | version:u16 | header_len:u32 | header JSON | payload``

The header names each column (``{"name", "dtype", "count"}``, dtypes in
numpy string form like ``<f8``); the payload is the concatenation of the
arrays' bytes in header order.  Object dtypes (strings, geometries)
cannot be framed — callers get :class:`WireFormatError` and should fall
back to JSON.

Clients negotiate via ``Accept: application/x-repro-columnar`` (or
``"format": "columnar"`` in the request body); :func:`decode_columns`
is the reference client-side decoder, used by the ``http_viewport``
workload of ``benchmarks/e2e/run.py``.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List

import numpy as np

#: Response content type for the binary framing.
CONTENT_TYPE = "application/x-repro-columnar"

MAGIC = b"RSRV"
VERSION = 1

#: Frame prelude: magic, format version, header JSON byte length.
_PRELUDE = struct.Struct("<4sHI")

#: Hard cap on the declared header length — a corrupt or hostile frame
#: must not make the decoder allocate gigabytes for a "header".
_MAX_HEADER_BYTES = 16 * 1024 * 1024


class WireFormatError(ValueError):
    """A frame could not be encoded or decoded."""


def encodable(array: np.ndarray) -> bool:
    """Whether an array's dtype survives the raw-bytes round trip."""
    return array.dtype.kind in "iufb"


def encode_columns(columns: Dict[str, np.ndarray]) -> bytes:
    """Frame named arrays as one binary response body.

    Column order is preserved (insertion order of ``columns``).  Raises
    :class:`WireFormatError` for object/string dtypes — the caller
    should answer those requests in JSON instead.
    """
    header: List[Dict[str, object]] = []
    payload = bytearray()
    for name, array in columns.items():
        array = np.ascontiguousarray(array)
        if not encodable(array):
            raise WireFormatError(
                f"column {name!r} has dtype {array.dtype} which has no "
                f"raw binary framing; request JSON format instead"
            )
        if array.dtype.byteorder == ">":
            array = array.astype(array.dtype.newbyteorder("<"))
        header.append(
            {
                "name": name,
                "dtype": array.dtype.str,
                "count": int(array.shape[0]),
            }
        )
        payload += array.tobytes()
    header_bytes = json.dumps({"columns": header}).encode("utf-8")
    return (
        _PRELUDE.pack(MAGIC, VERSION, len(header_bytes))
        + header_bytes
        + bytes(payload)
    )


def decode_columns(data: bytes) -> Dict[str, np.ndarray]:
    """Decode a frame produced by :func:`encode_columns`.

    The reference client decoder: validates the magic, version, header
    and payload lengths, and returns the named arrays in frame order.
    """
    if len(data) < _PRELUDE.size:
        raise WireFormatError(
            f"truncated frame: {len(data)} bytes, prelude needs "
            f"{_PRELUDE.size}"
        )
    magic, version, header_len = _PRELUDE.unpack_from(data, 0)
    if magic != MAGIC:
        raise WireFormatError(f"bad magic {magic!r} (want {MAGIC!r})")
    if version != VERSION:
        raise WireFormatError(f"unsupported frame version {version}")
    if header_len > _MAX_HEADER_BYTES:
        raise WireFormatError(f"implausible header length {header_len}")
    header_end = _PRELUDE.size + header_len
    if len(data) < header_end:
        raise WireFormatError("truncated frame: header cut short")
    try:
        header = json.loads(data[_PRELUDE.size:header_end].decode("utf-8"))
        entries = header["columns"]
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        raise WireFormatError(f"corrupt frame header: {exc}") from None
    columns: Dict[str, np.ndarray] = {}
    offset = header_end
    for entry in entries:
        try:
            name = str(entry["name"])
            dtype = np.dtype(str(entry["dtype"]))
            count = int(entry["count"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WireFormatError(f"corrupt column entry: {exc}") from None
        if count < 0:
            raise WireFormatError(f"negative count for column {name!r}")
        nbytes = dtype.itemsize * count
        if offset + nbytes > len(data):
            raise WireFormatError(
                f"truncated frame: column {name!r} wants {nbytes} bytes, "
                f"{len(data) - offset} remain"
            )
        columns[name] = np.frombuffer(
            data, dtype=dtype, count=count, offset=offset
        )
        offset += nbytes
    if offset != len(data):
        raise WireFormatError(
            f"{len(data) - offset} trailing bytes after last column"
        )
    return columns

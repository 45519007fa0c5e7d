"""Lightweight columnar compression schemes — the engine's *execution* format.

Section 3.1 argues that flat-table storage "is more flexible to exploit
compression techniques which are more advantageous for column-stores such
as run length encoding".  This module implements the classic columnar
schemes — RLE, dictionary, frame-of-reference, delta(+zlib), and a plain
fallback — each as an encode/decode pair returning a
:class:`CompressedBlock`.

Since the compressed-execution rework the blocks are not just a
persistence detail: every block records its value range (``zmin`` /
``zmax``) at encode time — for frame-of-reference that zone map is *free*
(it is the FOR header: reference and reference + span) — and exposes its
packed internals (:func:`for_parts`, :func:`dict_parts`,
:func:`rle_parts`) so :mod:`repro.engine.kernels` can evaluate range and
equality predicates directly on the packed words without decompressing
non-surviving rows.  :func:`choose_scheme` picks the encoding adaptively
at write time (runs → RLE, low cardinality → dictionary, integers → FOR,
floats → delta+zlib), which is how the per-segment
:class:`~repro.engine.compressed.CompressedColumn` encodes.

The blockstore baseline reuses ``delta_zlib`` for its per-dimension patch
compression (mirroring PostgreSQL pointcloud's dimensional compression),
and the storage benchmark (E2) reports the footprint of each scheme on
LIDAR columns.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

#: 2^64 - 1: the modulus mask for two's-complement FOR arithmetic.
_U64_MASK = 0xFFFFFFFFFFFFFFFF


class CompressionError(ValueError):
    """Raised on undecodable payloads or unsupported inputs."""


@dataclass(frozen=True)
class CompressedBlock:
    """An encoded column chunk.

    Attributes
    ----------
    scheme:
        Encoding name (``rle``, ``dict``, ``for``, ``delta_zlib``,
        ``plain``).
    dtype:
        Original dtype string, for exact round-tripping.
    count:
        Number of values encoded.
    payload:
        Scheme-specific bytes.
    zmin, zmax:
        The block's value range, recorded at encode time (``None`` for
        empty blocks and for blocks built before zone maps existed).
        For ``for`` blocks these are literally the header fields —
        reference and reference + span — so zone-map pruning never has
        to touch the payload.
    """

    scheme: str
    dtype: str
    count: int
    payload: bytes
    zmin: Optional[Any] = None
    zmax: Optional[Any] = None

    @property
    def nbytes(self) -> int:
        """Compressed size in bytes (payload only)."""
        return len(self.payload)

    @property
    def plain_nbytes(self) -> int:
        """Bytes of the equivalent uncompressed array."""
        return self.count * np.dtype(self.dtype).itemsize


def _pack_arrays(*arrays: NDArray[Any]) -> bytes:
    """Concatenate arrays into a payload with a tiny length-prefixed framing."""
    parts: List[bytes] = []
    for arr in arrays:
        raw = np.ascontiguousarray(arr).tobytes()
        dtype_tag = arr.dtype.str.encode()
        parts.append(len(dtype_tag).to_bytes(2, "little"))
        parts.append(dtype_tag)
        parts.append(len(raw).to_bytes(8, "little"))
        parts.append(raw)
    return b"".join(parts)


def _unpack_arrays(payload: bytes, n: int) -> Tuple[NDArray[Any], ...]:
    arrays: List[NDArray[Any]] = []
    pos = 0
    for _ in range(n):
        if pos + 2 > len(payload):
            raise CompressionError("truncated payload framing")
        tag_len = int.from_bytes(payload[pos : pos + 2], "little")
        pos += 2
        try:
            dtype = np.dtype(payload[pos : pos + tag_len].decode())
        except (ValueError, TypeError, UnicodeDecodeError) as exc:
            raise CompressionError(f"bad payload dtype tag ({exc})") from None
        pos += tag_len
        raw_len = int.from_bytes(payload[pos : pos + 8], "little")
        pos += 8
        raw = payload[pos : pos + raw_len]
        if len(raw) != raw_len or (dtype.itemsize and raw_len % dtype.itemsize):
            raise CompressionError("truncated payload data")
        pos += raw_len
        arrays.append(np.frombuffer(raw, dtype=dtype))
    return tuple(arrays)


def _as_input(values: NDArray[Any]) -> NDArray[Any]:
    """Normalise encoder input: 1-D and C-contiguous.

    Encoders take views (``values[::2]``, reversed slices, segment
    windows); ``ascontiguousarray`` makes the bit-pattern reinterpret in
    ``delta_zlib`` and the raw ``tobytes`` paths safe for all of them.
    """
    values = np.ascontiguousarray(values)
    if values.ndim != 1:
        raise CompressionError("compression works on 1-D arrays")
    return values


def _zone_scalar(value: Any, dtype: np.dtype[Any]) -> Any:
    """A zone-map bound as a scalar of the column dtype (exact)."""
    return dtype.type(value)


# -- run-length encoding ------------------------------------------------------


def rle_encode(values: NDArray[Any]) -> CompressedBlock:
    """Run-length encode; ideal for sorted/low-cardinality columns
    (classification codes, flags) as the paper notes for flat tables."""
    values = _as_input(values)
    if values.shape[0] == 0:
        return CompressedBlock("rle", values.dtype.str, 0, b"")
    change = np.empty(values.shape[0], dtype=bool)
    change[0] = True
    change[1:] = values[1:] != values[:-1]
    starts = np.flatnonzero(change)
    run_values = values[starts]
    run_lengths = np.diff(np.append(starts, values.shape[0])).astype(np.int64)
    payload = _pack_arrays(run_values, run_lengths)
    return CompressedBlock(
        "rle",
        values.dtype.str,
        values.shape[0],
        payload,
        zmin=run_values.min(),
        zmax=run_values.max(),
    )


def rle_decode(block: CompressedBlock) -> NDArray[Any]:
    if block.scheme != "rle":
        raise CompressionError(f"not an rle block: {block.scheme}")
    if block.count == 0:
        return np.empty(0, dtype=np.dtype(block.dtype))
    run_values, run_lengths = rle_parts(block)
    out = np.repeat(run_values, run_lengths)
    if out.shape[0] != block.count:
        raise CompressionError("rle length mismatch")
    return out.astype(np.dtype(block.dtype))


def rle_parts(block: CompressedBlock) -> Tuple[NDArray[Any], NDArray[Any]]:
    """``(run_values, run_lengths)`` of an rle block (zero-copy views)."""
    if block.scheme != "rle":
        raise CompressionError(f"not an rle block: {block.scheme}")
    if block.count == 0:
        empty: NDArray[Any] = np.empty(0, dtype=np.dtype(block.dtype))
        return empty, np.empty(0, dtype=np.int64)
    run_values, run_lengths = _unpack_arrays(block.payload, 2)
    if int(run_lengths.sum()) != block.count:
        raise CompressionError("rle length mismatch")
    return run_values, run_lengths


# -- dictionary encoding -------------------------------------------------------


def dict_encode(values: NDArray[Any]) -> CompressedBlock:
    """Dictionary encode: distinct values + per-row code of minimal width."""
    values = _as_input(values)
    uniques, codes = np.unique(values, return_inverse=True)
    if uniques.shape[0] <= 1 << 8:
        code_dtype: Any = np.uint8
    elif uniques.shape[0] <= 1 << 16:
        code_dtype = np.uint16
    else:
        code_dtype = np.uint32
    payload = _pack_arrays(uniques, codes.astype(code_dtype))
    if values.shape[0] == 0:
        return CompressedBlock("dict", values.dtype.str, 0, payload)
    # np.unique sorts, so the dictionary ends carry the zone map (NaN,
    # if any, sorts last and lands the block on the always-safe PROBE
    # verdict downstream).
    return CompressedBlock(
        "dict",
        values.dtype.str,
        values.shape[0],
        payload,
        zmin=uniques[0],
        zmax=uniques[-1],
    )


def dict_decode(block: CompressedBlock) -> NDArray[Any]:
    if block.scheme != "dict":
        raise CompressionError(f"not a dict block: {block.scheme}")
    if block.count == 0:
        return np.empty(0, dtype=np.dtype(block.dtype))
    uniques, codes = dict_parts(block)
    return uniques[codes].astype(np.dtype(block.dtype))


def dict_parts(block: CompressedBlock) -> Tuple[NDArray[Any], NDArray[Any]]:
    """``(uniques, codes)`` of a dict block (zero-copy views)."""
    if block.scheme != "dict":
        raise CompressionError(f"not a dict block: {block.scheme}")
    if block.count == 0:
        empty: NDArray[Any] = np.empty(0, dtype=np.dtype(block.dtype))
        return empty, np.empty(0, dtype=np.uint8)
    uniques, codes = _unpack_arrays(block.payload, 2)
    if codes.shape[0] != block.count:
        raise CompressionError("dict code count mismatch")
    if codes.shape[0] and uniques.shape[0] == 0:
        raise CompressionError("dict block has codes but no dictionary")
    return uniques, codes


# -- frame of reference --------------------------------------------------------


def for_encode(values: NDArray[Any]) -> CompressedBlock:
    """Frame-of-reference for integer columns: offsets from the minimum,
    stored at minimal width.  Great for LAS scaled-int coordinates.

    The offset arithmetic is modular (two's-complement) in ``uint64``:
    the true offsets ``v - min`` always lie in ``[0, 2^64)`` for any
    supported integer dtype, so ``(v - min) mod 2^64`` is exact even
    where a signed ``int64`` subtraction would overflow (e.g. values
    spanning ``[-2^62, 2^62]``, or ``uint64`` values above ``2^63``).
    """
    values = _as_input(values)
    if values.dtype.kind not in "iu":
        raise CompressionError("frame-of-reference needs integer input")
    if values.shape[0] == 0:
        return CompressedBlock("for", values.dtype.str, 0, b"")
    reference = int(values.min())
    offsets = values.astype(np.uint64) - np.uint64(reference & _U64_MASK)
    span = int(offsets.max())
    if span <= 0xFF:
        off_dtype: Any = np.uint8
    elif span <= 0xFFFF:
        off_dtype = np.uint16
    elif span <= 0xFFFFFFFF:
        off_dtype = np.uint32
    else:
        off_dtype = np.uint64
    # The reference travels as its two's-complement uint64 image so a
    # uint64 minimum above int64 max still round-trips; the dtype tag in
    # the framing keeps legacy int64-reference payloads readable.
    payload = _pack_arrays(
        np.asarray([reference & _U64_MASK], dtype=np.uint64),
        offsets.astype(off_dtype),
    )
    return CompressedBlock(
        "for",
        values.dtype.str,
        values.shape[0],
        payload,
        zmin=_zone_scalar(reference, values.dtype),
        zmax=_zone_scalar(reference + span, values.dtype),
    )


def for_parts(block: CompressedBlock) -> Tuple[int, NDArray[Any]]:
    """``(reference, packed offsets)`` of a FOR block.

    The offsets come back as the zero-copy stored-width view — this is
    the representation the packed predicate kernels compare against
    directly.  The reference is the true (signed) minimum value.
    """
    if block.scheme != "for":
        raise CompressionError(f"not a for block: {block.scheme}")
    if block.count == 0:
        return 0, np.empty(0, dtype=np.uint8)
    ref_arr, offsets = _unpack_arrays(block.payload, 2)
    if ref_arr.shape[0] != 1 or offsets.shape[0] != block.count:
        raise CompressionError("for payload shape mismatch")
    reference = int(ref_arr[0])
    if ref_arr.dtype.kind == "u" and np.dtype(block.dtype).kind == "i":
        # Undo the two's-complement image for signed columns.
        if reference >= 1 << 63:
            reference -= 1 << 64
    return reference, offsets


def for_decode(block: CompressedBlock) -> NDArray[Any]:
    if block.scheme != "for":
        raise CompressionError(f"not a for block: {block.scheme}")
    dtype = np.dtype(block.dtype)
    if block.count == 0:
        return np.empty(0, dtype=dtype)
    reference, offsets = for_parts(block)
    # Modular add, then a wrapping cast back to the column dtype: exact
    # for the same reason the encoder's modular subtract is.
    out = offsets.astype(np.uint64) + np.uint64(reference & _U64_MASK)
    return out.astype(dtype)


# -- delta + zlib --------------------------------------------------------------


def delta_zlib_encode(values: NDArray[Any], level: int = 6) -> CompressedBlock:
    """Delta-encode then deflate.

    This is the repo's stand-in for pointcloud/LAZ-style dimensional
    compression: spatially sorted coordinates have tiny deltas that deflate
    extremely well, which is why sorted blocks compress better (Section 2.3).
    Works for integers (exact deltas) and floats (bit-pattern deltas via
    int64 views, still lossless).
    """
    values = _as_input(values)
    if values.shape[0] == 0:
        return CompressedBlock("delta_zlib", values.dtype.str, 0, b"")
    if values.dtype.kind == "f":
        # Delta the raw bit patterns: lossless and still exposes locality.
        # (The _as_input contiguity guarantee is what makes this view legal
        # on strided inputs.)
        as_int = values.view(np.int64 if values.dtype.itemsize == 8 else np.int32)
    elif values.dtype.kind in "iu":
        as_int = values.astype(np.int64)
    else:
        raise CompressionError(f"cannot delta-encode dtype {values.dtype}")
    deltas = np.empty(as_int.shape[0], dtype=np.int64)
    deltas[0] = as_int[0]
    deltas[1:] = np.asarray(as_int[1:], dtype=np.int64) - np.asarray(
        as_int[:-1], dtype=np.int64
    )
    payload = zlib.compress(deltas.tobytes(), level)
    return CompressedBlock(
        "delta_zlib",
        values.dtype.str,
        values.shape[0],
        payload,
        zmin=values.min(),
        zmax=values.max(),
    )


def delta_zlib_decode(block: CompressedBlock) -> NDArray[Any]:
    if block.scheme != "delta_zlib":
        raise CompressionError(f"not a delta_zlib block: {block.scheme}")
    dtype = np.dtype(block.dtype)
    if block.count == 0:
        return np.empty(0, dtype=dtype)
    try:
        raw = zlib.decompress(block.payload)
    except zlib.error as exc:
        raise CompressionError(f"corrupt deflate payload: {exc}") from None
    deltas = np.frombuffer(raw, dtype=np.int64)
    if deltas.shape[0] != block.count:
        raise CompressionError("delta payload length mismatch")
    as_int = np.cumsum(deltas, dtype=np.int64)
    if dtype.kind == "f":
        width = np.int64 if dtype.itemsize == 8 else np.int32
        return as_int.astype(width).view(dtype).copy()
    return as_int.astype(dtype)


# -- plain (identity) ----------------------------------------------------------


def plain_encode(values: NDArray[Any]) -> CompressedBlock:
    """The identity scheme: raw values, framed.  The fallback when no
    real encoding earns its keep (incompressible floats, tiny blocks)."""
    values = _as_input(values)
    payload = _pack_arrays(values)
    if values.shape[0] == 0:
        return CompressedBlock("plain", values.dtype.str, 0, payload)
    return CompressedBlock(
        "plain",
        values.dtype.str,
        values.shape[0],
        payload,
        zmin=values.min(),
        zmax=values.max(),
    )


def plain_view(block: CompressedBlock) -> NDArray[Any]:
    """The raw values of a plain block as a zero-copy view."""
    if block.scheme != "plain":
        raise CompressionError(f"not a plain block: {block.scheme}")
    if block.count == 0:
        return np.empty(0, dtype=np.dtype(block.dtype))
    (values,) = _unpack_arrays(block.payload, 1)
    if values.shape[0] != block.count:
        raise CompressionError("plain payload length mismatch")
    return values


def plain_decode(block: CompressedBlock) -> NDArray[Any]:
    if block.scheme != "plain":
        raise CompressionError(f"not a plain block: {block.scheme}")
    return plain_view(block).astype(np.dtype(block.dtype))


#: scheme name -> (encode, decode)
SCHEMES: Dict[
    str, Tuple[Callable[..., CompressedBlock], Callable[[CompressedBlock], NDArray[Any]]]
] = {
    "rle": (rle_encode, rle_decode),
    "dict": (dict_encode, dict_decode),
    "for": (for_encode, for_decode),
    "delta_zlib": (delta_zlib_encode, delta_zlib_decode),
    "plain": (plain_encode, plain_decode),
}


def encode(scheme: str, values: NDArray[Any]) -> CompressedBlock:
    """Encode with a named scheme."""
    try:
        enc, _dec = SCHEMES[scheme]
    except KeyError:
        raise CompressionError(f"unknown scheme {scheme!r}") from None
    return enc(values)


def decode(block: CompressedBlock) -> NDArray[Any]:
    """Decode any :class:`CompressedBlock`."""
    try:
        _enc, dec = SCHEMES[block.scheme]
    except KeyError:
        raise CompressionError(f"unknown scheme {block.scheme!r}") from None
    return dec(block)


def choose_scheme(values: NDArray[Any], sample_target: int = 4096) -> str:
    """Pick an encoding for a block at write time (cheap, sampled).

    The heuristic mirrors what a column-store's write path can afford:
    one strided sample, no trial encodes.

    * run-dominated data (sorted coordinates after tiling,
      classification sweeps) → ``rle``;
    * low cardinality (classification, return number, flags) → ``dict``;
    * any other integers (the LAS scaled X/Y/Z) → ``for``, whose packed
      form the select kernels evaluate directly;
    * floats → ``delta_zlib``;
    * anything degenerate (empty, unsupported kind) → ``plain``.

    The strided sample under-counts runs shorter than the stride, so
    borderline-runny data falls through to ``dict``/``for`` — a
    throughput-safe default (both stay scannable without decode).
    """
    values = np.asarray(values)
    n = values.shape[0]
    if n == 0 or values.dtype.kind not in "iufb":
        return "plain"
    step = max(1, n // sample_target)
    sample = values[::step]
    m = sample.shape[0]
    if m > 1:
        runs = int(np.count_nonzero(sample[1:] != sample[:-1])) + 1
        if runs <= max(1, m // 8):
            return "rle"
    distinct = int(np.unique(sample).shape[0])
    if distinct <= 256 and distinct <= max(1, m // 4):
        return "dict"
    if values.dtype.kind in "iu":
        return "for"
    if values.dtype.kind == "b":
        return "dict"
    return "delta_zlib"


def encode_adaptive(values: NDArray[Any], scheme: str = "auto") -> CompressedBlock:
    """Encode one block, choosing the scheme when ``scheme="auto"``.

    This is the write path of :class:`~repro.engine.compressed
    .CompressedColumn`: one :func:`choose_scheme` sample per segment,
    then the chosen encoder.
    """
    if scheme == "auto":
        scheme = choose_scheme(values)
    return encode(scheme, values)


def best_scheme(values: NDArray[Any]) -> CompressedBlock:
    """Try all applicable schemes and return the smallest encoding.

    Exhaustive (one trial encode per scheme) — storage-benchmark
    territory; the write path uses :func:`encode_adaptive` instead.
    """
    best: Optional[CompressedBlock] = None
    for name, (enc, _dec) in SCHEMES.items():
        try:
            block = enc(values)
        except CompressionError:
            continue
        if best is None or block.nbytes < best.nbytes:
            best = block
    if best is None:
        raise CompressionError(f"no scheme applicable to dtype {values.dtype}")
    return best


def int_bounds(
    lo: Optional[Any],
    hi: Optional[Any],
    lo_inclusive: bool,
    hi_inclusive: bool,
) -> Tuple[Optional[int], Optional[int]]:
    """The closed integer interval ``[L, U]`` equivalent to a range
    predicate over integer-valued data.

    Float bounds are snapped with exact ceil/floor arithmetic
    (``v > 10.5`` ⇔ ``v >= 11``; ``v >= 10.0`` ⇔ ``v >= 10``), which is
    what lets a FOR kernel turn any range predicate into a pure integer
    compare on the packed offsets.
    """
    if lo is None:
        L: Optional[int] = None
    elif lo_inclusive:
        L = math.ceil(lo)
    else:
        L = math.floor(lo) + 1
    if hi is None:
        U: Optional[int] = None
    elif hi_inclusive:
        U = math.floor(hi)
    else:
        U = math.ceil(hi) - 1
    return L, U

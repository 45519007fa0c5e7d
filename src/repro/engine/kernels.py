"""Predicate kernels that evaluate directly on compressed blocks.

This is the execution half of the compressed-execution design: given a
:class:`~repro.engine.compression.CompressedBlock`, produce the boolean
selection mask for a range or theta predicate *without* decompressing
rows that do not survive it.

Three levels of work avoidance, cheapest first:

1. Zone maps — the block's encode-time ``zmin``/``zmax`` (free FOR
   header fields) decide SKIP / FULL / PROBE before any payload byte is
   read.  :func:`repro.engine.scan.zone_verdicts` applies them to every
   segmented access path (packed blocks and imprint segments alike), so
   the zone-map algebra has exactly one implementation.
2. Packed evaluation — on PROBE, FOR blocks translate the range bounds
   into the offset domain (:func:`repro.engine.compression.int_bounds`)
   and compare the stored-width packed words directly; dictionary and
   RLE blocks evaluate the predicate once per distinct value / run and
   broadcast the verdicts through codes / run lengths.
3. Late materialization — :func:`take` gathers only surviving rows, and
   only decodes what the gather needs (FOR: ``offsets[idx] + ref``;
   dict: ``uniques[codes[idx]]``; RLE: a ``searchsorted`` over run
   bounds).

Only ``delta_zlib`` blocks fall back to a full decode (deflate is not
random-access); :func:`range_mask` reports which path ran so callers can
attribute encoded vs. materialized bytes honestly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

from .compression import (
    CompressedBlock,
    CompressionError,
    decode,
    dict_parts,
    for_parts,
    int_bounds,
    plain_view,
    rle_parts,
)

#: Zone-map verdicts (:mod:`repro.engine.scan`), shared with the
#: segmented imprints.  Their order matters: SKIP < FULL < PROBE.
ZONE_SKIP = 0
ZONE_FULL = 1
ZONE_PROBE = 2

#: Above this magnitude float64 cannot represent every integer, so a
#: float-bound comparison through numpy promotion may disagree with
#: exact integer arithmetic; the FOR kernel decodes instead to stay
#: bit-identical with the uncompressed baseline.
_FLOAT_EXACT_LIMIT = 1 << 53


class RangePredicate(NamedTuple):
    """``lo <(=) value <(=) hi`` (either bound may be ``None``), or its
    complement when ``negate`` is set."""

    lo: Optional[Any]
    hi: Optional[Any]
    lo_inclusive: bool = True
    hi_inclusive: bool = True
    negate: bool = False


#: Every comparison operator as a range predicate on the constant
#: (``==`` is the degenerate range ``[c, c]``, ``!=`` its complement), so
#: zone pruning and the packed fast paths cover all six operators.
_THETA_RANGES: Dict[str, Callable[[Any], RangePredicate]] = {
    "==": lambda c: RangePredicate(c, c),
    "!=": lambda c: RangePredicate(c, c, negate=True),
    "<": lambda c: RangePredicate(None, c, hi_inclusive=False),
    "<=": lambda c: RangePredicate(None, c),
    ">": lambda c: RangePredicate(c, None, lo_inclusive=False),
    ">=": lambda c: RangePredicate(c, None),
}


def theta_range(op: str, constant: Any) -> RangePredicate:
    """``value <op> constant`` as a :class:`RangePredicate`."""
    try:
        return _THETA_RANGES[op](constant)
    except KeyError:
        raise CompressionError(f"unsupported theta operator {op!r}") from None


def _is_float_bound(bound: Optional[Any]) -> bool:
    return isinstance(bound, (float, np.floating))


def _for_needs_decode(
    block: CompressedBlock, lo: Optional[Any], hi: Optional[Any]
) -> bool:
    """Exact integer bound translation can disagree with the numpy
    float-promotion baseline once values leave float64's exact-integer
    range; decode there so packed results stay bit-identical.  (This
    covers integral float bounds too: numpy compares int64 against any
    float constant in float64, rounding the *values*.)"""
    if not (_is_float_bound(lo) or _is_float_bound(hi)):
        return False
    if block.zmin is None or block.zmax is None:
        return True
    return (
        abs(int(block.zmin)) > _FLOAT_EXACT_LIMIT
        or abs(int(block.zmax)) > _FLOAT_EXACT_LIMIT
    )


def bounds_mask(
    values: NDArray[Any],
    lo: Optional[Any],
    hi: Optional[Any],
    lo_inclusive: bool,
    hi_inclusive: bool,
) -> NDArray[np.bool_]:
    """The baseline numpy evaluation of a range predicate, of the shape
    of ``values`` — the plain compare every packed kernel must match
    (and runs itself on small domains: dictionary entries, run values,
    decoded rows)."""
    if lo is None and hi is None:
        return np.ones(values.shape, dtype=bool)
    if lo is None:
        return values <= hi if hi_inclusive else values < hi
    mask: NDArray[np.bool_] = values >= lo if lo_inclusive else values > lo
    if hi is not None:
        mask &= values <= hi if hi_inclusive else values < hi
    return mask


def _for_range_mask(
    block: CompressedBlock,
    lo: Optional[Any],
    hi: Optional[Any],
    lo_inclusive: bool,
    hi_inclusive: bool,
) -> NDArray[np.bool_]:
    """Range predicate as a pure integer compare on packed FOR words."""
    reference, offsets = for_parts(block)
    n = offsets.shape[0]
    L, U = int_bounds(lo, hi, lo_inclusive, hi_inclusive)
    if L is not None and U is not None and L > U:
        return np.zeros(n, dtype=bool)
    if block.zmax is not None:
        span = int(block.zmax) - reference
    else:
        span = int(offsets.max()) if n else 0
    mask: Optional[NDArray[np.bool_]] = None
    if L is not None and L > reference:
        lo_off = L - reference
        if lo_off > span:
            return np.zeros(n, dtype=bool)
        mask = offsets >= offsets.dtype.type(lo_off)
    if U is not None and U < reference + span:
        if U < reference:
            return np.zeros(n, dtype=bool)
        hi_mask = offsets <= offsets.dtype.type(U - reference)
        mask = hi_mask if mask is None else mask & hi_mask
    if mask is None:
        return np.ones(n, dtype=bool)
    return mask


def range_mask(
    block: CompressedBlock,
    lo: Optional[Any],
    hi: Optional[Any],
    lo_inclusive: bool = True,
    hi_inclusive: bool = True,
) -> Tuple[NDArray[np.bool_], bool]:
    """Selection mask of ``lo <(=) value <(=) hi`` over one block.

    Returns ``(mask, packed)`` where ``packed`` is True when the
    predicate was evaluated on the encoded representation without
    decoding the column (everything but ``delta_zlib`` and the rare FOR
    float-parity fallback).
    """
    if block.count == 0:
        return np.zeros(0, dtype=bool), True
    if block.scheme == "for" and not _for_needs_decode(block, lo, hi):
        return _for_range_mask(block, lo, hi, lo_inclusive, hi_inclusive), True
    if block.scheme == "dict":
        uniques, codes = dict_parts(block)
        umask = bounds_mask(uniques, lo, hi, lo_inclusive, hi_inclusive)
        return umask[codes], True
    if block.scheme == "rle":
        run_values, run_lengths = rle_parts(block)
        rmask = bounds_mask(run_values, lo, hi, lo_inclusive, hi_inclusive)
        return np.repeat(rmask, run_lengths), True
    if block.scheme == "plain":
        view = plain_view(block)
        return bounds_mask(view, lo, hi, lo_inclusive, hi_inclusive), True
    values = decode(block)
    return bounds_mask(values, lo, hi, lo_inclusive, hi_inclusive), False


def predicate_mask(
    block: CompressedBlock, predicate: RangePredicate
) -> Tuple[NDArray[np.bool_], bool]:
    """:func:`range_mask` of the predicate's range, complemented when it
    is negated; ``packed`` as for :func:`range_mask`."""
    lo, hi, lo_inclusive, hi_inclusive, negate = predicate
    mask, packed = range_mask(block, lo, hi, lo_inclusive, hi_inclusive)
    return (~mask if negate else mask), packed


def take(block: CompressedBlock, idx: NDArray[Any]) -> NDArray[Any]:
    """Materialize only the rows at ``idx`` (block-local positions).

    This is the late-materialization gather: survivors of a packed
    predicate are decoded individually instead of round-tripping the
    whole block.
    """
    dtype = np.dtype(block.dtype)
    if idx.shape[0] == 0:
        return np.empty(0, dtype=dtype)
    if block.scheme == "for":
        reference, offsets = for_parts(block)
        picked = offsets[idx].astype(np.uint64) + np.uint64(
            reference & 0xFFFFFFFFFFFFFFFF
        )
        return picked.astype(dtype)
    if block.scheme == "dict":
        uniques, codes = dict_parts(block)
        out: NDArray[Any] = uniques[codes[idx]]
        return out.astype(dtype)
    if block.scheme == "rle":
        run_values, run_lengths = rle_parts(block)
        stops = np.cumsum(run_lengths)
        picked_rle: NDArray[Any] = run_values[np.searchsorted(stops, idx, side="right")]
        return picked_rle.astype(dtype)
    if block.scheme == "plain":
        view = plain_view(block)
        return view[idx].astype(dtype)
    return decode(block)[idx]


def scan_bytes(block: CompressedBlock, packed: bool) -> int:
    """Bytes a predicate evaluation actually moved over this block:
    the encoded payload for packed evaluation, the materialized array
    for a decode fallback."""
    return block.nbytes if packed else block.plain_nbytes


__all__ = [
    "ZONE_SKIP",
    "ZONE_FULL",
    "ZONE_PROBE",
    "RangePredicate",
    "theta_range",
    "bounds_mask",
    "range_mask",
    "predicate_mask",
    "take",
    "scan_bytes",
]

"""Typed, append-only columns backed by numpy arrays.

A :class:`Column` is the unit of storage in the engine, playing the role of
a MonetDB BAT (Binary Association Table) tail: a densely packed, typed array
of values whose implicit position is the row id (``oid``).  Columns grow by
appending batches; capacity is doubled geometrically so bulk loading is
amortised O(1) per value, which mirrors the append-optimised loading path
described in Section 3.2 of the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike, NDArray

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .compressed import CompressedColumn

#: Logical type names accepted by the engine, mapped to numpy dtypes.  These
#: are the types needed by the 26-attribute LAS flat table plus bookkeeping.
TYPE_MAP: Dict[str, np.dtype[Any]] = {
    "bool": np.dtype(np.bool_),
    "int8": np.dtype(np.int8),
    "uint8": np.dtype(np.uint8),
    "int16": np.dtype(np.int16),
    "uint16": np.dtype(np.uint16),
    "int32": np.dtype(np.int32),
    "uint32": np.dtype(np.uint32),
    "int64": np.dtype(np.int64),
    "uint64": np.dtype(np.uint64),
    "float32": np.dtype(np.float32),
    "float64": np.dtype(np.float64),
}

#: Reverse map used when reconstructing a column from a raw numpy array.
_DTYPE_TO_NAME = {v: k for k, v in TYPE_MAP.items()}

_INITIAL_CAPACITY = 1024


class ColumnTypeError(TypeError):
    """Raised when a value batch cannot be stored in the column's type."""


def resolve_type(type_name: Union[str, np.dtype[Any]]) -> np.dtype[Any]:
    """Return the numpy dtype for a logical type name.

    Accepts either an engine type name (``"float64"``) or a numpy dtype that
    exactly matches a supported type.
    """
    if isinstance(type_name, np.dtype):
        if type_name not in _DTYPE_TO_NAME:
            raise ColumnTypeError(f"unsupported column dtype: {type_name}")
        return type_name
    try:
        return TYPE_MAP[type_name]
    except KeyError:
        raise ColumnTypeError(f"unknown column type: {type_name!r}") from None


class Column:
    """An append-only typed column.

    Parameters
    ----------
    name:
        Column name within its table.
    type_name:
        Logical type, one of :data:`TYPE_MAP`.
    data:
        Optional initial values; copied into the column.
    """

    __slots__ = ("name", "dtype", "_buf", "_len", "_minmax_cache", "_packed")

    def __init__(
        self,
        name: str,
        type_name: Union[str, np.dtype[Any]],
        data: Optional[ArrayLike] = None,
    ) -> None:
        self.name = name
        self.dtype = resolve_type(type_name)
        self._buf: NDArray[Any] = np.empty(_INITIAL_CAPACITY, dtype=self.dtype)
        self._len = 0
        self._minmax_cache: Optional[Tuple[Any, Any]] = None
        self._packed: Optional["CompressedColumn"] = None
        if data is not None:
            self.append(data)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_array(cls, name: str, array: NDArray[Any]) -> "Column":
        """Wrap an existing numpy array (copied) as a column."""
        array = np.asarray(array)
        col = cls(name, array.dtype)
        col.append(array)
        return col

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Column({self.name!r}, {self.type_name}, n={self._len})"

    @property
    def type_name(self) -> str:
        """Logical engine type name of this column."""
        return _DTYPE_TO_NAME[self.dtype]

    @property
    def values(self) -> NDArray[Any]:
        """A read-only view of the column's values (no copy)."""
        view = self._buf[: self._len]
        view.flags.writeable = False
        return view

    @property
    def nbytes(self) -> int:
        """Bytes occupied by live values (excludes growth slack)."""
        return self._len * self.dtype.itemsize

    # -- mutation ----------------------------------------------------------

    def _grow_to(self, needed: int) -> None:
        if needed <= self._buf.shape[0]:
            return
        cap = max(self._buf.shape[0], _INITIAL_CAPACITY)
        while cap < needed:
            cap *= 2
        buf = np.empty(cap, dtype=self.dtype)
        buf[: self._len] = self._buf[: self._len]
        self._buf = buf

    def append(self, values: ArrayLike) -> int:
        """Append a batch of values; returns the oid of the first new row.

        Values are converted with ``numpy.asarray`` and must be safely
        castable to the column dtype (``same_kind`` casting); anything else
        raises :class:`ColumnTypeError` rather than silently truncating.
        """
        arr = np.asarray(values)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim != 1:
            raise ColumnTypeError("columns store 1-D value batches")
        if arr.dtype != self.dtype:
            if arr.size == 0:
                arr = arr.astype(self.dtype)
            elif np.can_cast(arr.dtype, self.dtype, casting="same_kind"):
                arr = arr.astype(self.dtype)
            else:
                # Kind-incompatible (e.g. Python ints into uint8): allow it
                # only when every value survives the round trip exactly —
                # reject anything that would silently truncate or wrap.
                cast = arr.astype(self.dtype)
                if not np.array_equal(cast, arr):
                    raise ColumnTypeError(
                        f"cannot append {arr.dtype} values to "
                        f"{self.type_name} column {self.name!r}"
                    )
                arr = cast
        first_oid = self._len
        self._grow_to(self._len + arr.shape[0])
        self._buf[self._len : self._len + arr.shape[0]] = arr
        self._len += arr.shape[0]
        self._minmax_cache = None
        self._packed = None
        return first_oid

    def adopt(self, values: NDArray[Any]) -> int:
        """Append an array the caller gives up; returns the first oid.

        On an empty column an array it can use as is — same dtype,
        1-D, contiguous, writeable — becomes the column's buffer with
        no copy.  This is the storage loader's path: its arrays are
        copy-on-write maps of the ``.col`` payloads, held by nobody
        else, so the column's buffer is the file's pages and only the
        pages a query reads become resident.  Anything else is an
        ordinary :meth:`append`.  An adopted buffer has no growth
        slack, so the next append reallocates; an append after a
        :meth:`truncate` writes into private pages, never the file.
        """
        if (
            self._len
            or values.ndim != 1
            or values.dtype != self.dtype
            or not values.flags.c_contiguous
            or not values.flags.writeable
        ):
            return self.append(values)
        self._buf = values
        self._len = values.shape[0]
        self._minmax_cache = None
        self._packed = None
        return 0

    def truncate(self, n: int) -> None:
        """Discard every row from oid ``n`` on (crash-recovery rollback).

        Columns are append-only in normal operation; truncation exists
        solely so recovery can roll back a torn tail append.  Callers
        owning indexes over the column must invalidate them.
        """
        if not 0 <= n <= self._len:
            raise ValueError(
                f"cannot truncate column {self.name!r} of {self._len} "
                f"rows to {n}"
            )
        self._len = n
        self._minmax_cache = None
        self._packed = None

    # -- access ------------------------------------------------------------

    def take(self, oids: NDArray[Any]) -> NDArray[Any]:
        """Fetch values at the given row ids (late materialisation)."""
        return self._buf[: self._len][oids]

    def minmax(self) -> Tuple[Any, Any]:
        """(min, max) over the column; raises ValueError when empty.

        Cached until the next append (MonetDB keeps the same per-column
        min/max property), so planners may call this per query for free.
        """
        if self._len == 0:
            raise ValueError(f"column {self.name!r} is empty")
        if self._minmax_cache is None:
            vals = self._buf[: self._len]
            self._minmax_cache = (vals.min(), vals.max())
        return self._minmax_cache

    # -- compressed execution mirror ---------------------------------------

    @property
    def packed(self) -> Optional["CompressedColumn"]:
        """The column's compressed execution mirror, or ``None``.

        The mirror is invalidated (dropped) by every append/truncate, so
        a non-``None`` result is always an exact snapshot of the current
        rows and the select operators may scan it instead of the plain
        buffer.
        """
        if self._packed is not None and self._packed.n_rows != self._len:
            self._packed = None
        return self._packed

    def pack(
        self,
        segment_rows: Optional[int] = None,
        scheme: str = "auto",
    ) -> "CompressedColumn":
        """Build (or rebuild) the compressed execution mirror."""
        from .compressed import DEFAULT_SEGMENT_ROWS, CompressedColumn

        packed = CompressedColumn.from_values(
            self.name,
            self._buf[: self._len],
            segment_rows=segment_rows or DEFAULT_SEGMENT_ROWS,
            scheme=scheme,
        )
        self._packed = packed
        return packed

    def adopt_packed(self, packed: Optional["CompressedColumn"]) -> None:
        """Attach a mirror built elsewhere (the storage loader); it must
        describe exactly this column's rows."""
        if packed is not None and packed.n_rows != self._len:
            raise ValueError(
                f"packed mirror has {packed.n_rows} rows, column "
                f"{self.name!r} has {self._len}"
            )
        self._packed = packed

    def drop_packed(self) -> None:
        """Discard the compressed mirror (fall back to plain scans)."""
        self._packed = None

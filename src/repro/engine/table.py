"""Flat tables: ordered collections of equal-length columns.

The paper's storage model (Section 3.1) is deliberately simple: one flat
table per point cloud, one column per attribute, one tuple per point.  This
module implements that model.  A :class:`Table` enforces that all columns
stay aligned (same length) and exposes batch append in both row-batch and
column-batch form; the latter is the fast path used by the binary loader.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike

from .column import Column

Schema = Sequence[Tuple[str, str]]


class SchemaError(ValueError):
    """Raised on schema violations: duplicate/unknown columns, ragged data."""


class Table:
    """A flat table: named, equal-length typed columns.

    Parameters
    ----------
    name:
        Table name within its database.
    schema:
        Sequence of ``(column_name, type_name)`` pairs, in column order.
    """

    def __init__(self, name: str, schema: Schema) -> None:
        self.name = name
        self._columns: Dict[str, Column] = {}
        for col_name, type_name in schema:
            if col_name in self._columns:
                raise SchemaError(f"duplicate column {col_name!r}")
            self._columns[col_name] = Column(col_name, type_name)

    # -- schema ------------------------------------------------------------

    @property
    def schema(self) -> List[Tuple[str, str]]:
        """The table schema as ``(name, type_name)`` pairs in order."""
        return [(c.name, c.type_name) for c in self._columns.values()]

    @property
    def column_names(self) -> List[str]:
        return list(self._columns.keys())

    def column(self, name: str) -> Column:
        """Look up a column by name."""
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __len__(self) -> int:
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Table({self.name!r}, cols={len(self._columns)}, n={len(self)})"

    @property
    def nbytes(self) -> int:
        """Total bytes of live values across all columns."""
        return sum(c.nbytes for c in self._columns.values())

    # -- mutation ----------------------------------------------------------

    def append_columns(self, batch: Mapping[str, ArrayLike]) -> int:
        """Append a column-oriented batch; returns first new oid.

        ``batch`` must contain exactly the table's columns and all arrays
        must have equal length.  This is the engine half of the paper's
        ``COPY BINARY`` bulk-load path.
        """
        missing = set(self._columns) - set(batch)
        extra = set(batch) - set(self._columns)
        if missing or extra:
            raise SchemaError(
                f"batch columns do not match schema "
                f"(missing={sorted(missing)}, unknown={sorted(extra)})"
            )
        arrays = {name: np.asarray(vals) for name, vals in batch.items()}
        lengths = {arr.shape[0] for arr in arrays.values()}
        if len(lengths) > 1:
            raise SchemaError(f"ragged batch: column lengths {sorted(lengths)}")
        first_oid = len(self)
        for name, arr in arrays.items():
            self._columns[name].append(arr)
        return first_oid

    def truncate(self, n: int) -> None:
        """Roll the table back to its first ``n`` rows.

        Exists for crash recovery (rolling back a torn tail append), not
        for general mutation; indexes over the table must be invalidated
        by the caller.
        """
        if not 0 <= n <= len(self):
            raise SchemaError(
                f"cannot truncate table {self.name!r} of {len(self)} "
                f"rows to {n}"
            )
        for column in self._columns.values():
            column.truncate(n)

    # -- compressed execution ----------------------------------------------

    def compress(
        self,
        columns: Optional[Sequence[str]] = None,
        segment_rows: Optional[int] = None,
        scheme: str = "auto",
    ) -> Dict[str, str]:
        """Build compressed execution mirrors for the given columns (all
        by default); returns ``{column: dominant scheme}``.

        Mirrors are invalidated automatically by appends/truncates and
        rebuilt at the next :func:`compress` (or at save time by the
        storage layer), so calling this after bulk load is enough.
        """
        names = list(columns) if columns is not None else self.column_names
        report: Dict[str, str] = {}
        for name in names:
            packed = self.column(name).pack(segment_rows=segment_rows, scheme=scheme)
            counts = packed.scheme_counts()
            report[name] = (
                max(counts, key=lambda k: counts[k]) if counts else "plain"
            )
        return report

    def compression_report(self) -> Dict[str, Dict[str, object]]:
        """Per-column compression state: scheme mix and byte footprints
        for every column that currently has a packed mirror."""
        report: Dict[str, Dict[str, object]] = {}
        for name in self.column_names:
            packed = self.column(name).packed
            if packed is None:
                continue
            report[name] = {
                "schemes": packed.scheme_counts(),
                "nbytes": packed.nbytes,
                "plain_nbytes": packed.plain_nbytes,
                "segments": len(packed.blocks),
            }
        return report

    # -- access ------------------------------------------------------------

    def row(self, oid: int) -> Tuple[Any, ...]:
        """A single row as a tuple in schema order (debug/point lookups)."""
        return tuple(self.column(n).values[oid] for n in self.column_names)

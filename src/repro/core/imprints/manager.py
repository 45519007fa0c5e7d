"""Lazy, per-column imprint management.

MonetDB creates an imprint "when it encounters a range query for the first
time" (Section 3.2).  :class:`ImprintsManager` reproduces that lifecycle:
the first :meth:`range_select` on a column builds its imprint as a side
effect; later queries reuse it; appends to the column mark it stale and the
next query brings it up to date.  Queries through the manager are therefore
always exact, whatever the column's mutation history.

The managed index is a :class:`~.segments.SegmentedImprints`: the
initial build runs segment by segment, and an append extends the index
**incrementally** — only the new (plus at most one trailing partial)
segment is built, instead of the old full O(n) rebuild.  ``builds`` still counts column-level build
events; ``segment_builds`` counts the per-segment work those events
actually did, which is what the append-cost benches watch.

The spatial filter's ranges on X, Y (and Z) go through
:meth:`ImprintsManager.select_conjunction`: one fused scan that ANDs the
imprints of every axis it may use.  It **maintains but never creates**
the secondary indexes — only the columns the caller names are built on
first use — so a cold first query still pays for exactly one build.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Collection,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np
from numpy.typing import NDArray

from ...engine.kernels import RangePredicate
from ...engine.table import Table
from ...obs.metrics import get_registry
from ...obs.timing import now
from ...obs.trace import maybe_span
from .segments import (
    DEFAULT_SEGMENT_ROWS,
    ImprintStats,
    RangeTerm,
    SegmentedImprints,
    select_conjunction,
)

if TYPE_CHECKING:
    from ..query import QueryStats


class ImprintsManager:
    """Registry of lazily built imprints, keyed by (table, column) name.

    Parameters
    ----------
    threads:
        Ignored; execution is serial; removed when ``benchmarks/e2e/``
        stops passing it.
    segment_rows:
        Segment granularity of new indexes.
    build_kwargs:
        Forwarded to :class:`SegmentedImprints` (bin budget, cacheline
        size...).
    """

    def __init__(
        self,
        threads: Optional[int] = None,
        segment_rows: int = DEFAULT_SEGMENT_ROWS,
        **build_kwargs: Any,
    ) -> None:
        self.segment_rows = segment_rows
        self._build_kwargs = build_kwargs
        # Guards the imprint dict and build bookkeeping: two threads
        # racing range_select() on a cold column must not both build
        # (and double-count) the same index.
        self._lock = threading.Lock()
        self._imprints: Dict[Tuple[str, str], SegmentedImprints] = {}
        self.builds = 0  # column-level index (re)build events
        self.segment_builds = 0  # per-segment builds those events performed
        #: Paths of imprint files quarantined during :meth:`load`.
        self.quarantined: List[str] = []

    def _key(self, table: Table, column_name: str) -> Tuple[str, str]:
        return (table.name, column_name)

    def get(self, table: Table, column_name: str) -> Optional[SegmentedImprints]:
        """The current imprint for a column, or None if never built."""
        return self._imprints.get(self._key(table, column_name))

    def ensure(self, table: Table, column_name: str) -> SegmentedImprints:
        """Return a fresh imprint, building or extending as needed.

        Serialised under the manager lock so concurrent first queries on
        a cold column build its index exactly once.
        """
        imp, _ = self._ensure(table, column_name)
        assert imp is not None
        return imp

    def _ensure(
        self,
        table: Table,
        column_name: str,
        create: bool = True,
    ) -> Tuple[Optional[SegmentedImprints], float]:
        """:meth:`ensure`, plus the seconds *this call* spent building.

        With ``create=False`` an index the manager holds is still brought
        up to date (incremental, O(appended)), but a missing one stays
        missing: ``(None, 0.0)``.
        """
        key = self._key(table, column_name)
        with self._lock:
            imp = self._imprints.get(key)
            built_seconds = 0.0
            if imp is None:
                if not create:
                    return None, 0.0
                with maybe_span(
                    "imprints.build", table=table.name, column=column_name
                ) as span:
                    t0 = now()
                    imp = SegmentedImprints(
                        table.column(column_name),
                        segment_rows=self.segment_rows,
                        **self._build_kwargs,
                    )
                    built_seconds = now() - t0
                    span.set(segments_built=imp.n_segments)
                self._imprints[key] = imp
                self._record_build(imp.n_segments, built_seconds)
            elif imp.stale:
                # Incremental: only new (and one trailing partial) segments
                # are indexed — appends no longer pay O(n).
                with maybe_span(
                    "imprints.extend", table=table.name, column=column_name
                ) as span:
                    t0 = now()
                    built = imp.extend()
                    built_seconds = now() - t0
                    span.set(segments_built=built)
                self._record_build(built, built_seconds)
            return imp, built_seconds

    def _record_build(self, segments_built: int, seconds: float) -> None:
        """One column-level build event (caller holds the lock)."""
        self.builds += 1
        self.segment_builds += segments_built
        registry = get_registry()
        registry.counter("imprints.builds").inc()
        registry.counter("imprints.segment_builds").inc(segments_built)
        registry.histogram("imprints.build_seconds").observe(seconds)

    def invalidate(self, table: Table, column_name: Optional[str] = None) -> None:
        """Drop imprints for one column or a whole table."""
        with self._lock:
            if column_name is not None:
                self._imprints.pop(self._key(table, column_name), None)
                return
            for key in [k for k in self._imprints if k[0] == table.name]:
                del self._imprints[key]

    def range_select(
        self,
        table: Table,
        column_name: str,
        lo: Optional[Any],
        hi: Optional[Any],
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
        threads: Optional[int] = None,
        stats: Optional["QueryStats"] = None,
    ) -> NDArray[Any]:
        """Exact range select, building the imprint on first use.

        ``stats`` receives the scan's zone-map accounting and the seconds
        a lazy build cost this call.  ``threads`` is ignored; execution
        is serial; removed when ``benchmarks/e2e/`` stops passing it.
        """
        imp, built_seconds = self._ensure(table, column_name)
        assert imp is not None
        if stats is not None:
            stats.imprint_build_seconds += built_seconds
        with maybe_span(
            "imprints.probe", table=table.name, column=column_name
        ) as span:
            oids = imp.query(lo, hi, lo_inclusive, hi_inclusive, stats=stats)
            span.set(rows_out=int(oids.shape[0]))
        return oids

    def select_conjunction(
        self,
        table: Table,
        ranges: Sequence[Tuple[str, Any, Any]],
        create: Collection[str] = (),
        stats: Optional["QueryStats"] = None,
    ) -> NDArray[np.int64]:
        """Exact oids of the rows inside every closed ``(column, lo, hi)``.

        One fused segment scan (:func:`~.segments.select_conjunction`)
        over the grid of the first range's imprint.  That column and the
        ones named in ``create`` get their imprint built on first use,
        exactly as :meth:`range_select` does.  Any other column
        contributes its imprint only if the manager already holds one
        (brought up to date, never created: a cold query builds one
        index, not one per axis) and only if it sits on the same segment
        grid; otherwise its values are simply compared.

        ``stats`` receives the build seconds this call spent, the scan
        (each segment counted once, and the dense/gather split of the
        probes) and the columns whose imprints took part.
        """
        terms: List[RangeTerm] = []
        grid: Optional[SegmentedImprints] = None
        for name, lo, hi in ranges:
            imp, built_seconds = self._ensure(
                table, name, create=grid is None or name in create
            )
            if stats is not None:
                stats.imprint_build_seconds += built_seconds
            if grid is None:
                grid = imp
            elif imp is not None and not grid.same_grid(imp):
                imp = None
            terms.append(RangeTerm(table.column(name), imp, RangePredicate(lo, hi)))
        if grid is None:
            raise ValueError("select_conjunction needs at least one range")
        indexed = tuple(t.column.name for t in terms if t.index is not None)
        with maybe_span(
            "imprints.probe", table=table.name, column=",".join(indexed)
        ) as span:
            oids = select_conjunction(
                grid, terms, scan=stats.scan if stats is not None else None
            )
            span.set(rows_out=int(oids.shape[0]))
        if stats is not None:
            stats.imprint_columns = indexed
        return oids

    @property
    def nbytes(self) -> int:
        """Total bytes across all live imprints."""
        return sum(imp.nbytes for imp in self._imprints.values())

    def stats(self) -> Dict[Tuple[str, str], ImprintStats]:
        """Per-(table, column) imprint statistics."""
        return {key: imp.stats() for key, imp in self._imprints.items()}

    # -- persistence -----------------------------------------------------------

    def save(self, directory: Union[str, Path]) -> int:
        """Persist every built imprint as one ``.imprint`` file per column.

        Returns total bytes written.  MonetDB keeps imprints next to the
        BAT files for the same reason: skip the rebuild after a restart.
        The ``(table, column)`` key is stored in each file's header — the
        file name is only a human-friendly hint.
        """
        from .persist import save_segmented

        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        total = 0
        for i, ((table_name, column_name), imprint) in enumerate(
            sorted(self._imprints.items())
        ):
            safe = "".join(
                ch if ch.isalnum() or ch in "-_" else "_"
                for ch in f"{table_name}.{column_name}"
            )
            path = root / f"{i:04d}.{safe}.imprint"
            total += save_segmented(imprint, table_name, column_name, path)
        return total

    def load(self, tables: Dict[str, Table], directory: Union[str, Path]) -> int:
        """Restore imprints for the given tables; returns how many loaded.

        The key comes from each file's header (never from the file name,
        which cannot round-trip dotted table names).  Degradation is
        graceful, never fatal: a corrupt, truncated or stale (foreign
        snapshot) imprint file is **quarantined** — renamed to
        ``<name>.quarantined`` with a warning and a
        ``durability.quarantines`` count — and the first query on that
        column simply rebuilds the index lazily, exactly as if it had
        never been persisted.  Files without the imprint magic and files
        for tables/columns this database does not know are skipped
        silently.
        """
        import warnings

        from ...engine.durable import quarantine_file
        from .persist import (
            ImprintPersistError,
            load_segmented,
            looks_like_segmented,
            read_segmented_key,
        )

        root = Path(directory)
        if not root.is_dir():
            return 0
        loaded = 0

        def _quarantine(path: Path, exc: Exception) -> None:
            target = quarantine_file(path, reason=str(exc))
            where = target if target is not None else path
            warnings.warn(
                f"quarantined corrupt imprint {path.name}: {exc} "
                f"(moved to {getattr(where, 'name', where)}; the index "
                f"will be rebuilt lazily)",
                RuntimeWarning,
                stacklevel=3,
            )
            with self._lock:
                self.quarantined.append(str(where))

        for path in sorted(root.glob("*.imprint")):
            if not looks_like_segmented(path):
                continue  # foreign file: lazy build covers the column
            try:
                table_name, column_name = read_segmented_key(path)
            except ImprintPersistError as exc:
                _quarantine(path, exc)
                continue
            table = tables.get(table_name)
            if table is None or column_name not in table:
                continue
            try:
                imprint = load_segmented(table.column(column_name), path)
            except ImprintPersistError as exc:
                _quarantine(path, exc)
                continue
            with self._lock:
                self._imprints[(table_name, column_name)] = imprint
            loaded += 1
        return loaded

    @staticmethod
    def verify_directory(directory: Union[str, Path]) -> List[str]:
        """Issues with the imprint files under ``directory`` (no load).

        Structural/checksum verification only — used by
        ``Database``-level health reports; an empty list means every
        segmented imprint file parses and checksums cleanly.
        """
        from .persist import (
            ImprintPersistError,
            looks_like_segmented,
            verify_segmented_file,
        )

        root = Path(directory)
        issues: List[str] = []
        if not root.is_dir():
            return issues
        for path in sorted(root.glob("*.imprint")):
            if not looks_like_segmented(path):
                continue
            try:
                verify_segmented_file(path)
            except ImprintPersistError as exc:
                issues.append(str(exc))
        return issues

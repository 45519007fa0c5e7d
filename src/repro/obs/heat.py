"""Workload heat accounting: where the traffic actually goes.

Every scan already *knows* its access shape — which segments it
skipped, probed, or accepted wholesale, and how many encoded vs
materialized bytes it touched; every spatial query knows its bbox
footprint.  This module folds those facts into **time-decayed (EWMA)
heat counters** so that "hot right now" is a first-class, queryable
property of the store:

* per ``(table, column, segment)``: probes / skips / full-accepts and
  encoded / materialized bytes (segment ``-1`` = an unsegmented plain
  scan of the whole column);
* per ``(table, grid cell)``: query counts and bytes, rasterised from
  each query's bbox footprint onto a fixed ``grid × grid`` lattice over
  the table's coordinate domain.

Decay is exponential with a configurable half-life over *wall-clock*
time, so heat ages out across restarts too.  State is periodically
persisted as one JSONL window record per flush through
``durable.atomic_append_text`` (crash-safe, torn-tail-tolerant on
read), and :meth:`HeatMap.hints` distils it into the ranked hot-extent
"partitioning hints" JSON that the ROADMAP item 2 sharding work
consumes (see ``docs/observability.md``).

Recording is opt-in: hot paths call :func:`maybe_heat` and skip out on
``None``, so the disabled cost is one module-global read per scan.
"""

from __future__ import annotations

import json
import math
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .metrics import MetricsRegistry, get_registry
from .queries import current_query

__all__ = [
    "DEFAULT_FLUSH_INTERVAL_S",
    "DEFAULT_GRID",
    "DEFAULT_HALFLIFE_S",
    "HEAT_JOURNAL_NAME",
    "HeatMap",
    "disable_heat",
    "enable_heat",
    "maybe_heat",
    "read_journal",
]

DEFAULT_HALFLIFE_S = 600.0
DEFAULT_GRID = 16
DEFAULT_FLUSH_INTERVAL_S = 30.0
HEAT_JOURNAL_NAME = "heat.jsonl"

#: Bounded state: past these, the coldest entry is evicted on insert.
MAX_SEGMENT_ENTRIES = 8192
MAX_EXTENT_ENTRIES = 4096

_LN2 = math.log(2.0)

SegmentKey = Tuple[str, str, int]  # (table, column, segment; -1 = whole column)
ExtentKey = Tuple[str, int, int]  # (table, cell ix, cell iy)
Bounds = Tuple[float, float, float, float]  # xmin, ymin, xmax, ymax


def _decay(value: float, elapsed: float, halflife_s: float) -> float:
    if value == 0.0 or elapsed <= 0.0:
        return value
    return value * math.exp(-elapsed * _LN2 / halflife_s)


class _SegmentHeat:
    __slots__ = (
        "probes",
        "skips",
        "fulls",
        "encoded_bytes",
        "materialized_bytes",
        "last_ts",
    )

    def __init__(self, ts: float) -> None:
        self.probes = 0.0
        self.skips = 0.0
        self.fulls = 0.0
        self.encoded_bytes = 0.0
        self.materialized_bytes = 0.0
        self.last_ts = ts

    def decay_to(self, ts: float, halflife_s: float) -> None:
        elapsed = ts - self.last_ts
        if elapsed > 0.0:
            self.probes = _decay(self.probes, elapsed, halflife_s)
            self.skips = _decay(self.skips, elapsed, halflife_s)
            self.fulls = _decay(self.fulls, elapsed, halflife_s)
            self.encoded_bytes = _decay(self.encoded_bytes, elapsed, halflife_s)
            self.materialized_bytes = _decay(
                self.materialized_bytes, elapsed, halflife_s
            )
        self.last_ts = ts

    def bytes_touched(self) -> float:
        return self.encoded_bytes + self.materialized_bytes


class _ExtentHeat:
    __slots__ = ("queries", "nbytes", "last_ts")

    def __init__(self, ts: float) -> None:
        self.queries = 0.0
        self.nbytes = 0.0
        self.last_ts = ts

    def decay_to(self, ts: float, halflife_s: float) -> None:
        elapsed = ts - self.last_ts
        if elapsed > 0.0:
            self.queries = _decay(self.queries, elapsed, halflife_s)
            self.nbytes = _decay(self.nbytes, elapsed, halflife_s)
        self.last_ts = ts


def _query_table() -> str:
    """Attribute a scan to the in-flight query's table, if it names one.

    Spatial queries carry ``detail={"table": ...}``; SQL queries carry
    only the statement text, so their scans fall back to ``"?"``.
    """
    query = current_query()
    if query is not None:
        table = query.detail.get("table")
        if isinstance(table, str) and table:
            return table
    return "?"


class HeatMap:
    """EWMA-decayed workload heat, journalled to ``heat.jsonl``."""

    def __init__(
        self,
        halflife_s: float = DEFAULT_HALFLIFE_S,
        grid: int = DEFAULT_GRID,
        journal: Optional[Union[str, Path]] = None,
        flush_interval_s: float = DEFAULT_FLUSH_INTERVAL_S,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if halflife_s <= 0:
            raise ValueError(f"halflife_s must be positive, got {halflife_s}")
        if grid <= 0:
            raise ValueError(f"grid must be positive, got {grid}")
        self.halflife_s = float(halflife_s)
        self.grid = int(grid)
        self.journal = Path(journal) if journal is not None else None
        self.flush_interval_s = float(flush_interval_s)
        self._registry = registry
        self._lock = threading.Lock()
        self._segments: Dict[SegmentKey, _SegmentHeat] = {}
        self._extents: Dict[ExtentKey, _ExtentHeat] = {}
        #: Per-table coordinate domain, fixed at first footprint: the
        #: cell lattice must stay stable for heat to accumulate.
        self._domains: Dict[str, Bounds] = {}
        self._last_flush = time.time()

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    # -- recording (hot path; one batched call per scan) --------------------

    def record_scan(
        self,
        column: str,
        probed: Sequence[Tuple[int, int, int]],
        skipped: Sequence[int] = (),
        full: Sequence[int] = (),
        table: Optional[str] = None,
    ) -> None:
        """Fold one scan's per-segment outcomes into the heat counters.

        ``probed`` rows are ``(segment, encoded_bytes, materialized_bytes)``;
        ``skipped`` / ``full`` are segment indexes.  Segment ``-1`` means
        an unsegmented scan of the whole column.
        """
        owner = table if table is not None else _query_table()
        ts = time.time()
        with self._lock:
            for segment, encoded, materialized in probed:
                heat = self._segment(owner, column, segment, ts)
                heat.probes += 1.0
                heat.encoded_bytes += float(encoded)
                heat.materialized_bytes += float(materialized)
            for segment in skipped:
                self._segment(owner, column, segment, ts).skips += 1.0
            for segment in full:
                self._segment(owner, column, segment, ts).fulls += 1.0
        self.registry.counter("heat.updates").inc()

    def record_footprint(
        self,
        table: str,
        bbox: Bounds,
        domain: Bounds,
        nbytes: int,
        queries: int = 1,
    ) -> None:
        """Rasterise one query's bbox onto the table's extent grid.

        ``domain`` is the table's full coordinate extent (column
        min/max — cheap and cached); the first call fixes the lattice.
        ``nbytes`` spreads uniformly over the intersecting cells.
        """
        ts = time.time()
        with self._lock:
            dom = self._domains.setdefault(table, domain)
            cells = self._cells(bbox, dom)
            if not cells:
                return
            per_cell = float(nbytes) / len(cells)
            for ix, iy in cells:
                heat = self._extent(table, ix, iy, ts)
                heat.queries += float(queries)
                heat.nbytes += per_cell
        self.registry.counter("heat.updates").inc()

    def _segment(
        self, table: str, column: str, segment: int, ts: float
    ) -> _SegmentHeat:
        key = (table, column, segment)
        heat = self._segments.get(key)
        if heat is None:
            if len(self._segments) >= MAX_SEGMENT_ENTRIES:
                self._evict_coldest_segment(ts)
            heat = _SegmentHeat(ts)
            self._segments[key] = heat
        else:
            heat.decay_to(ts, self.halflife_s)
        return heat

    def _extent(self, table: str, ix: int, iy: int, ts: float) -> _ExtentHeat:
        key = (table, ix, iy)
        heat = self._extents.get(key)
        if heat is None:
            if len(self._extents) >= MAX_EXTENT_ENTRIES:
                self._evict_coldest_extent(ts)
            heat = _ExtentHeat(ts)
            self._extents[key] = heat
        else:
            heat.decay_to(ts, self.halflife_s)
        return heat

    def _evict_coldest_segment(self, ts: float) -> None:
        coldest = min(
            self._segments.items(),
            key=lambda kv: _decay(
                kv[1].bytes_touched() + kv[1].probes + kv[1].skips + kv[1].fulls,
                ts - kv[1].last_ts,
                self.halflife_s,
            ),
        )
        del self._segments[coldest[0]]

    def _evict_coldest_extent(self, ts: float) -> None:
        coldest = min(
            self._extents.items(),
            key=lambda kv: _decay(
                kv[1].nbytes + kv[1].queries, ts - kv[1].last_ts, self.halflife_s
            ),
        )
        del self._extents[coldest[0]]

    def _cells(self, bbox: Bounds, domain: Bounds) -> List[Tuple[int, int]]:
        if not all(map(math.isfinite, bbox)):
            return []  # a NaN envelope (a broken geometry) selects nothing
        xmin, ymin, xmax, ymax = domain
        width = xmax - xmin
        height = ymax - ymin
        if width <= 0 or height <= 0:
            return [(0, 0)]
        n = self.grid

        def clamp(i: float) -> int:
            return min(n - 1, max(0, int(i)))

        ix0 = clamp((bbox[0] - xmin) / width * n)
        ix1 = clamp((bbox[2] - xmin) / width * n)
        iy0 = clamp((bbox[1] - ymin) / height * n)
        iy1 = clamp((bbox[3] - ymin) / height * n)
        return [
            (ix, iy)
            for ix in range(ix0, ix1 + 1)
            for iy in range(iy0, iy1 + 1)
        ]

    def _cell_extent(self, table: str, ix: int, iy: int) -> Optional[Bounds]:
        domain = self._domains.get(table)
        if domain is None:
            return None
        xmin, ymin, xmax, ymax = domain
        cw = (xmax - xmin) / self.grid
        ch = (ymax - ymin) / self.grid
        return (
            xmin + ix * cw,
            ymin + iy * ch,
            xmin + (ix + 1) * cw,
            ymin + (iy + 1) * ch,
        )

    # -- views --------------------------------------------------------------

    def snapshot(self, top: int = 20) -> Dict[str, Any]:
        """JSON-ready decayed-to-now view (``/debug/heat``, CLI)."""
        ts = time.time()
        with self._lock:
            segments = self._segment_rows(ts)
            extents = self._extent_rows(ts)
            tables = {key[0] for key in self._segments} | {
                key[0] for key in self._extents
            }
        segments.sort(key=lambda row: -float(row["bytes"]))
        extents.sort(key=lambda row: -float(row["bytes"]))
        registry = self.registry
        registry.gauge("heat.tables").set(float(len(tables)))
        registry.gauge("heat.segments").set(float(len(segments)))
        registry.gauge("heat.extents").set(float(len(extents)))
        registry.gauge("heat.hottest_segment_bytes").set(
            float(segments[0]["bytes"]) if segments else 0.0
        )
        registry.gauge("heat.hottest_extent_bytes").set(
            float(extents[0]["bytes"]) if extents else 0.0
        )
        return {
            "enabled": True,
            "ts": ts,
            "halflife_s": self.halflife_s,
            "grid": self.grid,
            "tables": sorted(tables),
            "segments": segments[:top],
            "extents": extents[:top],
            "totals": {
                "segments": len(segments),
                "extents": len(extents),
            },
        }

    def _segment_rows(self, ts: float) -> List[Dict[str, Any]]:
        rows: List[Dict[str, Any]] = []
        for (table, column, segment), heat in self._segments.items():
            heat.decay_to(ts, self.halflife_s)
            rows.append(
                {
                    "table": table,
                    "column": column,
                    "segment": segment,
                    "probes": round(heat.probes, 3),
                    "skips": round(heat.skips, 3),
                    "fulls": round(heat.fulls, 3),
                    "encoded_bytes": round(heat.encoded_bytes, 1),
                    "materialized_bytes": round(heat.materialized_bytes, 1),
                    "bytes": round(heat.bytes_touched(), 1),
                }
            )
        return rows

    def _extent_rows(self, ts: float) -> List[Dict[str, Any]]:
        rows: List[Dict[str, Any]] = []
        for (table, ix, iy), heat in self._extents.items():
            heat.decay_to(ts, self.halflife_s)
            row: Dict[str, Any] = {
                "table": table,
                "cell": [ix, iy],
                "queries": round(heat.queries, 3),
                "bytes": round(heat.nbytes, 1),
            }
            extent = self._cell_extent(table, ix, iy)
            if extent is not None:
                row["extent"] = [round(v, 3) for v in extent]
            rows.append(row)
        return rows

    def hints(self, top: int = 10) -> Dict[str, Any]:
        """Ranked hot spatial extents — the partitioning-hints contract.

        The consumer (ROADMAP item 2, sharding by spatial partition)
        reads ``hints[*].extent`` as candidate partition seeds ranked by
        decayed bytes-touched.  Fields: ``table``, ``cell``, ``extent``
        (``[xmin, ymin, xmax, ymax]``), ``bytes``, ``queries``, ``rank``.
        """
        ts = time.time()
        with self._lock:
            rows = self._extent_rows(ts)
        rows = [row for row in rows if "extent" in row]
        rows.sort(key=lambda row: -float(row["bytes"]))
        hints: List[Dict[str, Any]] = []
        for rank, row in enumerate(rows[:top], start=1):
            hints.append({"rank": rank, **row})
        return {
            "version": 1,
            "ts": ts,
            "halflife_s": self.halflife_s,
            "grid": self.grid,
            "hints": hints,
        }

    # -- persistence --------------------------------------------------------

    def flush(self) -> Optional[Path]:
        """Append one closed window record to the journal.

        The record is built under the lock but written outside it — the
        append fsyncs, and no scan should stall behind the disk.
        """
        if self.journal is None:
            return None
        ts = time.time()
        with self._lock:
            record = {
                "ts": ts,
                "halflife_s": self.halflife_s,
                "grid": self.grid,
                "domains": {
                    table: list(bounds)
                    for table, bounds in self._domains.items()
                },
                "segments": self._segments_payload(ts),
                "extents": self._extents_payload(ts),
            }
            self._last_flush = ts
        from ..engine import durable

        self.journal.parent.mkdir(parents=True, exist_ok=True)
        durable.atomic_append_text(
            self.journal, json.dumps(record) + "\n", label="heat"
        )
        self.registry.counter("heat.flushes").inc()
        return self.journal

    def maybe_flush(self) -> Optional[Path]:
        """Flush if the journal exists and the interval has elapsed."""
        if self.journal is None:
            return None
        with self._lock:
            due = time.time() - self._last_flush >= self.flush_interval_s
        if not due:
            return None
        return self.flush()

    def _segments_payload(self, ts: float) -> List[List[Any]]:
        payload: List[List[Any]] = []
        for (table, column, segment), heat in self._segments.items():
            heat.decay_to(ts, self.halflife_s)
            payload.append(
                [
                    table,
                    column,
                    segment,
                    round(heat.probes, 6),
                    round(heat.skips, 6),
                    round(heat.fulls, 6),
                    round(heat.encoded_bytes, 3),
                    round(heat.materialized_bytes, 3),
                ]
            )
        return payload

    def _extents_payload(self, ts: float) -> List[List[Any]]:
        payload: List[List[Any]] = []
        for (table, ix, iy), heat in self._extents.items():
            heat.decay_to(ts, self.halflife_s)
            payload.append(
                [table, ix, iy, round(heat.queries, 6), round(heat.nbytes, 3)]
            )
        return payload

    def restore(self, record: Dict[str, Any]) -> None:
        """Seed state from a journalled window (last one wins).

        ``last_ts`` is set to the record's flush timestamp, so the gap
        between the flush and now decays naturally on the next read.
        """
        ts = float(record.get("ts", time.time()))
        with self._lock:
            for table, bounds in dict(record.get("domains", {})).items():
                if len(bounds) == 4:
                    self._domains[str(table)] = (
                        float(bounds[0]),
                        float(bounds[1]),
                        float(bounds[2]),
                        float(bounds[3]),
                    )
            for row in record.get("segments", []):
                if len(row) != 8:
                    continue
                heat = _SegmentHeat(ts)
                heat.probes = float(row[3])
                heat.skips = float(row[4])
                heat.fulls = float(row[5])
                heat.encoded_bytes = float(row[6])
                heat.materialized_bytes = float(row[7])
                self._segments[(str(row[0]), str(row[1]), int(row[2]))] = heat
            for row in record.get("extents", []):
                if len(row) != 5:
                    continue
                extent = _ExtentHeat(ts)
                extent.queries = float(row[3])
                extent.nbytes = float(row[4])
                self._extents[(str(row[0]), int(row[1]), int(row[2]))] = extent

    @classmethod
    def from_journal(
        cls, path: Union[str, Path], **kwargs: Any
    ) -> "HeatMap":
        """Rebuild live heat from a journal's last intact window."""
        records = read_journal(path)
        if records:
            last = records[-1]
            kwargs.setdefault("halflife_s", float(last.get("halflife_s", DEFAULT_HALFLIFE_S)))
            kwargs.setdefault("grid", int(last.get("grid", DEFAULT_GRID)))
        heat = cls(journal=path, **kwargs)
        if records:
            heat.restore(records[-1])
        return heat


def read_journal(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """All intact window records; a torn final line is skipped.

    Same contract as the slow-query log: the append is flush+fsync'd,
    so only the last line can be torn by a crash, and losing it loses
    one window — never a previously closed one.
    """
    journal = Path(path)
    if not journal.exists():
        return []
    records: List[Dict[str, Any]] = []
    with journal.open("r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail (or foreign garbage): skip
            if isinstance(record, dict):
                records.append(record)
    return records


_global_heat: Optional[HeatMap] = None
_heat_lock = threading.Lock()


def enable_heat(
    journal: Optional[Union[str, Path]] = None, **kwargs: Any
) -> HeatMap:
    """Install the process heat map (idempotent; returns the live one).

    With ``journal=`` pointing at an existing ``heat.jsonl``, prior
    windows are restored first — heat survives restarts, decayed by the
    downtime.
    """
    global _global_heat
    with _heat_lock:
        if _global_heat is None:
            if journal is not None and Path(journal).exists():
                _global_heat = HeatMap.from_journal(journal, **kwargs)
            else:
                _global_heat = HeatMap(journal=journal, **kwargs)
        return _global_heat


def maybe_heat() -> Optional[HeatMap]:
    """The process heat map if enabled — the hot paths' single check."""
    return _global_heat


def disable_heat() -> None:
    """Drop the process heat map (test isolation; no implicit flush)."""
    global _global_heat
    with _heat_lock:
        _global_heat = None

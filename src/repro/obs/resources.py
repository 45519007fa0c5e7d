"""Per-query resource attribution: CPU time, allocations, data touched.

Wall-clock phase timings (:class:`~repro.core.query.QueryStats`, spans)
say how long a query took; this module says what it *consumed* while
doing so — the difference between "slow because the machine was busy"
and "slow because the query did a lot of work".  A
:class:`ResourceTracker` wraps one query and accumulates:

* **CPU seconds** — thread CPU time (``time.thread_time``) of the
  calling thread, which is the thread every scan, build and refine runs
  on.
* **Peak allocations** — opt-in via :mod:`tracemalloc`: when tracing is
  active (``tracemalloc.start()``, ``PYTHONTRACEMALLOC=1`` or
  ``python -X tracemalloc``), the tracker resets the peak at entry and
  reports the high-water mark of traced allocations over the query.
* **Rows / bytes touched** — the segment scanner in
  :mod:`repro.engine.scan` bills how much column data each scan
  actually read (post-candidate-list, so an imprint-filtered query
  reports the small number the index earned it).

Trackers nest: a SQL query's tracker sees the spatial sub-query's
touched bytes too, because additions propagate up the stack.
The disabled-path cost is one thread-local read per instrumented site.
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from dataclasses import dataclass
from types import TracebackType
from typing import Dict, Optional, Type

def thread_cpu() -> float:
    """CPU seconds consumed by the *current thread*."""
    return time.thread_time()


@dataclass
class ResourceUsage:
    """What one query consumed; attached to ``QueryStats.resources``."""

    #: CPU seconds of the calling thread over the query.
    cpu_seconds: float = 0.0
    #: High-water mark of traced allocations (bytes) over the query, or
    #: ``None`` when tracemalloc sampling was off.
    peak_alloc_bytes: Optional[int] = None
    #: Rows the scan operators actually read (post candidate list).
    rows_touched: int = 0
    #: Compressed bytes packed scans read in place (the PR 6 byte split:
    #: what actually crossed memory on the packed path).
    encoded_bytes: int = 0
    #: Plain-equivalent bytes of everything scanned — packed scans count
    #: what decompressing would have cost, plain scans their array size.
    materialized_bytes: int = 0

    @property
    def bytes_touched(self) -> int:
        """Column bytes the scans moved: encoded plus materialized."""
        return self.encoded_bytes + self.materialized_bytes

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly record (slow log, flight dumps, bench reports)."""
        return {
            "cpu_seconds": self.cpu_seconds,
            "peak_alloc_bytes": self.peak_alloc_bytes,
            "rows_touched": self.rows_touched,
            "bytes_touched": self.bytes_touched,
            "encoded_bytes": self.encoded_bytes,
            "materialized_bytes": self.materialized_bytes,
        }


class ResourceTracker:
    """Accumulate one query's resource usage, as a context manager.

    The entering thread's CPU delta is measured at exit; scan volumes
    arrive through :meth:`add_scan`, which is thread-safe and propagates
    to enclosing trackers so a SQL statement's tracker includes its
    spatial sub-queries.  Allocations are sampled only when tracemalloc
    is already tracing at construction.
    """

    __slots__ = ("usage", "_parent", "_lock", "_cpu0", "_malloc", "_entered")

    def __init__(self) -> None:
        self.usage = ResourceUsage()
        self._parent: Optional["ResourceTracker"] = None
        self._lock = threading.Lock()
        self._cpu0 = 0.0
        self._entered = False
        self._malloc = tracemalloc.is_tracing()

    def __enter__(self) -> "ResourceTracker":
        stack = _stack()
        self._parent = stack[-1] if stack else None
        stack.append(self)
        self._entered = True
        if self._malloc:
            tracemalloc.reset_peak()
        self._cpu0 = thread_cpu()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        own_cpu = max(thread_cpu() - self._cpu0, 0.0)
        with self._lock:
            self.usage.cpu_seconds += own_cpu
        if self._malloc and tracemalloc.is_tracing():
            _traced, peak = tracemalloc.get_traced_memory()
            self.usage.peak_alloc_bytes = int(peak)
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        self._entered = False
        return False

    # -- scan contributions -----------------------------------------------------

    def add_scan(self, rows: int, encoded: int, materialized: int) -> None:
        """Attribute the rows a scan actually read, and its bytes split
        into those read in compressed form and plain-array bytes."""
        with self._lock:
            self.usage.rows_touched += rows
            self.usage.encoded_bytes += encoded
            self.usage.materialized_bytes += materialized
        if self._parent is not None:
            self._parent.add_scan(rows, encoded, materialized)


def _stack() -> list["ResourceTracker"]:
    stack: Optional[list[ResourceTracker]] = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


_local = threading.local()


def current() -> Optional[ResourceTracker]:
    """The innermost tracker open on this thread, or ``None``.

    Instrumented hot paths call this once per operator and skip all
    attribution when it returns ``None``.  Every thread has its own
    stack: a thread started inside a query does not see its tracker.
    """
    stack: Optional[list[ResourceTracker]] = getattr(_local, "stack", None)
    return stack[-1] if stack else None

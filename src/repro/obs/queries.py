"""Live in-flight query registry with cooperative deadlines.

Every spatial or SQL query entering the engine runs inside
:func:`query_scope`, which opens all of its per-query observers at once:
:meth:`QueryRegistry.track` assigns it a process-unique ``query_id``,
publishes an :class:`ActiveQuery` record (phase, progress, elapsed,
resources) while the query runs, and retires the record into a bounded
recent-history ring when it finishes; a :class:`ResourceTracker` bills
what it consumed; a root span carries its ``query_id``; and a top-level
query of a database with an armed
:class:`~repro.obs.slowlog.SlowQueryLog` is observed by it.  The
registry backs the ``/debug/queries`` route on
:class:`~repro.obs.server.TelemetryServer`, the ``repro-gis queries``
CLI view, and the flight recorder's crash-time snapshot of what was
running.

Progress is fed from the segment classifiers: both
:class:`~repro.core.imprints.segments.SegmentedImprints` and
:class:`~repro.engine.compressed.CompressedColumn` report the total
segment count up front, credit skipped/full segments immediately, and
tick one unit per completed probe — so a long scan shows monotonically
increasing progress.

Deadlines are cooperative: ``timeout_s=`` turns into a monotonic
deadline checked at segment-probe and segment-build boundaries.  A
missed deadline raises the typed :class:`QueryCancelled`, and the
registry marks the record ``cancelled``.  Nested queries (a SQL query
driving a spatial subquery) inherit the tighter of their own and their
parent's deadline.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from typing import Any, ContextManager, Deque, Dict, Iterator, List, Optional, Union

from ._context_state import CURRENT
from .metrics import get_registry
from .resources import ResourceTracker
from .slowlog import SlowQueryLog
from .timing import now
from .trace import NOOP_SPAN, Span, _NoopSpan, maybe_span

__all__ = [
    "ActiveQuery",
    "QueryCancelled",
    "QueryRegistry",
    "check_deadline",
    "current_query",
    "get_queries",
    "query_scope",
]

_ids = itertools.count(1)


class QueryCancelled(RuntimeError):
    """A query exceeded its cooperative deadline and was cancelled.

    Raised from a deadline check at a segment boundary or at the start
    of refinement; the query's registry record is marked ``cancelled``.
    """

    def __init__(self, query_id: str, timeout_s: float, elapsed_s: float):
        super().__init__(
            f"query {query_id} cancelled: exceeded timeout_s={timeout_s:g} "
            f"(elapsed {elapsed_s:.3f}s)"
        )
        self.query_id = query_id
        self.timeout_s = timeout_s
        self.elapsed_s = elapsed_s


class ActiveQuery:
    """One in-flight (or recently finished) query's live record.

    Identity (``query_id``, ``kind``, ``detail``, ``parent_id``,
    ``timeout_s``, ``deadline``) is immutable after construction; the
    mutable progress fields are guarded by ``_lock`` because the
    telemetry server reads them while the query thread ticks them.
    ``span`` and ``slow_record`` are set by :func:`query_scope` and used
    only by the query's own thread: the root span, and the fields of the
    query's slow-query record (``None`` when it is not logged).
    """

    __slots__ = (
        "query_id",
        "kind",
        "detail",
        "parent_id",
        "timeout_s",
        "deadline",
        "tracker",
        "span",
        "slow_record",
        "started",
        "started_ts",
        "_lock",
        "_phase",
        "_segments_total",
        "_segments_done",
        "_status",
        "_error",
        "_trace_id",
        "_elapsed",
    )

    def __init__(
        self,
        query_id: str,
        kind: str,
        detail: Optional[Dict[str, Any]] = None,
        timeout_s: Optional[float] = None,
        deadline: Optional[float] = None,
        parent_id: Optional[str] = None,
    ):
        self.query_id = query_id
        self.kind = kind
        self.detail: Dict[str, Any] = dict(detail or {})
        self.parent_id = parent_id
        self.timeout_s = timeout_s
        self.deadline = deadline
        self.tracker = ResourceTracker()
        self.span: Union[Span, _NoopSpan] = NOOP_SPAN
        self.slow_record: Optional[Dict[str, object]] = None
        self.started = now()
        self.started_ts = time.time()  # wall clock, display only
        self._lock = threading.Lock()
        self._phase = "queued"
        self._segments_total = 0
        self._segments_done = 0
        self._status = "running"
        self._error: Optional[str] = None
        self._trace_id = 0
        self._elapsed: Optional[float] = None

    # -- progress (called from the query's thread) -------------------------

    def set_phase(self, phase: str) -> None:
        with self._lock:
            self._phase = phase

    def set_trace(self, trace_id: int) -> None:
        with self._lock:
            self._trace_id = trace_id

    def add_segments(self, total: int = 0, done: int = 0) -> None:
        """Grow the segment denominator and/or credit completed units."""
        with self._lock:
            self._segments_total += total
            self._segments_done += done

    def check_deadline(self) -> None:
        """Raise :class:`QueryCancelled` if the deadline has passed."""
        if self.deadline is not None and now() > self.deadline:
            timeout = self.timeout_s if self.timeout_s is not None else 0.0
            raise QueryCancelled(self.query_id, timeout, now() - self.started)

    def finish(self, status: str, error: Optional[str] = None) -> None:
        with self._lock:
            self._status = status
            self._error = error
            self._elapsed = now() - self.started

    # -- views -------------------------------------------------------------

    @property
    def progress(self) -> float:
        """Completed fraction in ``[0, 1]``; 0.0 before any scan starts."""
        with self._lock:
            total = self._segments_total
            done = self._segments_done
        if total <= 0:
            return 0.0
        return min(1.0, done / total)

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            total = self._segments_total
            done = self._segments_done
            phase = self._phase
            status = self._status
            error = self._error
            trace_id = self._trace_id
            elapsed = self._elapsed
        record: Dict[str, Any] = {
            "query_id": self.query_id,
            "kind": self.kind,
            "detail": dict(self.detail),
            "phase": phase,
            "status": status,
            "progress": min(1.0, done / total) if total > 0 else 0.0,
            "segments_done": done,
            "segments_total": total,
            "elapsed_s": elapsed if elapsed is not None else now() - self.started,
            "started_ts": self.started_ts,
            "trace_id": trace_id,
        }
        if self.parent_id is not None:
            record["parent_id"] = self.parent_id
        if self.timeout_s is not None:
            record["timeout_s"] = self.timeout_s
        if error is not None:
            record["error"] = error
        record["resources"] = self.tracker.usage.to_dict()
        return record


#: The query the current execution context is running (propagates to a
#: thread started with ``copy_context``, together with the obs context).
_ACTIVE: ContextVar[Optional[ActiveQuery]] = ContextVar(
    "repro_active_query", default=None
)


def current_query() -> Optional[ActiveQuery]:
    """The in-flight query for this execution context, if any."""
    return _ACTIVE.get()


def check_deadline() -> None:
    """Cooperative cancellation point: cheap no-op when untracked."""
    query = _ACTIVE.get()
    if query is not None:
        query.check_deadline()


class QueryRegistry:
    """Thread-safe registry of in-flight queries plus a recent ring."""

    def __init__(self, max_recent: int = 64):
        self._lock = threading.Lock()
        self._active: Dict[str, ActiveQuery] = {}
        self._recent: Deque[Dict[str, Any]] = deque(maxlen=max_recent)
        self._threads: Dict[int, ActiveQuery] = {}

    def active(self) -> List[ActiveQuery]:
        with self._lock:
            queries = list(self._active.values())
        return sorted(queries, key=lambda q: q.started)

    def recent(self) -> List[Dict[str, Any]]:
        """Most recent finished-query records, newest first."""
        with self._lock:
            return list(reversed(self._recent))

    def snapshot(self) -> Dict[str, List[Dict[str, Any]]]:
        """JSON-ready view: live records plus the recent-history ring."""
        return {
            "active": [q.to_dict() for q in self.active()],
            "recent": self.recent(),
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._active)

    # -- thread attribution (for the sampling profiler) ---------------------
    #
    # Contextvars cannot be read *across* threads, but the profiler's
    # sampling thread needs to know which query each sampled thread is
    # working for.  Query-owning threads therefore also register in a
    # plain ``thread ident -> ActiveQuery`` map: ``track`` binds the
    # caller's thread for the duration of the query.

    def bind_thread(self, query: ActiveQuery) -> Optional[ActiveQuery]:
        """Attribute the calling thread's profiler samples to ``query``.

        Returns the previous binding so nested queries on one thread can
        restore their parent via :meth:`unbind_thread`.
        """
        ident = threading.get_ident()
        with self._lock:
            previous = self._threads.get(ident)
            self._threads[ident] = query
        return previous

    def unbind_thread(self, previous: Optional[ActiveQuery] = None) -> None:
        """Drop (or restore to ``previous``) the calling thread's binding."""
        ident = threading.get_ident()
        with self._lock:
            if previous is None:
                self._threads.pop(ident, None)
            else:
                self._threads[ident] = previous

    def thread_map(self) -> Dict[int, ActiveQuery]:
        """Copy of the thread-attribution map, for the sampler's sweep."""
        with self._lock:
            return dict(self._threads)

    @contextmanager
    def track(
        self,
        kind: str,
        detail: Optional[Dict[str, Any]] = None,
        timeout_s: Optional[float] = None,
    ) -> Iterator[ActiveQuery]:
        """Publish an :class:`ActiveQuery` for the duration of a query.

        Sets the active-query context variable (so progress hooks and
        deadline checks anywhere below find the record), and retires
        it into the recent ring on the way out with status ``finished``,
        ``cancelled`` (:class:`QueryCancelled`) or ``error``.
        """
        parent = _ACTIVE.get()
        deadline = now() + timeout_s if timeout_s is not None else None
        if parent is not None and parent.deadline is not None:
            deadline = (
                parent.deadline
                if deadline is None
                else min(deadline, parent.deadline)
            )
        query = ActiveQuery(
            query_id=f"q{os.getpid()}-{next(_ids):05d}",
            kind=kind,
            detail=detail,
            timeout_s=timeout_s,
            deadline=deadline,
            parent_id=parent.query_id if parent is not None else None,
        )
        with self._lock:
            self._active[query.query_id] = query
            n_active = len(self._active)
        registry = get_registry()
        registry.gauge("query.active").set(float(n_active))
        token = _ACTIVE.set(query)
        previous_binding = self.bind_thread(query)
        status = "finished"
        error: Optional[str] = None
        try:
            yield query
        except QueryCancelled:
            status = "cancelled"
            raise
        except BaseException as exc:
            status = "error"
            error = type(exc).__name__
            raise
        finally:
            self.unbind_thread(previous_binding)
            _ACTIVE.reset(token)
            query.finish(status, error)
            with self._lock:
                self._active.pop(query.query_id, None)
                self._recent.append(query.to_dict())
                n_active = len(self._active)
            registry.gauge("query.active").set(float(n_active))
            if status == "cancelled":
                registry.counter("query.cancelled").inc()
            elif status == "error":
                registry.counter("query.errors").inc()


#: Stands in for :meth:`SlowQueryLog.observe` when a query is not logged.
_UNOBSERVED: ContextManager[Optional[Dict[str, object]]] = nullcontext()


@contextmanager
def query_scope(
    kind: str,
    span_name: str,
    detail: Dict[str, Any],
    timeout_s: Optional[float] = None,
    slow_log: Optional[SlowQueryLog] = None,
) -> Iterator[ActiveQuery]:
    """Open one query's observers; every front door enters this once.

    Publishes the query in the active context's registry
    (:meth:`QueryRegistry.track`, ``timeout_s`` tightened by an
    enclosing query's deadline), bills it to the query's
    :class:`ResourceTracker` (``query.tracker``), and opens the root span
    ``span_name`` with ``detail`` as attributes, linked to the ``query_id``
    both ways.  A top-level query runs under ``slow_log.observe`` when a
    log is given; its record then carries the ``query_id``, resources,
    the encoded/materialized byte split and, when the always-on profiler
    sampled the query, its hot stacks.  A nested query (a SQL statement's
    spatial sub-query) is never logged on its own.  The front door adds
    its answer to ``query.slow_record`` (rows, stats) and to
    ``query.span`` (``rows_out``).
    """
    log = slow_log if _ACTIVE.get() is None else None
    with (
        log.observe(kind, **detail) if log is not None else _UNOBSERVED
    ) as record, get_queries().track(kind, detail, timeout_s) as query:
        query.slow_record = record
        try:
            with query.tracker, maybe_span(span_name, **detail) as root:
                query.span = root
                if isinstance(root, Span):  # tracing off hands out NOOP_SPAN
                    root.set(query_id=query.query_id)
                    query.set_trace(root.trace_id)
                yield query
        finally:
            if record is not None:
                usage = query.tracker.usage
                record.update(
                    query_id=query.query_id,
                    resources=usage.to_dict(),
                    encoded_bytes=usage.encoded_bytes,
                    materialized_bytes=usage.materialized_bytes,
                )
                # Lazy: the profiler imports this module.  maybe_profiler
                # never creates one; only serve mode starts it.
                from .profiler import maybe_profiler

                profiler = maybe_profiler()
                if profiler is not None:
                    hot = profiler.query_summary(query.query_id)
                    if hot is not None:
                        record["hot_stacks"] = hot


_global_queries = QueryRegistry()


def get_queries() -> QueryRegistry:
    """The active context's query registry (process default otherwise)."""
    context = CURRENT.get()
    if context is not None:
        return context.queries
    return _global_queries

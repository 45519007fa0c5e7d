"""Zero-dependency span tracer for the query engine.

The paper's whole argument is a *measured* one — imprints-filtered flat
scans versus file- and block-based stores (§2.1.1, §3.3) — so every
phase the engine runs (filter, refine, imprint build, SQL operator)
can wrap itself in a **span**: a named wall-clock interval
with attributes (rows in/out, segments skipped/probed, thread) and a
parent link.  Finished spans land in a process-wide ring buffer, from
which they can be

* exported as plain JSON (:func:`to_json` / :func:`from_json`),
* exported in Chrome trace-event format (:func:`to_chrome`) and opened
  in ``chrome://tracing`` / Perfetto, or
* rendered as an indented operator tree (:func:`format_tree`) — the
  backbone of ``EXPLAIN ANALYZE``.

Tracing is **off by default** and costs almost nothing while off:
:func:`maybe_span` returns a shared no-op object unless the tracer is
enabled, so instrumented hot paths pay one attribute check.  Enable it
with ``REPRO_TRACE=1`` in the environment, ``get_tracer().enable()``,
or ``PointCloudDB(tracing=True)``.

Per-query state is per thread: each thread has its own span stack,
its own open captures and its own adopted remote parent.  Other threads
do not inherit the caller's span stack; a cross-thread parent is passed
explicitly (``tracer.span(name, parent=span)``).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from types import TracebackType
from typing import (
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
    Union,
)

from ._context_state import CURRENT as _CONTEXT

#: Environment switch: any value but ""/"0"/"false"/"no" enables tracing.
TRACE_ENV = "REPRO_TRACE"

#: Ring-buffer capacity in finished spans; old spans fall off the back.
DEFAULT_BUFFER_SPANS = 16384

_FALSY = ("", "0", "false", "no", "off")

_ids = itertools.count(1)  # span/trace ids; itertools.count is GIL-atomic


class Span:
    """One named wall-clock interval, used as a context manager.

    The span always measures its duration (``seconds`` is valid after
    exit even with tracing off); ids, parent links and the ring-buffer
    record only exist when the tracer was enabled at ``__enter__``.
    """

    __slots__ = (
        "tracer",
        "name",
        "attributes",
        "parent",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "thread_id",
        "thread_name",
        "sinks",
        "_recording",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        parent: Optional["Span"] = None,
        attributes: Optional[Dict[str, object]] = None,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.attributes: Dict[str, object] = (
            dict(attributes) if attributes else {}
        )
        self.parent = parent
        self.trace_id = 0
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self.start = 0.0
        self.end = 0.0
        self.thread_id = 0
        self.thread_name = ""
        #: The captures this span lands in (see :meth:`Tracer.capture`).
        self.sinks: Tuple[List["Span"], ...] = ()
        self._recording = False

    def __enter__(self) -> "Span":
        self._recording = self.tracer.enabled
        if self._recording:
            local = self.tracer._local
            stack = local.stack
            parent = self.parent if self.parent is not None else (
                stack[-1] if stack else None
            )
            self.span_id = next(_ids)
            # This thread's open captures; a span on a thread with none
            # (a worker under an explicit parent) joins its parent's.
            self.sinks = local.sinks
            if parent is not None:
                self.parent_id = parent.span_id
                self.trace_id = parent.trace_id
                if not self.sinks:
                    self.sinks = parent.sinks
            else:
                remote = local.remote
                if remote is not None:
                    # Root span of a trace started elsewhere (adopted
                    # from a traceparent token): join the remote trace.
                    self.trace_id = remote.trace_id
                    self.parent_id = remote.span_id
                else:
                    self.trace_id = self.span_id
            thread = threading.current_thread()
            self.thread_id = thread.ident or 0
            self.thread_name = thread.name
            stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        self.end = time.perf_counter()
        if self._recording:
            if exc_type is not None:
                self.attributes.setdefault("error", exc_type.__name__)
            stack = self.tracer._local.stack
            if stack and stack[-1] is self:
                stack.pop()
            self.tracer._finish(self)
        return False

    def set(self, **attributes: object) -> "Span":
        """Attach attributes (rows in/out, segment counts...)."""
        self.attributes.update(attributes)
        return self

    @property
    def seconds(self) -> float:
        return max(self.end - self.start, 0.0)


class _NoopSpan:
    """Shared do-nothing span, returned by :func:`maybe_span` when
    tracing is off — the disabled hot path pays one attribute check."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        return False

    def set(self, **attributes: object) -> "_NoopSpan":
        return self

    @property
    def seconds(self) -> float:
        return 0.0


NOOP_SPAN = _NoopSpan()


class RemoteParent:
    """A parent span in another process, adopted from a traceparent
    token (:func:`repro.obs.context.parse_traceparent`): root spans
    started on the adopting thread join the remote trace instead of
    starting a fresh one."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: int, span_id: int) -> None:
        self.trace_id = trace_id
        self.span_id = span_id


class _ThreadState(threading.local):
    """One thread's per-query tracer state: its open spans, the captures
    it opened (innermost last) and the remote parent it adopted."""

    def __init__(self) -> None:
        self.stack: List[Span] = []
        self.sinks: Tuple[List[Span], ...] = ()
        self.remote: Optional[RemoteParent] = None


class Tracer:
    """Per-context span collector with an in-memory ring buffer.

    ``enabled`` is a plain attribute so hot paths can check it without a
    property call: it reads ``True`` while :meth:`enable` is in force or
    any :meth:`capture` is open.  Finished spans append to the ring
    buffer (and to their captures) under one lock; span *creation* is
    lock-free, so concurrent threads never serialise on starting spans.
    """

    def __init__(
        self,
        max_spans: int = DEFAULT_BUFFER_SPANS,
        enabled: Optional[bool] = None,
    ) -> None:
        if enabled is None:
            enabled = os.environ.get(TRACE_ENV, "").strip().lower() not in _FALSY
        self._switched_on = bool(enabled)
        self._open_captures = 0
        self.enabled = self._switched_on
        self._buffer: Deque[Span] = deque(maxlen=max_spans)
        self._lock = threading.Lock()
        self._local = _ThreadState()

    # -- state -----------------------------------------------------------------

    def enable(self) -> None:
        with self._lock:
            self._switched_on = True
            self.enabled = True

    def disable(self) -> None:
        with self._lock:
            self._switched_on = False
            self.enabled = self._open_captures > 0

    def clear(self) -> None:
        """Drop all buffered spans (the ring buffer, not active captures)."""
        with self._lock:
            self._buffer.clear()

    @property
    def remote_parent(self) -> Optional[RemoteParent]:
        """The remote parent the calling thread adopted, or None."""
        return self._local.remote

    @remote_parent.setter
    def remote_parent(self, remote: Optional[RemoteParent]) -> None:
        self._local.remote = remote

    # -- span plumbing ---------------------------------------------------------

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread (for explicit
        cross-thread parenting), or None."""
        stack = self._local.stack
        return stack[-1] if stack else None

    def span(
        self, name: str, parent: Optional[Span] = None, **attributes: object
    ) -> Span:
        """A new span context manager (always timed; recorded when enabled)."""
        return Span(self, name, parent=parent, attributes=attributes)

    def _finish(self, span: Span) -> None:
        dropped = False
        with self._lock:
            if (
                self._buffer.maxlen is not None
                and len(self._buffer) == self._buffer.maxlen
            ):
                dropped = True  # the append below evicts the oldest span
            self._buffer.append(span)
            for sink in span.sinks:
                sink.append(span)
        if dropped:
            # Counted outside the tracer lock: the counter has a lock of
            # its own, and nesting the two would pin a lock order for no
            # benefit.  Lazy import keeps span finish free of metrics
            # machinery until a drop actually happens.
            from .metrics import get_registry

            get_registry().counter("trace.spans_dropped").inc()

    @contextmanager
    def capture(self) -> Iterator[List[Span]]:
        """Record, and collect the spans the calling thread opens inside.

        Yields the list the spans accumulate into (ordered by finish
        time): every span opened on this thread while the capture is
        open, plus spans on other threads that name one of those as
        their explicit parent.  Other threads' traces never land in it.
        This is how ``EXPLAIN ANALYZE`` and the slow-query log get
        exactly one query's spans without disturbing the ring buffer or
        the global switch: ``enabled`` reads ``True`` while any capture
        is open and returns to what :meth:`enable` / :meth:`disable` last
        set when the last one closes.
        """
        collected: List[Span] = []
        local = self._local
        outer = local.sinks
        local.sinks = outer + (collected,)
        with self._lock:
            self._open_captures += 1
            self.enabled = True
        try:
            yield collected
        finally:
            local.sinks = outer
            with self._lock:
                self._open_captures -= 1
                self.enabled = self._switched_on or self._open_captures > 0

    # -- reading the buffer ----------------------------------------------------

    def spans(self) -> List[Span]:
        """Snapshot of the buffered spans, ordered by start time."""
        with self._lock:
            snapshot = list(self._buffer)
        return sorted(snapshot, key=lambda s: (s.start, s.span_id))

    def traces(self) -> List[List[Span]]:
        """Buffered spans grouped by trace, oldest trace first."""
        groups: Dict[int, List[Span]] = {}
        for span in self.spans():
            groups.setdefault(span.trace_id, []).append(span)
        ordered = sorted(groups.values(), key=lambda g: g[0].start)
        return ordered

    def last_traces(self, n: int) -> List[Span]:
        """The spans of the ``n`` most recent traces, flattened in
        start order (what ``repro-gis trace --last N`` exports)."""
        tail = self.traces()[-max(0, n):] if n else []
        return [span for group in tail for span in group]


_global_tracer = Tracer()


def get_tracer() -> Tracer:
    """The active context's tracer, else the process-wide default.

    Code that never activates an :class:`~repro.obs.context.ObsContext`
    sees exactly the pre-context behaviour (the module singleton)."""
    context = _CONTEXT.get()
    if context is not None:
        return context.tracer
    return _global_tracer


def maybe_span(
    name: str, parent: Optional[Span] = None, **attributes: object
) -> Union[Span, _NoopSpan]:
    """A real span when tracing is on, the shared no-op span when off.

    This is the form instrumented hot paths use: with tracing disabled
    the cost is one context-variable read and one attribute check.
    """
    context = _CONTEXT.get()
    tracer = context.tracer if context is not None else _global_tracer
    if tracer.enabled:
        return Span(tracer, name, parent=parent, attributes=attributes)
    return NOOP_SPAN


# -- exporters -----------------------------------------------------------------


def _json_value(value: object) -> object:
    """Attributes -> JSON-safe values (numpy scalars included)."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    return str(value)


def span_to_dict(span: Span) -> Dict[str, object]:
    """One span as a plain dict (the JSON exporter's record shape)."""
    return {
        "name": span.name,
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "start": span.start,
        "end": span.end,
        "seconds": span.seconds,
        "thread_id": span.thread_id,
        "thread_name": span.thread_name,
        "attributes": {
            str(k): _json_value(v) for k, v in span.attributes.items()
        },
    }


def to_json(spans: Iterable[Span], indent: Optional[int] = 2) -> str:
    """Spans as a JSON array of records."""
    return json.dumps([span_to_dict(s) for s in spans], indent=indent)


def from_json(text: str) -> List[Span]:
    """Rebuild spans from :func:`to_json` output (round-trip for tests
    and for offline rendering of exported traces)."""
    spans: List[Span] = []
    for record in json.loads(text):
        span = Span(_global_tracer, record["name"])
        span.trace_id = record["trace_id"]
        span.span_id = record["span_id"]
        span.parent_id = record["parent_id"]
        span.start = record["start"]
        span.end = record["end"]
        span.thread_id = record["thread_id"]
        span.thread_name = record["thread_name"]
        span.attributes = dict(record["attributes"])
        spans.append(span)
    return spans


def to_chrome(spans: Iterable[Span]) -> str:
    """Spans in Chrome trace-event format (the ``chrome://tracing`` /
    Perfetto JSON schema): complete events (``ph: "X"``) with
    microsecond timestamps and the attributes under ``args``.

    Thread-name metadata events (``ph: "M"``) lead the stream so
    Perfetto labels each track ``MainThread`` / ``repro-worker-N``
    instead of a bare thread id."""
    pid = os.getpid()
    span_list = list(spans)
    events: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": "repro-gis"},
        }
    ]
    thread_names: Dict[int, str] = {}
    for span in span_list:
        if span.thread_id and span.thread_name:
            thread_names.setdefault(span.thread_id, span.thread_name)
    for tid in sorted(thread_names):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": thread_names[tid]},
            }
        )
    for span in span_list:
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": max(span.end - span.start, 0.0) * 1e6,
                "pid": pid,
                "tid": span.thread_id or 0,
                "args": {
                    str(k): _json_value(v) for k, v in span.attributes.items()
                },
            }
        )
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})


# -- tree rendering ------------------------------------------------------------


def _format_attr(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def format_tree(spans: Iterable[Span], name_width: int = 44) -> str:
    """Render spans as an indented tree: name, wall time, attributes.

    Spans whose parent is not in the set (e.g. the capture started
    mid-trace) render as roots.  Children sort by start time, so the
    tree reads in execution order.
    """
    ordered = sorted(spans, key=lambda s: (s.start, s.span_id))
    by_id = {s.span_id: s for s in ordered if s.span_id}
    children: Dict[int, List[Span]] = {}
    roots: List[Span] = []
    for span in ordered:
        if span.parent_id and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)

    lines: List[str] = []

    def emit(span: Span, depth: int) -> None:
        label = "  " * depth + span.name
        attrs = " ".join(
            f"{k}={_format_attr(v)}" for k, v in span.attributes.items()
        )
        line = f"{label:<{name_width}} {span.seconds * 1e3:10.3f} ms"
        if attrs:
            line += f"  {attrs}"
        lines.append(line)
        for child in children.get(span.span_id, ()):
            emit(child, depth + 1)

    for root in roots:
        emit(root, 0)
    return "\n".join(lines)

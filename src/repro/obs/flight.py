"""Crash flight recorder: post-mortem telemetry for dying processes.

Metrics endpoints and slow-query logs only help while the process is
alive; the question after a crash is "what were the last things it
did".  The :class:`FlightRecorder` keeps an always-on, bounded,
in-memory buffer of recent **events** — CLI entry notes, phase marks,
anything callers :meth:`~FlightRecorder.note` — and, when the process
dies abnormally, writes one JSON dump containing:

* the reason (exception with traceback, or the fatal signal),
* the buffered events, newest last,
* the most recent spans from the tracer's ring buffer (when tracing
  was on — the recorder never enables tracing itself),
* the full metrics snapshot *and* the counter deltas since
  :meth:`~FlightRecorder.install`, so "what did this process do in its
  lifetime" and "what state was it in" are both answerable.

``install()`` chains onto ``sys.excepthook`` (the previous hook still
runs, so tracebacks still print) and, on the main thread, arms a
``SIGTERM`` handler that dumps and then re-raises the default action —
the process still dies, it just leaves a black box behind.  Dumps are
written with the durable atomic-write protocol to ``REPRO_FLIGHT_DIR``
(default: the system temp directory) as ``flight-<pid>-<ts>.json``.

The steady-state cost is one deque append per ``note()``; nothing is
serialised until the process is already dying.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import tempfile
import threading
import time
import traceback
from collections import deque
from pathlib import Path
from types import FrameType, TracebackType
from typing import Callable, Deque, Dict, List, Optional, Type, Union

from .context import default_context
from .metrics import MetricsRegistry, get_registry
from .queries import QueryRegistry, get_queries
from .trace import Tracer, get_tracer, span_to_dict

#: Environment override for where dumps land (default: cwd).
FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"

#: Bounded event-buffer capacity; old events fall off the back.
DEFAULT_MAX_EVENTS = 256

#: How many of the tracer's most recent spans a dump embeds.
DUMP_SPANS = 200

ExceptHook = Callable[
    [Type[BaseException], BaseException, Optional[TracebackType]], None
]


def flight_directory() -> Path:
    """Where dumps go: ``REPRO_FLIGHT_DIR`` or the system temp directory
    (never the working directory, which may be a source checkout)."""
    raw = os.environ.get(FLIGHT_DIR_ENV, "").strip()
    return Path(raw) if raw else Path(tempfile.gettempdir())


class FlightRecorder:
    """Bounded black-box buffer plus the hooks that flush it on death."""

    def __init__(
        self,
        max_events: int = DEFAULT_MAX_EVENTS,
        directory: Optional[Union[str, Path]] = None,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
        queries: Optional[QueryRegistry] = None,
    ) -> None:
        self._events: Deque[Dict[str, object]] = deque(maxlen=max_events)
        self._lock = threading.Lock()
        self.directory = Path(directory) if directory is not None else None
        self.tracer = tracer if tracer is not None else get_tracer()
        self.registry = registry if registry is not None else get_registry()
        self.queries = queries if queries is not None else get_queries()
        self._baseline_counters: Dict[str, int] = {}
        self._prev_excepthook: Optional[ExceptHook] = None
        self._installed_hook: Optional[ExceptHook] = None
        self._prev_sigterm: Optional[object] = None
        self._installed = False

    # -- the black box ---------------------------------------------------------

    def note(self, name: str, **attributes: object) -> None:
        """Record one event (a breadcrumb, not a span — no duration)."""
        event: Dict[str, object] = {"ts": time.time(), "event": name}
        event.update(attributes)
        with self._lock:
            self._events.append(event)

    def events(self) -> List[Dict[str, object]]:
        """Snapshot of the buffered events, oldest first."""
        with self._lock:
            return list(self._events)

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> "FlightRecorder":
        """Arm the excepthook (and SIGTERM, on the main thread) and mark
        the counter baseline for lifetime deltas.  Idempotent."""
        if self._installed:
            return self
        self._baseline_counters = self._counter_values()
        self._prev_excepthook = sys.excepthook
        # Keep the exact bound-method object we install: attribute access
        # creates a fresh one each time, so an identity check at uninstall
        # must compare against this, not ``self._on_exception``.
        self._installed_hook = self._on_exception
        sys.excepthook = self._installed_hook
        if threading.current_thread() is threading.main_thread():
            try:
                self._prev_sigterm = signal.signal(
                    signal.SIGTERM, self._on_signal
                )
            except (ValueError, OSError):
                self._prev_sigterm = None
        self._installed = True
        self.note("flight.installed", pid=os.getpid())
        return self

    def uninstall(self) -> None:
        """Restore the previous hooks (for tests, mostly)."""
        if not self._installed:
            return
        if sys.excepthook is self._installed_hook and self._prev_excepthook:
            sys.excepthook = self._prev_excepthook
        if (
            self._prev_sigterm is not None
            and threading.current_thread() is threading.main_thread()
        ):
            try:
                signal.signal(signal.SIGTERM, self._prev_sigterm)  # type: ignore[arg-type]
            except (ValueError, OSError):
                pass
        self._prev_excepthook = None
        self._installed_hook = None
        self._prev_sigterm = None
        self._installed = False

    # -- dumping ---------------------------------------------------------------

    def dump(
        self, reason: str, exc: Optional[BaseException] = None
    ) -> Optional[Path]:
        """Write one post-mortem JSON dump; returns its path.

        Never raises — a failing dump must not mask the original death —
        and returns ``None`` when writing proved impossible.
        """
        try:
            record = self._build_record(reason, exc)
            directory = (
                self.directory if self.directory is not None else flight_directory()
            )
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"flight-{os.getpid()}-{int(time.time())}.json"
            from ..engine.durable import atomic_write_text

            atomic_write_text(path, json.dumps(record, indent=2), label="flight")
            self.registry.counter("flight.dumps").inc()
            return path
        except Exception:
            return None

    def _build_record(
        self, reason: str, exc: Optional[BaseException]
    ) -> Dict[str, object]:
        record: Dict[str, object] = {
            "reason": reason,
            "ts": time.time(),
            "pid": os.getpid(),
            "argv": list(sys.argv),
            "events": self.events(),
            "counter_deltas": self._counter_deltas(),
            "metrics": self.registry.snapshot(),
            # What was running (and what just ran) at dump time: id,
            # phase, progress, elapsed — the post-mortem's first question.
            "queries": self.queries.snapshot(),
        }
        if exc is not None:
            record["exception"] = {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exception(
                    type(exc), exc, exc.__traceback__
                ),
            }
        spans = self.tracer.spans()
        record["spans"] = [span_to_dict(s) for s in spans[-DUMP_SPANS:]]
        # What the process was *executing*, not just its breadcrumbs:
        # the always-on sampler's hot stacks, when one is running.
        # maybe_profiler never creates — crashing must not start sampling.
        from .profiler import maybe_profiler

        profiler = maybe_profiler()
        if profiler is not None:
            hot = profiler.hot_summary()
            if hot is not None:
                record["profile"] = hot
        return record

    def _counter_values(self) -> Dict[str, int]:
        snapshot = self.registry.snapshot()
        counters = snapshot.get("counters", {})
        return {
            name: int(value)
            for name, value in counters.items()
            if isinstance(value, int)
        }

    def _counter_deltas(self) -> Dict[str, int]:
        deltas: Dict[str, int] = {}
        for name, value in self._counter_values().items():
            delta = value - self._baseline_counters.get(name, 0)
            if delta:
                deltas[name] = delta
        return deltas

    # -- hooks -----------------------------------------------------------------

    def _on_exception(
        self,
        exc_type: Type[BaseException],
        exc: BaseException,
        tb: Optional[TracebackType],
    ) -> None:
        if not issubclass(exc_type, KeyboardInterrupt):
            self.dump("unhandled_exception", exc)
        prev = self._prev_excepthook
        if prev is not None:
            prev(exc_type, exc, tb)
        else:
            sys.__excepthook__(exc_type, exc, tb)

    def _on_signal(self, signum: int, frame: Optional[FrameType]) -> None:
        self.dump(f"signal_{signal.Signals(signum).name}")
        # Re-deliver with the default action so the exit status is the
        # conventional "killed by signal" one, not a clean exit.
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)


_global_recorder: Optional[FlightRecorder] = None
_recorder_lock = threading.Lock()


def get_flight_recorder() -> FlightRecorder:
    """The process-wide recorder (created on first use, like the tracer's
    singleton — but lazily, so importing obs stays cheap).  Crash hooks
    are process-wide, so it observes the process default context even
    when first asked for under another one."""
    global _global_recorder
    with _recorder_lock:
        if _global_recorder is None:
            process = default_context()
            _global_recorder = FlightRecorder(
                tracer=process.tracer,
                registry=process.registry,
                queries=process.queries,
            )
        return _global_recorder

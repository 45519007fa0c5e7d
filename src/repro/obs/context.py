"""Scoped observability contexts.

Before this module, the engine's observability state was process-global:
one tracer, one metrics registry, one query registry.  Two databases
could not be observed independently.

:class:`ObsContext` bundles the per-scope state (tracer + metrics
registry + query registry) into one object owned by a
:class:`~repro.api.PointCloudDB` / :class:`~repro.sql.executor.Session`
and resolved through a :mod:`contextvars` variable:

* ``with context.activate():`` makes it the current context; every
  ``get_tracer()`` / ``get_registry()`` / ``get_queries()`` and every
  ``maybe_span`` below that point resolves to it — including inside a
  thread started under ``contextvars.copy_context().run``, which carries
  the context over.
* Code that never activates a context sees :func:`default_context`,
  a lazy singleton wrapping the original module singletons — the
  pre-context API (``get_tracer()`` etc.) behaves exactly as before.

The flight recorder is not part of a context: crash hooks are
process-wide, so there is one recorder per process
(:func:`~repro.obs.flight.get_flight_recorder`).

For cross-process tracing the context serializes its trace position to
a W3C-traceparent-style token (``00-<trace_id>-<span_id>-01``); a
context that adopts one (:meth:`ObsContext.fresh` ``(traceparent=...)``
or :meth:`ObsContext.adopt_traceparent`) makes the root spans the
*adopting thread* opens join the remote trace, so the pieces stitch
back into one tree while other threads keep starting their own traces.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from ._context_state import CURRENT
from .metrics import MetricsRegistry
from .queries import QueryRegistry
from .trace import RemoteParent, Tracer

__all__ = [
    "ObsContext",
    "current_context",
    "default_context",
    "format_traceparent",
    "parse_traceparent",
]

#: The only traceparent version we emit or accept.
TRACEPARENT_VERSION = "00"


def format_traceparent(trace_id: int, span_id: int) -> str:
    """``00-<032x trace>-<016x span>-01`` (W3C Trace Context shaped)."""
    trace_part = trace_id & ((1 << 128) - 1)
    span_part = span_id & ((1 << 64) - 1)
    return f"{TRACEPARENT_VERSION}-{trace_part:032x}-{span_part:016x}-01"


def parse_traceparent(token: str) -> RemoteParent:
    """Parse a traceparent token into a :class:`RemoteParent`.

    Raises :class:`ValueError` on a malformed token, an unknown version,
    or the all-zero ids the spec reserves for "no trace".
    """
    parts = token.strip().split("-")
    if len(parts) != 4:
        raise ValueError(f"malformed traceparent: {token!r}")
    version, trace_hex, span_hex, _flags = parts
    if version != TRACEPARENT_VERSION:
        raise ValueError(f"unsupported traceparent version: {version!r}")
    if len(trace_hex) != 32 or len(span_hex) != 16:
        raise ValueError(f"malformed traceparent ids: {token!r}")
    try:
        trace_id = int(trace_hex, 16)
        span_id = int(span_hex, 16)
    except ValueError:
        raise ValueError(f"non-hex traceparent ids: {token!r}") from None
    if trace_id == 0 or span_id == 0:
        raise ValueError(f"all-zero traceparent ids: {token!r}")
    return RemoteParent(trace_id=trace_id, span_id=span_id)


class ObsContext:
    """One scope's observability state: tracer, metrics and queries."""

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
        queries: Optional[QueryRegistry] = None,
    ):
        self.tracer = tracer if tracer is not None else Tracer()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.queries = queries if queries is not None else QueryRegistry()

    @classmethod
    def fresh(
        cls,
        traceparent: Optional[str] = None,
        enabled: Optional[bool] = None,
    ) -> "ObsContext":
        """A fully isolated context (own tracer/registry/query registry).

        ``traceparent`` adopts a remote trace position so the root spans
        the calling thread opens under this context join a trace started
        in another process; ``enabled`` forces tracing on/off (default:
        the ``REPRO_TRACE`` switch).
        """
        context = cls(tracer=Tracer(enabled=enabled))
        if traceparent is not None:
            context.adopt_traceparent(traceparent)
        return context

    # -- activation --------------------------------------------------------

    @contextmanager
    def activate(self) -> Iterator["ObsContext"]:
        """Make this the current context for the duration of the block."""
        token = CURRENT.set(self)
        try:
            yield self
        finally:
            CURRENT.reset(token)

    # -- cross-process propagation ----------------------------------------

    def traceparent(self) -> Optional[str]:
        """This context's trace position as a token, or ``None``.

        Prefers the innermost open span on the calling thread; falls
        back to the remote parent that thread adopted, so a context can
        re-propagate a token it received before starting spans of its own.
        """
        span = self.tracer.current()
        if span is not None and span.trace_id:
            return format_traceparent(span.trace_id, span.span_id)
        remote = self.tracer.remote_parent
        if remote is not None:
            return format_traceparent(remote.trace_id, remote.span_id)
        return None

    def adopt_traceparent(self, token: str) -> "ObsContext":
        """Join the trace described by ``token`` on the calling thread
        (see module docstring); ``tracer.remote_parent = None`` drops it."""
        self.tracer.remote_parent = parse_traceparent(token)
        return self


_default: Optional[ObsContext] = None
_default_lock = threading.Lock()


def default_context() -> ObsContext:
    """The process default: a context wrapping the module singletons.

    This is what preserves API compatibility — every pre-context caller
    of ``get_tracer()`` / ``get_registry()`` and every new context-aware
    caller that never activates a custom context observe the same state.
    """
    global _default
    with _default_lock:
        if _default is None:
            from . import metrics as _metrics
            from . import queries as _queries
            from . import trace as _trace

            _default = ObsContext(
                tracer=_trace._global_tracer,
                registry=_metrics._global_registry,
                queries=_queries._global_queries,
            )
        return _default


def current_context() -> ObsContext:
    """The active context, else :func:`default_context`."""
    context = CURRENT.get()
    return context if context is not None else default_context()

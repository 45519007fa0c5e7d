"""Zero-dependency telemetry endpoint over ``http.server``.

The ROADMAP's north star is a long-running service, and a service you
cannot scrape is a service you cannot operate.  :class:`TelemetryServer`
binds a threaded stdlib HTTP server on a daemon thread and exposes the
process's observability state:

``/metrics``
    The full registry in OpenMetrics text format
    (:mod:`repro.obs.openmetrics`), histogram buckets included.
``/healthz``
    ``200`` with a small JSON document: ``{"status": "ok"}`` plus
    whatever the optional ``health`` callback contributes (table row
    counts, for the CLI).  A callback that raises turns the response
    into a ``500`` — an unhealthy process should *fail* its probe, not
    lie on it.
``/debug/trace``
    The last-N traces from the tracer's ring buffer as plain JSON span
    records (``?last=N``, default 10) — the span dump you would
    otherwise need shell access and ``repro-gis trace`` for.
``/debug/queries``
    The live in-flight query registry
    (:class:`~repro.obs.queries.QueryRegistry`): every running query's
    id, kind, phase, progress (segments done / total) and elapsed time,
    plus the recent finished-query ring.  ``repro-gis queries`` renders
    this route as a table.
``/debug/profile``
    On-demand CPU profile: blocks for ``?seconds=N`` (default 2, capped
    at 30) while a burst :func:`repro.obs.profiler.capture` samples
    every thread at ``?rate=HZ`` (default 99), then returns speedscope
    JSON (load it at https://www.speedscope.app) or, with
    ``?format=collapsed``, FlameGraph collapsed-stack text.  The server
    is threaded, so other routes keep answering during the capture.
``/debug/heat``
    The live workload heat map (:mod:`repro.obs.heat`) decayed to now:
    hottest segments and spatial extents by bytes touched, or
    ``{"enabled": false}`` when heat accounting is off.

Every request increments the ``obs.http_requests`` counter; the
``obs.server_up`` gauge is 1 while the server is bound.  Start it from
the query daemon (``repro-gis serve --port``), which serves these
routes next to its own, or embed it::

    server = TelemetryServer(port=0)   # 0 = any free port
    server.start()
    ... print(server.url) ...
    server.stop()
"""

from __future__ import annotations

import errno
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Type
from urllib.parse import parse_qs, urlparse

from .metrics import MetricsRegistry, get_registry
from .openmetrics import CONTENT_TYPE, render
from .queries import QueryRegistry, get_queries
from .trace import Tracer, get_tracer, span_to_dict

#: Default port, in the conventional Prometheus-exporter range.
DEFAULT_PORT = 9464

#: Default span count for /debug/trace when ?last= is absent.
DEFAULT_TRACE_LAST = 10

HealthCallback = Callable[[], Dict[str, object]]


class PortInUseError(OSError):
    """The requested bind port is already taken by another process.

    Raised by :meth:`TelemetryServer.start` instead of the raw
    ``OSError(EADDRINUSE)`` the stdlib server produces, so callers (the
    CLI foremost) can print something actionable — which port, and how
    to find the squatter — rather than a bare errno traceback.
    """

    def __init__(self, host: str, port: int) -> None:
        super().__init__(
            errno.EADDRINUSE,
            f"port {port} on {host} is already in use — another "
            f"`repro-gis serve` process is likely bound there "
            f"(`lsof -iTCP:{port} -sTCP:LISTEN` shows its pid); pick "
            f"another port with --port, or 0 for an OS-assigned one",
        )
        self.host = host
        self.port = port


class TelemetryHandler(BaseHTTPRequestHandler):
    """Routes one request; the server instance rides on ``self.server``.

    Subclasses (the query daemon's handler in :mod:`repro.serve.http`)
    extend the route table by overriding :meth:`route_get` and falling
    back to ``super().route_get(...)`` for the telemetry routes.
    """

    #: Routes listed in the 404 body; subclasses extend.
    known_routes = (
        "/metrics /healthz /debug/trace /debug/queries "
        "/debug/profile /debug/heat"
    )

    # Quiet by default: request logging belongs to metrics, not stderr.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        return

    @property
    def owner(self) -> "TelemetryServer":
        server = self.server
        assert isinstance(server, _TelemetryHTTPServer)
        return server.owner

    def do_GET(self) -> None:  # noqa: N802 - http.server's naming
        self.owner.registry.counter("obs.http_requests").inc()
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        self.route_get(route, parsed.query)

    def route_get(self, route: str, query: str) -> None:
        """Dispatch one GET; the extension seam for handler subclasses."""
        if route == "/metrics":
            self._respond(200, CONTENT_TYPE, render(self.owner.registry))
        elif route == "/healthz":
            self._healthz()
        elif route == "/debug/trace":
            self._debug_trace(query)
        elif route == "/debug/queries":
            body = json.dumps(self.owner.queries.snapshot()) + "\n"
            self._respond(200, "application/json; charset=utf-8", body)
        elif route == "/debug/profile":
            self._debug_profile(query)
        elif route == "/debug/heat":
            self._debug_heat()
        else:
            self._respond(
                404,
                "text/plain; charset=utf-8",
                f"not found; routes: {self.known_routes}\n",
            )

    def _healthz(self) -> None:
        payload: Dict[str, object] = {"status": "ok"}
        health = self.owner.health
        if health is not None:
            try:
                payload.update(health())
            except Exception as exc:
                self._respond(
                    500,
                    "application/json; charset=utf-8",
                    json.dumps({"status": "error", "error": str(exc)}) + "\n",
                )
                return
        self._respond(
            200, "application/json; charset=utf-8", json.dumps(payload) + "\n"
        )

    def _debug_trace(self, query: str) -> None:
        params = parse_qs(query)
        try:
            last = int(params.get("last", [str(DEFAULT_TRACE_LAST)])[0])
        except ValueError:
            self._respond(
                400, "text/plain; charset=utf-8", "last must be an integer\n"
            )
            return
        spans = self.owner.tracer.last_traces(max(0, last))
        body = json.dumps([span_to_dict(span) for span in spans]) + "\n"
        self._respond(200, "application/json; charset=utf-8", body)

    #: /debug/profile caps: a capture blocks one handler thread, so the
    #: duration is bounded; absurd rates are clamped, not 500'd.
    MAX_PROFILE_SECONDS = 30.0
    MAX_PROFILE_RATE_HZ = 500.0

    def _debug_profile(self, query: str) -> None:
        from . import profiler as _profiler

        params = parse_qs(query)
        try:
            seconds = float(params.get("seconds", ["2"])[0])
            rate = float(params.get("rate", [str(_profiler.CAPTURE_RATE_HZ)])[0])
        except ValueError:
            self._respond(
                400,
                "text/plain; charset=utf-8",
                "seconds and rate must be numbers\n",
            )
            return
        fmt = params.get("format", ["speedscope"])[0]
        if fmt not in ("speedscope", "collapsed"):
            self._respond(
                400,
                "text/plain; charset=utf-8",
                "format must be speedscope or collapsed\n",
            )
            return
        seconds = min(max(0.1, seconds), self.MAX_PROFILE_SECONDS)
        rate = min(max(1.0, rate), self.MAX_PROFILE_RATE_HZ)
        profile = _profiler.capture(
            seconds=seconds,
            rate_hz=rate,
            queries=self.owner.queries,
            registry=self.owner.registry,
        )
        if fmt == "collapsed":
            self._respond(200, "text/plain; charset=utf-8", profile.collapsed())
        else:
            self._respond(
                200,
                "application/json; charset=utf-8",
                profile.speedscope_json(name=f"{self.owner.url} profile"),
            )

    def _debug_heat(self) -> None:
        from .heat import maybe_heat

        heat = maybe_heat()
        payload = heat.snapshot() if heat is not None else {"enabled": False}
        self._respond(
            200, "application/json; charset=utf-8", json.dumps(payload) + "\n"
        )

    def _respond(self, status: int, content_type: str, body: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


class _TelemetryHTTPServer(ThreadingHTTPServer):
    """The stdlib server plus a back-pointer to its owner."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        owner: "TelemetryServer",
        handler: Type[TelemetryHandler],
    ) -> None:
        super().__init__(address, handler)
        self.owner = owner


class TelemetryServer:
    """The process's telemetry endpoint, served from a daemon thread.

    Parameters
    ----------
    host, port:
        Bind address.  ``port=None`` binds the default (9464); ``port=0``
        asks the OS for a free port (read the chosen one back from
        :attr:`port` after ``start``).
    registry, tracer, queries:
        Default to the active context's instances (the process-wide
        singletons unless an :class:`~repro.obs.context.ObsContext` is
        active at construction).
    health:
        Optional callback contributing fields to the ``/healthz`` body.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        health: Optional[HealthCallback] = None,
        queries: Optional[QueryRegistry] = None,
    ) -> None:
        self.host = host
        self._requested_port = DEFAULT_PORT if port is None else int(port)
        self.registry = registry if registry is not None else get_registry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.queries = queries if queries is not None else get_queries()
        self.health = health
        self._server: Optional[_TelemetryHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        """The bound port (the OS's choice when constructed with 0)."""
        if self._server is not None:
            return int(self._server.server_address[1])
        return self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._server is not None

    #: Request handler class; subclasses (the query daemon) override to
    #: extend the route table.
    handler_class: Type[TelemetryHandler] = TelemetryHandler

    def start(self) -> "TelemetryServer":
        """Bind and serve on a daemon thread; returns self (chainable).

        A port already bound by another process raises the typed
        :class:`PortInUseError` instead of a raw ``OSError``.
        """
        if self._server is not None:
            return self
        try:
            self._server = _TelemetryHTTPServer(
                (self.host, self._requested_port), self, self.handler_class
            )
        except OSError as exc:
            if exc.errno == errno.EADDRINUSE:
                raise PortInUseError(
                    self.host, self._requested_port
                ) from exc
            raise
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-telemetry",
            daemon=True,
        )
        self._thread.start()
        self.registry.gauge("obs.server_up").set(1.0)
        return self

    def stop(self) -> None:
        """Shut down the server and release the socket (idempotent)."""
        server, thread = self._server, self._thread
        self._server, self._thread = None, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)
        self.registry.gauge("obs.server_up").set(0.0)

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc: object) -> bool:
        self.stop()
        return False

"""HTTP front end: the query daemon over the telemetry server stack.

:class:`QueryDaemon` subclasses :class:`~repro.obs.server.TelemetryServer`
— same threaded stdlib server, same daemon thread, same ``/metrics`` /
``/healthz`` / ``/debug/*`` routes — and plugs in a handler that adds
the query endpoints:

``POST /v1/query``
    Spatial selection: ``{"table", "bbox": [xmin, ymin, xmax, ymax],
    "predicate", "distance", "z_range", "columns", "limit",
    "timeout_s", "format"}``.
``POST /v1/sql``
    SQL: ``{"sql", "limit", "timeout_s", "format"}``.
``GET /debug/serve``
    Admission, session-pool and per-tenant quota state as JSON.

Status mapping (the contract ``docs/service.md`` documents):

====  ==============================================================
400   malformed payload / body (:class:`~repro.serve.service.BadRequest`)
403   tenant budget exhausted (body = the budget report)
404   unknown table or column
408   cooperative deadline fired (body carries ``query_id``/``elapsed_s``)
413   request body over the size cap
429   admission shed (``Retry-After`` header set)
500   handler bug (the daemon itself stays up)
503   draining for shutdown (``Retry-After`` set)
====  ==============================================================

Graceful shutdown: ``install_signal_handlers()`` chains SIGTERM — the
daemon stops admitting (new requests see 503), waits up to the drain
budget for in-flight queries, stops the listener, then invokes the
*previous* handler, which is the flight recorder's hook when installed
(black-box dump, then the default SIGTERM exit).  A handler thread
crash is answered with 500 and never takes the process down; an
:class:`~repro.engine.durable.InjectedCrash` from the fault harness
stays fatal to its thread (crash transparency), which is exactly the
"SIGKILL mid-request" story the recovery tests exercise.
"""

from __future__ import annotations

import json
import os
import signal
import threading
from typing import Any, Dict, Optional, Tuple, Union

from ..engine.catalog import CatalogError
from ..engine.table import SchemaError
from ..obs.queries import QueryCancelled
from ..sql.errors import SqlExecutionError, SqlFunctionError
from ..sql.lexer import SqlSyntaxError
from ..obs.server import HealthCallback, TelemetryHandler, TelemetryServer
from .admission import AdmissionRejected
from .quotas import QuotaExceeded
from .service import BadRequest, QueryService, ServiceResponse

#: Largest accepted request body; anything bigger is answered 413.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Default daemon port (distinct from the metrics exporter's 9464).
DEFAULT_SERVE_PORT = 8472


class ServeHandler(TelemetryHandler):
    """Telemetry routes plus the query endpoints."""

    known_routes = (
        TelemetryHandler.known_routes
        + " /debug/serve POST:/v1/query POST:/v1/sql"
    )

    @property
    def daemon(self) -> "QueryDaemon":
        owner = self.owner
        assert isinstance(owner, QueryDaemon)
        return owner

    # -- GET ---------------------------------------------------------------

    def route_get(self, route: str, query: str) -> None:
        if route == "/debug/serve":
            service = self.daemon.service
            body = json.dumps(
                {
                    "admission": service.admission.snapshot(),
                    "sessions": {
                        "idle": service.sessions.idle,
                        "built": service.sessions.built,
                    },
                    "tenants": service.quotas.snapshot(),
                    "generation": service.snapshots.current().generation,
                }
            ) + "\n"
            self._respond(200, "application/json; charset=utf-8", body)
        else:
            super().route_get(route, query)

    # -- POST --------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server's naming
        self.owner.registry.counter("obs.http_requests").inc()
        route = self.path.rstrip("/")
        endpoint = {"/v1/query": "query", "/v1/sql": "sql"}.get(route)
        try:
            if endpoint is None:
                self._respond(
                    404,
                    "text/plain; charset=utf-8",
                    f"not found; routes: {self.known_routes}\n",
                )
                return
            status, response = self._handle_post(endpoint)
            self._send_service_response(status, response)
        except (BrokenPipeError, ConnectionResetError, TimeoutError):
            # The client went away (slow reader, mid-response
            # disconnect).  Its problem, not the daemon's: count it and
            # let this handler thread end quietly.
            self.owner.registry.counter("serve.client_disconnects").inc()

    def _handle_post(
        self, endpoint: str
    ) -> Tuple[int, Union[ServiceResponse, Dict[str, Any]]]:
        """Run one request; returns (status, response-or-error-payload)."""
        service = self.daemon.service
        try:
            payload = self._read_json_body()
            response = service.handle(
                endpoint,
                payload,
                tenant=self._tenant(payload),
                traceparent=self.headers.get("traceparent"),
            )
            return 200, response
        except BadRequest as exc:
            return 400, {"error": "bad_request", "message": str(exc)}
        # SqlFunctionError is a SqlExecutionError, named so that R8
        # (exception-status) sees the mapping.
        except (SqlSyntaxError, SqlExecutionError, SqlFunctionError) as exc:
            return 400, {"error": "sql_error", "message": str(exc)}
        except _BodyTooLarge as exc:
            return 413, {"error": "body_too_large", "message": str(exc)}
        except QuotaExceeded as exc:
            return 403, {
                "error": "quota_exceeded",
                "message": str(exc),
                "report": exc.report,
            }
        except (CatalogError, SchemaError) as exc:
            # KeyError subclasses repr-quote their message; unwrap it.
            message = exc.args[0] if exc.args else str(exc)
            return 404, {"error": "not_found", "message": str(message)}
        except QueryCancelled as exc:
            return 408, {
                "error": "cancelled",
                "message": str(exc),
                "query_id": exc.query_id,
                "timeout_s": exc.timeout_s,
                "elapsed_s": exc.elapsed_s,
            }
        except AdmissionRejected as exc:
            status = 503 if exc.reason == "draining" else 429
            return status, {
                "error": "rejected",
                "reason": exc.reason,
                "message": str(exc),
                "retry_after_s": exc.retry_after_s,
                "_retry_after": exc.retry_after_s,
            }
        except Exception as exc:
            # A handler bug must never take the daemon down: answer 500
            # and keep serving.  InjectedCrash is a BaseException and
            # deliberately NOT caught here — crash transparency.
            self.owner.registry.counter("serve.errors").inc()
            return 500, {
                "error": "internal",
                "type": type(exc).__name__,
                "message": str(exc),
            }

    def _send_service_response(
        self, status: int, response: Union[ServiceResponse, Dict[str, Any]]
    ) -> None:
        if isinstance(response, ServiceResponse):
            data = response.encode()
            content_type = response.content_type
            headers = dict(response.headers)
        else:
            retry_after = response.pop("_retry_after", None)
            data = (json.dumps(response) + "\n").encode("utf-8")
            content_type = "application/json; charset=utf-8"
            headers = {}
            if retry_after is not None:
                headers["Retry-After"] = str(max(1, int(round(retry_after))))
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _read_json_body(self) -> Dict[str, Any]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise BadRequest("bad Content-Length header") from None
        if length > MAX_BODY_BYTES:
            raise _BodyTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES} byte cap"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise BadRequest("empty request body; send a JSON object")
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise BadRequest(f"body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        return payload

    def _tenant(self, payload: Dict[str, Any]) -> Optional[str]:
        header = self.headers.get("X-Tenant")
        if header:
            return str(header)
        tenant = payload.get("tenant")
        return str(tenant) if tenant is not None else None


class _BodyTooLarge(ValueError):
    """Request body over :data:`MAX_BODY_BYTES` (HTTP 413)."""


class QueryDaemon(TelemetryServer):
    """The long-lived query service process (see module docstring).

    Parameters
    ----------
    service:
        The :class:`QueryService` to expose.
    host, port:
        Bind address; ``port=None`` uses :data:`DEFAULT_SERVE_PORT`,
        ``0`` asks the OS.
    health:
        Override for the ``/healthz`` contribution; defaults to the
        service's :meth:`~QueryService.health_report`, which *raises*
        (turning the probe into a 500) when the store is unhealthy.
    reload_poll_s:
        When set, :meth:`wait` polls the on-disk catalog generation at
        this interval and republishes the snapshot after an external
        writer's publish.
    """

    handler_class = ServeHandler

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        health: Optional[HealthCallback] = None,
        reload_poll_s: Optional[float] = None,
    ) -> None:
        super().__init__(
            host=host,
            port=port if port is not None else DEFAULT_SERVE_PORT,
            registry=service.obs.registry,
            tracer=service.obs.tracer,
            queries=service.obs.queries,
            health=health if health is not None else service.health_report,
        )
        self.service = service
        self.reload_poll_s = reload_poll_s
        self._shutdown = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    def drain_and_stop(self, timeout_s: Optional[float] = None) -> bool:
        """Stop admitting, wait for in-flight work, stop the listener.

        Returns False when the drain budget expired with requests still
        running (they are abandoned to their deadlines).
        """
        drained = self.service.drain(timeout_s)
        self.stop()
        self._shutdown.set()
        self.flush_heat(force=True)
        return drained

    def flush_heat(self, force: bool = False) -> None:
        """Persist the heat map's current window, when heat is enabled.

        Failures are swallowed (``Exception`` only — injected crashes
        pass through): a full disk must not take the drain path down.
        """
        from ..obs.heat import maybe_heat

        heat = maybe_heat()
        if heat is None:
            return
        try:
            if force:
                heat.flush()
            else:
                heat.maybe_flush()
        except Exception:
            pass

    def install_signal_handlers(self) -> None:
        """Chain SIGTERM: drain first, then the previous handler.

        The previous handler is the flight recorder's when the CLI
        installed it — so the shutdown order is: shed new work (503),
        drain in-flight queries, close the listener, flight-record the
        shutdown, exit via the default SIGTERM action.  Main thread
        only (signal module restriction).
        """
        previous = signal.getsignal(signal.SIGTERM)

        def _on_sigterm(signum: int, frame: Any) -> None:
            self.drain_and_stop()
            if callable(previous):
                previous(signum, frame)
            else:
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                os.kill(os.getpid(), signal.SIGTERM)

        signal.signal(signal.SIGTERM, _on_sigterm)

    def wait(self) -> None:
        """Block the main thread until shutdown, polling for publishes.

        The poll tick doubles as the heat journal's flush heartbeat
        (:meth:`flush_heat` is interval-gated, so most ticks no-op).
        """
        poll = self.reload_poll_s
        while not self._shutdown.is_set():
            if self._shutdown.wait(timeout=poll if poll else 1.0):
                break
            if poll:
                self.service.snapshots.reload_if_changed()
            self.flush_heat()

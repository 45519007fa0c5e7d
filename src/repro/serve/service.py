"""The query service: request handling behind admission and quotas.

:class:`QueryService` is the transport-independent core of the daemon —
:mod:`repro.serve.http` is a thin adapter over it, and the tests drive
it directly.  One request travels:

1. **Quota check** (:class:`~repro.serve.quotas.QuotaLedger`) — an
   exhausted tenant is refused *before* it can occupy a slot.
2. **Admission** (:class:`~repro.serve.admission.AdmissionController`)
   — beyond the bounded queue the request is shed immediately.
3. **Snapshot pin** — the request scans exactly one catalog generation,
   whatever writers publish meanwhile.
4. **Execution** under the service's own observability context, so the
   request's spans land in the tracer ``/debug/trace`` reads; the
   handling thread adopts the inbound ``traceparent`` for the request's
   duration only.  A per-request deadline is wired into the engine's
   cooperative cancellation (:class:`~repro.obs.queries.QueryCancelled`).
5. **Charge** — the request's :class:`ResourceTracker` usage is folded
   into the tenant's ledger, cancelled and failed requests included
   (they consumed the CPU either way).

Failures stay typed all the way up so the HTTP layer can map them:
``BadRequest`` (400), ``CatalogError``/``SchemaError`` (404),
``QueryCancelled`` (408), ``AdmissionRejected`` (429/503),
``QuotaExceeded`` (403).  ``durable.crash_point`` seams
(``serve.request.received`` / ``admitted`` / ``executed``) let the
fault harness kill a request at each stage and prove the daemon and the
store both survive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from ..engine import durable
from ..gis.envelope import Box
from ..obs.context import ObsContext, default_context
from ..obs.resources import ResourceTracker
from ..obs.timing import now
from ..sql.executor import Result
from . import wire
from .admission import AdmissionController
from .quotas import DEFAULT_TENANT, QuotaLedger, TenantBudget
from .sessions import SessionPool
from .snapshot import Snapshot, SnapshotManager


class BadRequest(ValueError):
    """The request payload is malformed (HTTP 400)."""


@dataclass
class ServiceConfig:
    """Tunables for one daemon instance (CLI flags map 1:1)."""

    #: Requests executing simultaneously.
    max_concurrency: int = 4
    #: Requests allowed to wait for a slot before shedding starts.
    queue_depth: int = 8
    #: Longest a queued request waits before it is shed.
    queue_wait_s: float = 30.0
    #: Backoff hint on 429/503 responses.
    retry_after_s: float = 1.0
    #: Deadline applied when a request names none.
    default_timeout_s: Optional[float] = None
    #: Server-side ceiling on any request's deadline.
    max_timeout_s: Optional[float] = 60.0
    #: How long SIGTERM waits for in-flight requests before giving up.
    drain_timeout_s: float = 10.0
    #: Hard cap on rows returned per response (spatial results are
    #: truncated to it; ``limit`` in the payload may only lower it).
    max_response_rows: int = 1_000_000
    #: Per-tenant budgets; tenants absent here get ``default_budget``.
    quotas: Dict[str, TenantBudget] = field(default_factory=dict)
    default_budget: Optional[TenantBudget] = None


@dataclass
class ServiceResponse:
    """One finished request: either a JSON payload or a binary body."""

    payload: Optional[Dict[str, Any]] = None
    body: Optional[bytes] = None
    content_type: str = "application/json; charset=utf-8"
    headers: Dict[str, str] = field(default_factory=dict)

    def encode(self) -> bytes:
        if self.body is not None:
            return self.body
        return (json.dumps(self.payload, default=_json_default) + "\n").encode(
            "utf-8"
        )


def _json_default(value: Any) -> Any:
    """JSON fallback for numpy scalars riding in result rows."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(
        f"object of type {type(value).__name__} is not JSON serializable"
    )


class QueryService:
    """Transport-independent request handling (see module docstring)."""

    def __init__(
        self,
        snapshots: SnapshotManager,
        config: Optional[ServiceConfig] = None,
        obs: Optional[ObsContext] = None,
    ) -> None:
        self.snapshots = snapshots
        self.config = config if config is not None else ServiceConfig()
        if obs is not None:
            self.obs = obs
        elif snapshots.obs is not None:
            self.obs = snapshots.obs
        else:
            self.obs = default_context()
        self.admission = AdmissionController(
            max_concurrency=self.config.max_concurrency,
            queue_depth=self.config.queue_depth,
            queue_wait_s=self.config.queue_wait_s,
            retry_after_s=self.config.retry_after_s,
            registry=self.obs.registry,
        )
        self.quotas = QuotaLedger(
            budgets=self.config.quotas,
            default_budget=self.config.default_budget,
        )
        self.sessions = SessionPool(max_idle=self.config.max_concurrency * 2)

    # -- the request path --------------------------------------------------

    def handle(
        self,
        endpoint: str,
        payload: Dict[str, Any],
        tenant: Optional[str] = None,
        traceparent: Optional[str] = None,
    ) -> ServiceResponse:
        """Run one request end to end (``endpoint``: ``query`` | ``sql``).

        Raises the typed errors listed in the module docstring; anything
        else escaping is a handler bug the transport maps to 500.
        """
        t0 = now()
        registry = self.obs.registry
        registry.counter("serve.requests").inc()
        tenant = tenant if tenant else DEFAULT_TENANT
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        durable.crash_point(
            "serve.request.received", endpoint=endpoint, tenant=tenant
        )
        self.quotas.check(tenant)
        with self.admission.admit():
            durable.crash_point("serve.request.admitted", endpoint=endpoint)
            timeout_s = self._resolve_timeout(payload)
            with self.snapshots.pin() as snapshot:
                tracer = self.obs.tracer
                adopted = tracer.remote_parent
                if traceparent is not None:
                    self.obs.adopt_traceparent(traceparent)
                tracker = ResourceTracker()
                try:
                    with self.obs.activate(), tracker:
                        if endpoint == "query":
                            response = self._spatial(
                                snapshot, payload, timeout_s
                            )
                        elif endpoint == "sql":
                            response = self._sql(snapshot, payload, timeout_s)
                        else:
                            raise BadRequest(
                                f"unknown endpoint {endpoint!r} "
                                f"(want 'query' or 'sql')"
                            )
                    outbound = self.obs.traceparent()
                finally:
                    tracer.remote_parent = adopted
                    # Cancelled and failed requests burned the CPU too;
                    # the ledger charges what actually happened.
                    self.quotas.charge(tenant, tracker.usage)
                durable.crash_point(
                    "serve.request.executed", endpoint=endpoint
                )
                if outbound is not None:
                    response.headers.setdefault("traceparent", outbound)
        registry.histogram("serve.request_seconds").observe(now() - t0)
        return response

    def _resolve_timeout(self, payload: Dict[str, Any]) -> Optional[float]:
        raw = payload.get("timeout_s")
        if raw is None:
            timeout = self.config.default_timeout_s
        else:
            try:
                timeout = float(raw)
            except (TypeError, ValueError):
                raise BadRequest(
                    f"timeout_s must be a number, got {raw!r}"
                ) from None
            if timeout <= 0:
                raise BadRequest("timeout_s must be positive")
        ceiling = self.config.max_timeout_s
        if ceiling is not None:
            timeout = ceiling if timeout is None else min(timeout, ceiling)
        return timeout

    # -- endpoints ---------------------------------------------------------

    def _spatial(
        self,
        snapshot: Snapshot,
        payload: Dict[str, Any],
        timeout_s: Optional[float],
    ) -> ServiceResponse:
        table_name = payload.get("table")
        if not isinstance(table_name, str):
            raise BadRequest("spatial query needs a 'table' name")
        bbox = payload.get("bbox")
        if not isinstance(bbox, (list, tuple)) or len(bbox) != 4:
            raise BadRequest(
                "spatial query needs 'bbox': [xmin, ymin, xmax, ymax]"
            )
        try:
            geometry = Box(*(float(v) for v in bbox))
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"bad bbox: {exc}") from None
        predicate = str(payload.get("predicate", "contains"))
        distance = float(payload.get("distance", 0.0))
        z_range = payload.get("z_range")
        if z_range is not None:
            if not isinstance(z_range, (list, tuple)) or len(z_range) != 2:
                raise BadRequest("z_range must be [zmin, zmax]")
            z_range = (float(z_range[0]), float(z_range[1]))
        # CatalogError from an unknown table propagates (HTTP 404).
        table = snapshot.db.table(table_name)
        select = snapshot.db.select_for(table_name)
        result = select.query(
            geometry,
            predicate,
            distance,
            z_column=payload.get("z_column"),
            z_range=z_range,
            timeout_s=timeout_s,
        )
        limit = self._resolve_limit(payload)
        oids = result.oids[:limit]
        column_names = payload.get("columns", ["x", "y", "z"])
        if not isinstance(column_names, (list, tuple)):
            raise BadRequest("'columns' must be a list of column names")
        # SchemaError from an unknown column propagates (HTTP 404).
        arrays = {
            str(name): table.column(str(name)).values[oids]
            for name in column_names
        }
        meta: Dict[str, Any] = {
            "table": table_name,
            "generation": snapshot.generation,
            "n_results": len(result),
            "n_returned": int(oids.shape[0]),
            "truncated": len(result) > int(oids.shape[0]),
            "query_id": result.stats.query_id,
        }
        return self._respond(payload, meta, arrays)

    def _sql(
        self,
        snapshot: Snapshot,
        payload: Dict[str, Any],
        timeout_s: Optional[float],
    ) -> ServiceResponse:
        sql = payload.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise BadRequest("sql request needs a non-empty 'sql' string")
        with self.sessions.session(snapshot) as session:
            result = session.execute(sql, timeout_s=timeout_s)
            meta: Dict[str, Any] = {
                "generation": snapshot.generation,
                "n_results": len(result.rows),
                "query_id": session.last_query_id,
                "profile": dict(session.last_profile),
            }
        limit = self._resolve_limit(payload)
        if len(result.rows) > limit:
            result = Result(columns=result.columns, rows=result.rows[:limit])
            meta["n_returned"] = limit
            meta["truncated"] = True
        else:
            meta["n_returned"] = len(result.rows)
            meta["truncated"] = False
        if self._wants_columnar(payload):
            arrays = {
                name: np.asarray(result.column(name))
                for name in result.columns
            }
            return self._respond(payload, meta, arrays)
        return ServiceResponse(
            payload={
                "meta": meta,
                "columns": result.columns,
                "rows": [list(row) for row in result.rows],
            }
        )

    # -- response shaping --------------------------------------------------

    def _resolve_limit(self, payload: Dict[str, Any]) -> int:
        raw = payload.get("limit")
        cap = self.config.max_response_rows
        if raw is None:
            return cap
        try:
            limit = int(raw)
        except (TypeError, ValueError):
            raise BadRequest(f"limit must be an integer, got {raw!r}") from None
        if limit < 0:
            raise BadRequest("limit must be >= 0")
        return min(limit, cap)

    @staticmethod
    def _wants_columnar(payload: Dict[str, Any]) -> bool:
        return str(payload.get("format", "json")).lower() == "columnar"

    def _respond(
        self,
        payload: Dict[str, Any],
        meta: Dict[str, Any],
        arrays: Dict[str, np.ndarray],
    ) -> ServiceResponse:
        if self._wants_columnar(payload):
            try:
                body = wire.encode_columns(arrays)
            except wire.WireFormatError as exc:
                raise BadRequest(str(exc)) from None
            return ServiceResponse(
                body=body,
                content_type=wire.CONTENT_TYPE,
                headers={
                    "X-Repro-Meta": json.dumps(meta, default=_json_default)
                },
            )
        names = list(arrays)
        columns = [arrays[name].tolist() for name in names]
        rows = [list(row) for row in zip(*columns)] if columns else []
        return ServiceResponse(
            payload={"meta": meta, "columns": names, "rows": rows}
        )

    # -- operations --------------------------------------------------------

    def health_report(self) -> Dict[str, Any]:
        """The ``/healthz`` contribution; raises when the store is bad.

        A table that failed to load (``health[name]["ok"] is False``)
        turns the probe into a 500 — an unhealthy daemon must fail its
        probe, not lie on it (same contract as ``repro-gis verify``).
        """
        snapshot = self.snapshots.current()
        bad = sorted(
            name
            for name, entry in snapshot.db.health.items()
            if not entry.get("ok", True)
        )
        if bad:
            raise RuntimeError(
                f"store unhealthy: tables failed to load: {', '.join(bad)}"
            )
        return {
            "generation": snapshot.generation,
            "pinned_readers": snapshot.pins,
            "tables": {
                name: len(snapshot.db.table(name))
                for name in snapshot.db.db.table_names
            },
            "admission": self.admission.snapshot(),
            "sessions": {
                "idle": self.sessions.idle,
                "built": self.sessions.built,
            },
            "tenants": self.quotas.snapshot(),
        }

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Stop admitting and wait for in-flight requests; see SIGTERM
        handling in :mod:`repro.serve.http`."""
        self.admission.begin_drain()
        budget = (
            timeout_s if timeout_s is not None else self.config.drain_timeout_s
        )
        return self.admission.wait_drained(budget)

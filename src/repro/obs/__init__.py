"""Observability: span tracing, metrics, exporters, and telemetry.

The measurement layer under ``EXPLAIN ANALYZE``, ``repro-gis trace``,
``repro-gis serve``'s telemetry routes and the bench harness's metrics
snapshots:
spans and metrics feed an OpenMetrics endpoint, a slow-query log,
per-query resource attribution and a crash flight recorder.  See
``docs/observability.md`` for the span model and metric names.
"""

from .context import (
    ObsContext,
    current_context,
    default_context,
    format_traceparent,
    parse_traceparent,
)
from .flight import FLIGHT_DIR_ENV, FlightRecorder, get_flight_recorder
from .metrics import (
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from .openmetrics import CONTENT_TYPE as OPENMETRICS_CONTENT_TYPE
from .openmetrics import render as render_openmetrics
from .queries import (
    ActiveQuery,
    QueryCancelled,
    QueryRegistry,
    check_deadline,
    current_query,
    get_queries,
)
from .resources import ResourceTracker, ResourceUsage
from .resources import current as current_resource_tracker
from .server import TelemetryServer
from .slowlog import (
    SLOW_QUERY_ENV,
    SLOW_QUERY_LOG_ENV,
    SlowQueryLog,
    format_record,
    read_records,
)
from .trace import (
    TRACE_ENV,
    RemoteParent,
    Span,
    Tracer,
    format_tree,
    from_json,
    get_tracer,
    maybe_span,
    to_chrome,
    to_json,
)

__all__ = [
    "FLIGHT_DIR_ENV",
    "OPENMETRICS_CONTENT_TYPE",
    "SLOW_QUERY_ENV",
    "SLOW_QUERY_LOG_ENV",
    "TRACE_ENV",
    "LATENCY_BUCKETS_S",
    "ActiveQuery",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsContext",
    "QueryCancelled",
    "QueryRegistry",
    "RemoteParent",
    "ResourceTracker",
    "ResourceUsage",
    "SlowQueryLog",
    "Span",
    "TelemetryServer",
    "Tracer",
    "check_deadline",
    "current_context",
    "current_query",
    "current_resource_tracker",
    "default_context",
    "format_record",
    "format_traceparent",
    "format_tree",
    "from_json",
    "get_flight_recorder",
    "get_queries",
    "get_registry",
    "get_tracer",
    "maybe_span",
    "parse_traceparent",
    "render_openmetrics",
    "to_chrome",
    "to_json",
]

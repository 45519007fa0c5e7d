"""The declared registry of every metric name the engine emits.

Metrics are get-or-create by name (:meth:`MetricsRegistry.counter` and
friends), so a typo'd name — ``durability.retires`` — would silently
fork a fresh, forever-zero series instead of erroring.  This module is
the single place names are declared; the ``counter-registry`` rule of
``repro-gis check`` fails the build when a literal name used anywhere
in ``src/`` is missing here.  Keep ``docs/observability.md`` in sync.

Naming convention: dotted lowercase ``<subsystem>.<what>``.
"""

from __future__ import annotations

from typing import FrozenSet

#: Monotonic event counts.
COUNTERS: FrozenSet[str] = frozenset(
    {
        "compression.decoded_blocks",
        "compression.encoded_blocks",
        "compression.materialized_bytes_saved",
        "compression.packed_predicate_hits",
        "durability.checksum_failures",
        "durability.quarantines",
        "durability.retries",
        "durability.rolled_back_rows",
        "flight.dumps",
        "heat.flushes",
        "heat.updates",
        "imprints.builds",
        "imprints.segment_builds",
        "load.files",
        "load.points",
        "load.tiles_skipped",
        "obs.http_requests",
        "profiler.captures",
        "profiler.samples",
        "profiler.sweeps",
        "query.cancelled",
        "query.count",
        "query.errors",
        "query.segments_probed",
        "query.segments_skipped",
        "serve.admitted",
        "serve.client_disconnects",
        "serve.errors",
        "serve.requests",
        "serve.shed",
        "slowlog.records",
        "sql.queries",
        "trace.spans_dropped",
    }
)

#: Point-in-time values.
GAUGES: FrozenSet[str] = frozenset(
    {
        "heat.extents",
        "heat.hottest_extent_bytes",
        "heat.hottest_segment_bytes",
        "heat.segments",
        "heat.tables",
        "obs.server_up",
        "profiler.rate_hz",
        "profiler.running",
        "query.active",
        "serve.draining",
        "serve.inflight",
        "serve.queued",
    }
)

#: Latency / size distributions.
HISTOGRAMS: FrozenSet[str] = frozenset(
    {
        "compression.decode_seconds",
        "compression.encode_seconds",
        "imprints.build_seconds",
        "load.seconds",
        "profiler.sweep_seconds",
        "query.cpu_seconds",
        "query.filter_seconds",
        "query.refine_seconds",
        "query.total_seconds",
        "serve.queue_wait_seconds",
        "serve.request_seconds",
        "sql.seconds",
    }
)

#: Every declared metric name, any kind.
ALL_METRICS: FrozenSet[str] = COUNTERS | GAUGES | HISTOGRAMS

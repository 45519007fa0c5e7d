"""Slow-query log: structured JSONL records for outlier queries.

P99 latency lives in the histograms; *which query* was the p99 does
not.  When a :class:`SlowQueryLog` is armed (``PointCloudDB(
slow_query_s=...)`` or ``REPRO_SLOW_QUERY_S``), every top-level query
of that database, in-process or served, runs inside
:meth:`SlowQueryLog.observe` (opened by
:func:`~repro.obs.queries.query_scope`); the ones that exceed the
threshold append exactly one JSON record to the log file — the query
text or bbox, its :class:`~repro.core.query.QueryStats`, its resource
attribution, and the **full span tree** captured while it ran, so the
post-hoc question "where did those 800 ms go" has the same answer
``EXPLAIN ANALYZE`` would have given live.

Records are one JSON object per line (JSONL).  Appends go through
:func:`repro.engine.durable.atomic_append_text` — written, flushed and
fsynced before ``observe`` returns — so the record for the query that
crashed the process is on disk.  A torn final line (the crash happened
*mid*-append) is skipped by :func:`read_records`, never a parse error.

Fast queries pay one :meth:`~repro.obs.trace.Tracer.capture` push/pop
and a stopwatch; nothing is rendered or written for them.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from .metrics import MetricsRegistry, get_registry
from .timing import Stopwatch
from .trace import Span, Tracer, format_tree, get_tracer, span_to_dict

#: Environment threshold in seconds; presence (any parseable float,
#: including 0) arms the slow-query log.
SLOW_QUERY_ENV = "REPRO_SLOW_QUERY_S"

#: Environment override for the log file location.
SLOW_QUERY_LOG_ENV = "REPRO_SLOW_QUERY_LOG"

#: Default log filename, resolved against the database directory.
DEFAULT_LOG_NAME = "slow-query.jsonl"


def threshold_from_env() -> Optional[float]:
    """The ``REPRO_SLOW_QUERY_S`` threshold, or ``None`` when unset or
    unparseable.  Zero is a valid threshold (log every query)."""
    import os

    raw = os.environ.get(SLOW_QUERY_ENV, "").strip()
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        return None


def path_from_env() -> Optional[str]:
    """The ``REPRO_SLOW_QUERY_LOG`` path override, or ``None``."""
    import os

    raw = os.environ.get(SLOW_QUERY_LOG_ENV, "").strip()
    return raw or None


class SlowQueryLog:
    """Append-only JSONL log of queries slower than ``threshold_s``.

    Parameters
    ----------
    threshold_s:
        Queries taking at least this long (wall clock) are logged.
    path:
        The JSONL file; parent directories are created at first append.
    tracer, registry:
        Default to the *active context's* instances, resolved at
        observe time (not construction), so a log owned by a database
        with a scoped :class:`~repro.obs.context.ObsContext` captures
        that context's spans and counters.
    """

    def __init__(
        self,
        threshold_s: float,
        path: Union[str, Path],
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if threshold_s < 0:
            raise ValueError("slow-query threshold must be >= 0")
        self.threshold_s = float(threshold_s)
        self.path = Path(path)
        self._tracer = tracer
        self._registry = registry

    @property
    def tracer(self) -> Tracer:
        return self._tracer if self._tracer is not None else get_tracer()

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    @contextmanager
    def observe(self, kind: str, **detail: object) -> Iterator[Dict[str, object]]:
        """Run one query under observation.

        ``kind`` names the entry point (``"sql"``, ``"spatial"``);
        ``detail`` carries its identity (the SQL text, the bbox).  The
        body adds what it learns (stats, resources, row counts) to the
        yielded dict, which the record merges if the query is slow.  The
        spans the calling thread opens inside are captured (the tracer
        records while the capture is open, same as ``EXPLAIN ANALYZE``),
        never a concurrent query's; if the body takes at
        least ``threshold_s`` seconds, one record is durably appended —
        whether the query succeeded or raised.
        """
        fields: Dict[str, object] = {}
        error: Optional[str] = None
        with self.tracer.capture() as spans:
            watch = Stopwatch()
            try:
                yield fields
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                elapsed = watch.stop()
                if elapsed >= self.threshold_s:
                    self._write(kind, detail, fields, elapsed, spans, error)

    def _write(
        self,
        kind: str,
        detail: Dict[str, object],
        fields: Dict[str, object],
        elapsed: float,
        spans: List[Span],
        error: Optional[str],
    ) -> None:
        record: Dict[str, object] = {
            "ts": time.time(),
            "kind": kind,
            "seconds": elapsed,
            "threshold_s": self.threshold_s,
        }
        record.update(detail)
        record.update(fields)
        if error is not None:
            record["error"] = error
        record["spans"] = [span_to_dict(span) for span in spans]
        # Lazy import: obs is imported by engine's own modules, and the
        # durable layer imports back into obs for its spans.
        from ..engine.durable import atomic_append_text

        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_append_text(
            self.path, json.dumps(record) + "\n", label="slowlog"
        )
        self.registry.counter("slowlog.records").inc()


def read_records(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Parse a slow-query JSONL file, skipping blank and torn lines.

    A process that died mid-append leaves at most one unparseable final
    line; readers should see every complete record, not an exception.
    """
    records: List[Dict[str, object]] = []
    text = Path(path).read_text(encoding="utf-8")
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            parsed = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(parsed, dict):
            records.append(parsed)
    return records


def format_record(record: Dict[str, object]) -> str:
    """One slow-log record as human-readable text: a header line with
    the identity and timing, then the span tree (when captured)."""
    from .trace import from_json

    ts = record.get("ts")
    stamp = (
        time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(float(ts)))
        if isinstance(ts, (int, float))
        else "?"
    )
    kind = record.get("kind", "?")
    raw_seconds = record.get("seconds", 0.0)
    seconds = float(raw_seconds) if isinstance(raw_seconds, (int, float)) else 0.0
    header = f"[{stamp}] {kind} took {seconds * 1e3:.1f} ms"
    identity = record.get("sql") or record.get("bbox")
    if identity is not None:
        header += f": {identity}"
    if "error" in record:
        header += f" (raised {record['error']})"
    lines = [header]
    spans = record.get("spans")
    if isinstance(spans, list) and spans:
        lines.append(format_tree(from_json(json.dumps(spans))))
    return "\n".join(lines)

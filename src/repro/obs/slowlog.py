"""Slow-query log: the records of outlier queries, as JSONL.

P99 latency lives in the histograms; *which query* was the p99 does
not.  When a :class:`SlowQueryLog` is armed (``PointCloudDB(
slow_query_s=...)`` or ``REPRO_SLOW_QUERY_S``), every top-level query
of that database, in-process or served, runs under a span capture
(opened by :func:`~repro.obs.queries.query_scope`); one that takes at
least the threshold appends its query record — the same dict the
registry's recent ring keeps, with the **full span tree** captured while
it ran — so the post-hoc question "where did those 800 ms go" has the
same answer ``EXPLAIN ANALYZE`` would have given live.

Records are one JSON object per line (JSONL).  Appends go through
:func:`repro.engine.durable.atomic_append_text` — written, flushed and
fsynced before the query returns — so the record for the query that
crashed the process is on disk.  A torn final line (the crash happened
*mid*-append) is skipped by :func:`read_records`, never a parse error.

Fast queries pay one :meth:`~repro.obs.trace.Tracer.capture` push/pop;
nothing is serialised or written for them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .metrics import get_registry
from .trace import format_tree

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
    """Append-only JSONL log of query records slower than ``threshold_s``.

    Parameters
    ----------
    threshold_s:
        Queries taking at least this long (wall clock) are logged.
    path:
        The JSONL file; parent directories are created at first append.
    """

    def __init__(self, threshold_s: float, path: Union[str, Path]) -> None:
        if threshold_s < 0:
            raise ValueError("slow-query threshold must be >= 0")
        self.threshold_s = float(threshold_s)
        self.path = Path(path)

    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one query record and count it in the active
        context's ``slowlog.records``."""
        # Lazy import: obs is imported by engine's own modules, and the
        # durable layer imports back into obs for its spans.
        from ..engine.durable import atomic_append_text

        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_append_text(
            self.path, json.dumps(record) + "\n", label="slowlog"
        )
        get_registry().counter("slowlog.records").inc()


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


def format_record(record: Dict[str, Any]) -> str:
    """One query record as text: a header line with its identity,
    outcome and timing, then the span tree (when captured)."""
    from .trace import from_json

    elapsed = record.get("elapsed_s", 0.0)
    seconds = float(elapsed) if isinstance(elapsed, (int, float)) else 0.0
    header = (
        f"{record.get('query_id', '?')} {record.get('kind', '?')} "
        f"{record.get('status', '?')}, took {seconds * 1e3:.1f} ms"
    )
    detail = record.get("detail")
    if isinstance(detail, dict) and detail:
        header += ": " + " ".join(f"{key}={value}" for key, value in detail.items())
    if "error" in record:
        header += f" (raised {record['error']})"
    lines = [header]
    spans = record.get("spans")
    if isinstance(spans, list) and spans:
        lines.append(format_tree(from_json(json.dumps(spans))))
    return "\n".join(lines)

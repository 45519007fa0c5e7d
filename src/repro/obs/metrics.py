"""Process-wide metrics registry: counters, gauges, latency histograms.

Where :mod:`repro.obs.trace` answers "what did *this* query do",
metrics answer "what has the process done" — total segments skipped,
query latency percentiles, points loaded — in the style of the storage
instrumentation in the LiDAR/point-cloud evaluation literature.  Every
metric is thread-safe (one small lock per instrument) so morsel workers
can record without contending on a global lock, and the whole registry
snapshots to one JSON-friendly dict (``repro-gis trace --metrics``
prints it; ``/metrics`` serves the same series as OpenMetrics).

Naming convention: dotted lowercase paths, ``<subsystem>.<what>``
(``query.filter_seconds``, ``imprints.segments_probed``,
``load.points``).  See ``docs/observability.md`` for the full list the
engine emits.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type, TypeVar, Union

from ._context_state import CURRENT as _CONTEXT

#: Default latency bucket upper bounds, in seconds.  Fixed buckets (not
#: adaptive) so two snapshots — or two machines — are always comparable
#: bucket for bucket.
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class Counter:
    """A monotonically increasing count (events, rows, segments)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def snapshot(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value (pool size, buffer occupancy, rows)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def snapshot(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with cumulative-style percentiles.

    ``bounds`` are inclusive upper edges; one overflow bucket catches
    everything beyond the last bound.  ``percentile`` answers from the
    bucket edges (the upper edge of the bucket the rank falls in), so it
    is conservative — never smaller than the true percentile — and
    stable across runs, which is what the bench regression differ wants.
    """

    __slots__ = ("name", "bounds", "_counts", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(
        self, name: str, bounds: Sequence[float] = LATENCY_BUCKETS_S
    ) -> None:
        ordered = tuple(sorted(float(b) for b in bounds))
        if not ordered:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.bounds = ordered
        self._counts = [0] * (len(ordered) + 1)  # +1 = overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def percentile(self, q: float) -> float:
        """Upper bucket edge covering the ``q`` quantile (0..1); the
        observed maximum for ranks landing in the overflow bucket.
        Returns ``nan`` with no observations."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            total = self._count
            if total == 0:
                return float("nan")
            rank = max(1, int(q * total + 0.5))
            seen = 0
            for index, count in enumerate(self._counts):
                seen += count
                if seen >= rank:
                    if index < len(self.bounds):
                        return self.bounds[index]
                    return self._max
            return self._max

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = float("inf")
            self._max = float("-inf")

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            counts = list(self._counts)
            count = self._count
            total = self._sum
            vmin = self._min
            vmax = self._max
        record: Dict[str, object] = {
            "count": count,
            "sum": total,
            "min": vmin if count else None,
            "max": vmax if count else None,
            "buckets": [
                {"le": bound, "count": counts[i]}
                for i, bound in enumerate(self.bounds)
            ]
            + [{"le": None, "count": counts[-1]}],
        }
        if count:
            record["p50"] = self.percentile(0.50)
            record["p90"] = self.percentile(0.90)
            record["p99"] = self.percentile(0.99)
        return record


Metric = Union[Counter, Gauge, Histogram]

M = TypeVar("M", Counter, Gauge, Histogram)


class MetricsRegistry:
    """Named instruments with get-or-create access and one snapshot.

    ``counter``/``gauge``/``histogram`` return the existing instrument
    for a name or create it; asking for a name under a different kind
    raises, so typos surface instead of forking the series.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(
        self, name: str, kind: Type[M], factory: Callable[[], M]
    ) -> M:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise ValueError(
                    f"metric {name!r} is a {type(metric).__name__}, "
                    f"not a {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        return self._get_or_create(
            name,
            Histogram,
            lambda: Histogram(name, bounds if bounds is not None else LATENCY_BUCKETS_S),
        )

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def instruments(self) -> Dict[str, Metric]:
        """Name -> instrument snapshot of the registry (a shallow copy;
        the instruments themselves are the live, thread-safe objects).
        This is what the OpenMetrics renderer iterates."""
        with self._lock:
            return dict(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """All instruments as one JSON-friendly dict, grouped by kind."""
        with self._lock:
            items = list(self._metrics.items())
        out: Dict[str, Dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for name, metric in sorted(items):
            if isinstance(metric, Counter):
                out["counters"][name] = metric.snapshot()
            elif isinstance(metric, Gauge):
                out["gauges"][name] = metric.snapshot()
            else:
                out["histograms"][name] = metric.snapshot()
        return out

    def reset(self) -> None:
        """Zero every instrument (registrations and bucket layouts stay)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()


_global_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The active context's registry, else the process-wide default."""
    context = _CONTEXT.get()
    if context is not None:
        return context.registry
    return _global_registry

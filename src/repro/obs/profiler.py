"""Zero-dependency sampling profiler with per-query attribution.

A daemon thread wakes ``rate_hz`` times a second, snapshots every
thread's stack via :func:`sys._current_frames`, and folds each stack
into two aggregates: a **process-wide** call tree, and a **per-query**
tree keyed by the owning in-flight query.  Cross-thread attribution is
the interesting part — contextvars cannot be read from another thread,
so the :class:`~repro.obs.queries.QueryRegistry` keeps an explicit
``thread ident -> ActiveQuery`` map (bound by ``track`` for the thread
running the query) that the sampler joins against.

Two operating modes:

* **always-on** (:data:`DEFAULT_RATE_HZ`, ~19 Hz): started by
  ``repro-gis serve``; cheap enough that the modeled overhead stays
  under 3% of process time (gated in ``benchmarks/test_bench_obs.py``).
  Feeds the hot-stack summaries embedded in slow-query records and
  flight-recorder crash dumps.
* **on-demand capture** (:func:`capture`, ~99 Hz): a bounded
  start/sleep/stop burst behind ``GET /debug/profile?seconds=N`` and
  ``repro-gis profile``.

Exports are the two de-facto standard formats: collapsed-stack text
(``frame;frame;frame count`` — FlameGraph input) and speedscope JSON.
Frame labels are ``<module stem>.<function>`` (``kernels.range_mask``),
which keeps the output readable and the tests assertable.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from collections import OrderedDict
from types import FrameType
from typing import Any, Dict, List, Optional, Tuple

from .metrics import MetricsRegistry, get_registry
from .queries import QueryRegistry, get_queries
from .timing import now

__all__ = [
    "CAPTURE_RATE_HZ",
    "DEFAULT_RATE_HZ",
    "Profile",
    "SamplingProfiler",
    "StackAggregate",
    "capture",
    "get_profiler",
    "maybe_profiler",
]

#: Always-on sampling rate.  Deliberately off the common 10/20/100 Hz
#: grid so the sampler does not phase-lock with periodic work.
DEFAULT_RATE_HZ = 19.0

#: On-demand capture rate (``/debug/profile``, ``repro-gis profile``).
CAPTURE_RATE_HZ = 99.0

#: Stacks deeper than this are truncated at the root end.
MAX_STACK_DEPTH = 64

#: Per-query aggregates kept live (LRU-evicted beyond this).
MAX_TRACKED_QUERIES = 32

SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def _frame_label(frame: FrameType) -> str:
    code = frame.f_code
    stem = os.path.splitext(os.path.basename(code.co_filename))[0]
    return f"{stem}.{code.co_name}"


def _unwind(frame: Optional[FrameType]) -> Tuple[str, ...]:
    """Frame labels root→leaf for one thread's current stack."""
    stack: List[str] = []
    current = frame
    while current is not None and len(stack) < MAX_STACK_DEPTH:
        stack.append(_frame_label(current))
        current = current.f_back
    stack.reverse()
    return tuple(stack)


class StackAggregate:
    """Sample counts folded by identical stack (root→leaf tuples).

    Not locked — owners synchronise access (the profiler mutates only
    under its own lock and hands out copies).
    """

    __slots__ = ("counts", "samples")

    def __init__(self) -> None:
        self.counts: Dict[Tuple[str, ...], int] = {}
        self.samples = 0

    def add(self, stack: Tuple[str, ...], count: int = 1) -> None:
        self.counts[stack] = self.counts.get(stack, 0) + count
        self.samples += count

    def copy(self) -> "StackAggregate":
        clone = StackAggregate()
        clone.counts = dict(self.counts)
        clone.samples = self.samples
        return clone

    def hot_frames(self, top: int = 10) -> List[Tuple[str, int]]:
        """Leaf (self-time) frames ranked by sample count."""
        leaves: Dict[str, int] = {}
        for stack, count in self.counts.items():
            leaf = stack[-1]
            leaves[leaf] = leaves.get(leaf, 0) + count
        ranked = sorted(leaves.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:top]

    def hot_stacks(self, top: int = 5) -> List[Tuple[Tuple[str, ...], int]]:
        ranked = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:top]

    def collapsed(self) -> str:
        """FlameGraph collapsed-stack text: ``frame;frame count`` lines."""
        lines = [
            ";".join(stack) + f" {count}"
            for stack, count in sorted(self.counts.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def speedscope(self, name: str, rate_hz: float) -> Dict[str, Any]:
        """Speedscope ``sampled`` profile; weights are seconds."""
        frames: List[Dict[str, str]] = []
        index: Dict[str, int] = {}
        samples: List[List[int]] = []
        weights: List[float] = []
        seconds_per_sample = 1.0 / rate_hz if rate_hz > 0 else 0.0
        for stack, count in sorted(self.counts.items()):
            row: List[int] = []
            for label in stack:
                slot = index.get(label)
                if slot is None:
                    slot = len(frames)
                    index[label] = slot
                    frames.append({"name": label})
                row.append(slot)
            samples.append(row)
            weights.append(count * seconds_per_sample)
        total = sum(weights)
        return {
            "$schema": SPEEDSCOPE_SCHEMA,
            "name": name,
            "exporter": "repro-gis",
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "seconds",
                    "startValue": 0,
                    "endValue": total,
                    "samples": samples,
                    "weights": weights,
                }
            ],
        }

    def summary(self, top: int = 5) -> Dict[str, Any]:
        """Compact hot-stack digest for slowlog / flight-dump embedding."""
        return {
            "samples": self.samples,
            "hot_frames": [
                {"frame": frame, "samples": count}
                for frame, count in self.hot_frames(top)
            ],
            "hot_stacks": [
                {"stack": list(stack), "samples": count}
                for stack, count in self.hot_stacks(top)
            ],
        }


class Profile:
    """An immutable point-in-time export of a profiler's aggregates."""

    __slots__ = ("aggregate", "per_query", "rate_hz", "seconds")

    def __init__(
        self,
        aggregate: StackAggregate,
        per_query: Dict[str, StackAggregate],
        rate_hz: float,
        seconds: float,
    ) -> None:
        self.aggregate = aggregate
        self.per_query = per_query
        self.rate_hz = rate_hz
        self.seconds = seconds

    def collapsed(self) -> str:
        return self.aggregate.collapsed()

    def speedscope(self, name: str = "repro-gis profile") -> Dict[str, Any]:
        return self.aggregate.speedscope(name, self.rate_hz)

    def speedscope_json(self, name: str = "repro-gis profile") -> str:
        return json.dumps(self.speedscope(name)) + "\n"

    def hot_frames(self, top: int = 10) -> List[Tuple[str, int]]:
        return self.aggregate.hot_frames(top)

    def summary(self, top: int = 5) -> Dict[str, Any]:
        digest = self.aggregate.summary(top)
        digest["rate_hz"] = self.rate_hz
        digest["seconds"] = round(self.seconds, 3)
        return digest


class SamplingProfiler:
    """The sampler: a daemon thread folding stacks into aggregates.

    ``sample_once`` is also callable directly (no thread) — the bench
    overhead gate measures a sweep's cost that way.
    """

    def __init__(
        self,
        rate_hz: float = DEFAULT_RATE_HZ,
        queries: Optional[QueryRegistry] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if rate_hz <= 0:
            raise ValueError(f"rate_hz must be positive, got {rate_hz}")
        self.rate_hz = float(rate_hz)
        self._queries = queries
        self._registry = registry
        self._lock = threading.Lock()
        self._process = StackAggregate()
        self._per_query: "OrderedDict[str, StackAggregate]" = OrderedDict()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._started_at: Optional[float] = None
        self._elapsed = 0.0

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    @property
    def queries(self) -> QueryRegistry:
        return self._queries if self._queries is not None else get_queries()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self.running:
            return
        self._stop.clear()
        self._started_at = now()
        self._thread = threading.Thread(
            target=self._loop, name="repro-profiler", daemon=True
        )
        self._thread.start()
        registry = self.registry
        registry.gauge("profiler.running").set(1.0)
        registry.gauge("profiler.rate_hz").set(self.rate_hz)

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None
        if self._started_at is not None:
            self._elapsed += now() - self._started_at
            self._started_at = None
        self.registry.gauge("profiler.running").set(0.0)

    def _loop(self) -> None:
        interval = 1.0 / self.rate_hz
        while not self._stop.wait(interval):
            try:
                self.sample_once()
            except Exception:
                # Sampling must never take the process down; only
                # ``Exception`` — injected crashes pass through.
                continue

    # -- sampling -----------------------------------------------------------

    def sample_once(self) -> int:
        """One sweep over every live thread; returns stacks recorded."""
        t0 = now()
        frames = sys._current_frames()
        owners = self.queries.thread_map()
        sampler = self._thread
        skip_idents = {threading.get_ident()}
        if sampler is not None and sampler.ident is not None:
            skip_idents.add(sampler.ident)
        recorded = 0
        with self._lock:
            for ident, frame in frames.items():
                if ident in skip_idents:
                    continue
                stack = _unwind(frame)
                if not stack:
                    continue
                # Threads parked inside the profiler itself (a capture
                # caller sleeping, another sampler) are measurement
                # scaffolding, not workload.
                if any(label.startswith("profiler.") for label in stack):
                    continue
                self._process.add(stack)
                recorded += 1
                owner = owners.get(ident)
                if owner is not None:
                    agg = self._per_query.get(owner.query_id)
                    if agg is None:
                        agg = StackAggregate()
                        self._per_query[owner.query_id] = agg
                        while len(self._per_query) > MAX_TRACKED_QUERIES:
                            self._per_query.popitem(last=False)
                    else:
                        self._per_query.move_to_end(owner.query_id)
                    agg.add(stack)
        registry = self.registry
        registry.counter("profiler.sweeps").inc()
        if recorded:
            registry.counter("profiler.samples").inc(recorded)
        registry.histogram("profiler.sweep_seconds").observe(now() - t0)
        return recorded

    # -- views --------------------------------------------------------------

    def _seconds(self) -> float:
        elapsed = self._elapsed
        if self._started_at is not None:
            elapsed += now() - self._started_at
        return elapsed

    def profile(self) -> Profile:
        """Snapshot the current aggregates into an immutable export."""
        with self._lock:
            aggregate = self._process.copy()
            per_query = {
                query_id: agg.copy()
                for query_id, agg in self._per_query.items()
            }
        return Profile(aggregate, per_query, self.rate_hz, self._seconds())

    def hot_summary(self, top: int = 5) -> Optional[Dict[str, Any]]:
        """Process-wide hot-stack digest, or ``None`` with no samples."""
        with self._lock:
            if self._process.samples == 0:
                return None
            aggregate = self._process.copy()
        digest = aggregate.summary(top)
        digest["rate_hz"] = self.rate_hz
        return digest

    def query_summary(
        self, query_id: Optional[str], top: int = 5
    ) -> Optional[Dict[str, Any]]:
        """Hot-stack digest for one query, or ``None`` if never sampled."""
        if query_id is None:
            return None
        with self._lock:
            agg = self._per_query.get(query_id)
            if agg is None or agg.samples == 0:
                return None
            agg = agg.copy()
        digest = agg.summary(top)
        digest["rate_hz"] = self.rate_hz
        return digest


def capture(
    seconds: float = 2.0,
    rate_hz: float = CAPTURE_RATE_HZ,
    queries: Optional[QueryRegistry] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Profile:
    """Blocking on-demand capture: sample for ``seconds``, return the profile.

    Runs its own short-lived :class:`SamplingProfiler`, independent of
    (and concurrent-safe with) the always-on one.  The caller's thread
    parks inside this function for the duration; sweeps filter frames
    from this module, so the wait itself never shows up in the profile.
    """
    profiler = SamplingProfiler(
        rate_hz=rate_hz, queries=queries, registry=registry
    )
    profiler.start()
    try:
        threading.Event().wait(max(0.0, seconds))
    finally:
        profiler.stop()
    profiler.registry.counter("profiler.captures").inc()
    return profiler.profile()


_global_profiler: Optional[SamplingProfiler] = None
_profiler_lock = threading.Lock()


def get_profiler(rate_hz: float = DEFAULT_RATE_HZ) -> SamplingProfiler:
    """The process-wide always-on profiler, created on first call.

    Process-wide (not per-ObsContext) because ``sys._current_frames``
    sees every thread in the process — two samplers would double the
    overhead for the same information.
    """
    global _global_profiler
    with _profiler_lock:
        if _global_profiler is None:
            _global_profiler = SamplingProfiler(rate_hz=rate_hz)
        return _global_profiler


def maybe_profiler() -> Optional[SamplingProfiler]:
    """The process profiler if one exists — never creates.

    The flight recorder and slow-query log use this so that merely
    crashing or being slow does not spin up sampling.
    """
    return _global_profiler


def reset_profiler() -> None:
    """Drop the process profiler (test isolation)."""
    global _global_profiler
    with _profiler_lock:
        if _global_profiler is not None:
            _global_profiler.stop()
        _global_profiler = None

"""Observability overhead — tracing must be free when it is off.

The span sites sit on the hottest paths in the engine (per phase of the
two-step query and per operator), so the disabled cost has to be one
attribute check.  The smoke test counts the span sites an E4-style
query actually crosses (by running it once with tracing on), measures
the per-site disabled cost directly, and asserts the product stays
under 2% of the query's wall-clock time.

The always-on sampling profiler gets the same treatment: its entire
steady-state cost is ``rate_hz`` sweeps per second on its own thread,
so measuring one sweep against a live packed-scan workload and
multiplying by :data:`~repro.obs.profiler.DEFAULT_RATE_HZ` models the
CPU fraction it can ever consume — gated under 3%.
"""

import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

from repro.bench.harness import best_of
from repro.bench.workloads import standard_queries
from repro.engine.compressed import CompressedColumn
from repro.engine.kernels import RangePredicate
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import DEFAULT_RATE_HZ, SamplingProfiler
from repro.obs.queries import QueryRegistry
from repro.obs.trace import get_tracer, maybe_span

#: The budget from the issue: tracing disabled must cost < 2%.
OVERHEAD_BUDGET = 0.02

#: The always-on profiler (serve mode's default) must cost < 3%.
PROFILER_BUDGET = 0.03


def _noop_span_seconds(iterations: int = 20_000) -> float:
    """Mean cost of one disabled maybe_span() enter/exit + set()."""
    t0 = time.perf_counter()
    for _ in range(iterations):
        with maybe_span("bench.noop", key="value") as span:
            span.set(rows_out=1)
    return (time.perf_counter() - t0) / iterations


def _query(flat_db, spec):
    return flat_db.spatial_select(
        "ahn2", spec.geometry, spec.predicate, spec.distance
    )


def test_disabled_tracing_overhead(flat_db, extent):
    tracer = get_tracer()
    was_enabled = tracer.enabled
    spec = next(
        s for s in standard_queries(extent, seed=3) if s.name == "rect_large"
    )
    try:
        # Span sites this query crosses, counted from a traced run.
        with tracer.capture() as spans:
            _query(flat_db, spec)
        n_spans = len(spans)

        tracer.disable()
        query_seconds = best_of(lambda: _query(flat_db, spec), repeats=5)
        span_seconds = min(_noop_span_seconds() for _ in range(5))
    finally:
        if was_enabled:
            tracer.enable()
        else:
            tracer.disable()

    overhead = n_spans * span_seconds
    assert overhead < OVERHEAD_BUDGET * query_seconds, (
        f"disabled tracing would add {overhead * 1e6:.1f}us per query "
        f"({n_spans} span sites x {span_seconds * 1e9:.0f}ns = "
        f"{overhead / query_seconds * 100:.2f}% of "
        f"{query_seconds * 1e3:.3f}ms), budget is "
        f"{OVERHEAD_BUDGET * 100:.0f}%"
    )


def _sweep_seconds(profiler, iterations=100):
    """Mean cost of one full sample sweep over the live threads."""
    t0 = time.perf_counter()
    for _ in range(iterations):
        profiler.sample_once()
    return (time.perf_counter() - t0) / iterations


def test_always_on_profiler_overhead(cloud):
    """The 19 Hz profiler's modeled cost on a packed-scan workload.

    The sampler's steady state is one sweep per tick, nothing between
    ticks, so sweep cost x DEFAULT_RATE_HZ bounds the CPU fraction it
    can consume.  Sweeps are measured against a thread actually running
    the packed range scan, so ``sys._current_frames`` sees the bench's
    realistic stack depth, and the same sweeps double as the smoke check
    that the packed kernels are what the profiler attributes time to.
    """
    column = CompressedColumn.from_values(
        "x", np.asarray(cloud["x"] * 100, dtype=np.int64), segment_rows=8192
    )
    lo, hi = np.percentile(np.asarray(cloud["x"] * 100), [40, 60])
    profiler = SamplingProfiler(
        rate_hz=DEFAULT_RATE_HZ,
        queries=QueryRegistry(),
        registry=MetricsRegistry(),
    )
    stop = threading.Event()

    def _scan_loop():
        while not stop.is_set():
            column.select(RangePredicate(int(lo), int(hi)))

    thread = threading.Thread(target=_scan_loop, daemon=True)
    thread.start()
    try:
        sweep_seconds = min(_sweep_seconds(profiler) for _ in range(5))
    finally:
        stop.set()
        thread.join(timeout=5.0)

    overhead = sweep_seconds * DEFAULT_RATE_HZ  # CPU fraction per second
    assert overhead < PROFILER_BUDGET, (
        f"always-on profiling would consume {overhead * 100:.2f}% of the "
        f"process ({DEFAULT_RATE_HZ:g} Hz x {sweep_seconds * 1e6:.1f}us "
        f"per sweep), budget is {PROFILER_BUDGET * 100:.0f}%"
    )
    # The sweeps saw the workload, not just the budget: packed-scan
    # frames dominate the self time captured.  Self time is credited to
    # each stack's innermost frame outside numpy, so time spent in a
    # numpy wrapper the kernels call counts for the kernel that called it.
    profile = profiler.profile()
    assert profile.aggregate.samples > 0
    numpy_modules = {p.stem for p in Path(np.__file__).parent.rglob("*.py")}
    self_time = Counter()
    for stack, count in profile.aggregate.counts.items():
        own = [f for f in stack if f.split(".", 1)[0] not in numpy_modules]
        if own:
            self_time[own[-1]] += count
    scan_layers = ("kernels.", "compressed.", "compression.")
    top = self_time.most_common(5)
    assert any(frame.startswith(scan_layers) for frame, _ in top), top


def test_enabled_tracing_records_query_tree(flat_db, extent):
    tracer = get_tracer()
    spec = next(
        s for s in standard_queries(extent, seed=3) if s.name == "rect_medium"
    )
    with tracer.capture() as spans:
        _query(flat_db, spec)
    names = {span.name for span in spans}
    assert "query.spatial" in names
    assert "query.filter" in names

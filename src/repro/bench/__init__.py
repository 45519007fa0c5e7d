"""Benchmark harness: timers, report tables, and the standard workloads."""

from .harness import Report, best_of, format_table, human_seconds, speedup, timer
from .workloads import (
    QuerySpec,
    circle_polygon,
    irregular_polygon,
    selectivity_sweep,
    standard_queries,
)

__all__ = [
    "QuerySpec",
    "Report",
    "best_of",
    "circle_polygon",
    "format_table",
    "human_seconds",
    "irregular_polygon",
    "selectivity_sweep",
    "speedup",
    "standard_queries",
    "timer",
]

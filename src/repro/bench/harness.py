"""Experiment harness: timing, table formatting, result collection.

The benchmarks under ``benchmarks/`` use this module to time the systems
and to print paper-style result tables (one per experiment in DESIGN.md's
index).  Tables also land in ``bench_results/*.txt`` when the
``REPRO_BENCH_DIR`` environment variable is set, which is how
EXPERIMENTS.md's numbers were produced.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Sequence


@dataclass
class Timing:
    """One timed measurement."""

    seconds: float


@contextmanager
def timer() -> Iterator[Timing]:
    """Context manager measuring wall-clock seconds::

        with timer() as t:
            work()
        print(t.seconds)
    """
    timing = Timing(seconds=0.0)
    start = time.perf_counter()
    try:
        yield timing
    finally:
        timing.seconds = time.perf_counter() - start


def best_of(fn, repeats: int = 3) -> float:
    """Best wall-clock seconds over ``repeats`` runs of ``fn``."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Fixed-width ASCII table (the harness's output format)."""
    cells = [[str(h) for h in headers]] + [
        [_fmt_cell(v) for v in row] for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        lines.append(
            "  ".join(value.rjust(widths[i]) for i, value in enumerate(row))
        )
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt_cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


@dataclass
class Report:
    """A named experiment report: title, table, free-form notes."""

    experiment: str
    title: str
    headers: Sequence[str] = ()
    rows: List[Sequence[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        self.rows.append(values)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        parts = [f"== {self.experiment}: {self.title} =="]
        if self.rows:
            parts.append(format_table(self.headers, self.rows))
        parts.extend(self.notes)
        return "\n".join(parts)

    def emit(self) -> str:
        """Print the report; persist it when REPRO_BENCH_DIR is set."""
        text = self.render()
        print("\n" + text + "\n")
        out_dir = os.environ.get("REPRO_BENCH_DIR")
        if out_dir:
            directory = Path(out_dir)
            directory.mkdir(parents=True, exist_ok=True)
            (directory / f"{self.experiment}.txt").write_text(text + "\n")
        return text


def human_seconds(seconds: float) -> str:
    """Render projected durations ('18.3 hours', '6.2 days').

    Non-finite inputs — e.g. a projection from a run measured at 0
    seconds — render as "n/a" instead of "inf".
    """
    if seconds != seconds or seconds in (float("inf"), float("-inf")):
        return "n/a"
    if seconds < 120:
        return f"{seconds:.1f} s"
    if seconds < 7200:
        return f"{seconds / 60:.1f} min"
    if seconds < 2 * 86400:
        return f"{seconds / 3600:.1f} hours"
    return f"{seconds / 86400:.1f} days"

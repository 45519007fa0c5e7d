"""Shared plumbing of the end-to-end benchmark: paths, clocks, statistics,
the machine block and the benchmark-owned span list.

Everything here measures the program *from outside*: nothing under
``src/`` knows this package exists.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
CACHE = HERE / ".cache"
RESULTS = HERE / "results"

TABLE = "points"
DEFAULT_POINTS = 10_000_000
#: Untimed operations run before the timed window of every workload.
WARMUP_OPS = 20
#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 2
#: Ops replayed layer by layer in a ``--trace`` run.
PROBE_OPS = 50

now = time.perf_counter


def require_source_tree() -> None:
    """Exit non-zero unless the program under test is next to us.

    The benchmark measures ``src/repro``; a directory holding only the
    benchmark has nothing to measure and must not print a result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmark needs the program under test at {SRC}/repro")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


#: glibc malloc settings pinned for every measured process.  By default
#: glibc moves its mmap threshold whenever a big array is freed, so the
#: same query costs 22 ms or 50 ms depending on what ran before it
#: (arrays under the threshold are recycled from the heap, arrays over
#: it are mapped afresh and page-faulted in, which this microVM makes
#: as dear as the query itself).  Pinned at glibc's own ceiling, a
#: layer replay costs what the whole call paid for it.
MMAP_THRESHOLD = 32 * 1024 * 1024
TRIM_THRESHOLD = 1024 * 1024 * 1024


def steady_process() -> None:
    """Pin the allocator and numpy's huge-page advice for this process
    and its children.  Call before numpy is imported.

    First-touch of 2 MiB pages made ``PointCloudDB.load`` swing
    1.9-7.4 s between identical runs here; with numpy's huge-page advice
    off it holds 2.7-3.8 s.
    """
    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", str(MMAP_THRESHOLD))
    os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", str(TRIM_THRESHOLD))
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(-3, int(os.environ["MALLOC_MMAP_THRESHOLD_"]))  # M_MMAP_THRESHOLD
        libc.mallopt(-1, int(os.environ["MALLOC_TRIM_THRESHOLD_"]))  # M_TRIM_THRESHOLD
    except (OSError, AttributeError):
        pass  # not glibc: nothing to pin


def child_env() -> Dict[str, str]:
    """Environment for the processes the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # SIGTERM makes the CLI's flight recorder dump into its directory.
    env["REPRO_FLIGHT_DIR"] = str(RESULTS / "flight")
    return env


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: ``ceil(q*n)``-th smallest value, so a
    p90 over n samples always has ``n - ceil(0.9 n)`` samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def metric(value: float, unit: str, samples: int = 1) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def latency_metrics(
    latencies: Sequence[float], wall: float, rows: int
) -> Dict[str, Dict[str, Any]]:
    """The four end-to-end numbers every timed loop yields."""
    n = len(latencies)
    return {
        "op_p50_ms": metric(median(latencies) * 1e3, "ms", n),
        "op_p90_ms": metric(percentile(latencies, 0.9) * 1e3, "ms", n),
        "ops_per_s": metric(n / wall, "1/s", n),
        "rows_per_s": metric(rows / wall, "1/s", n),
    }


# -- the process and the machine ---------------------------------------------


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of a process in MiB (this one when ``pid`` is None)."""
    status = Path(f"/proc/{pid if pid is not None else 'self'}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {status}")


def dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def machine_block(seed: int, points: int) -> Dict[str, Any]:
    """What a reader needs to interpret the numbers beside it."""
    import numpy as np

    from repro.engine.parallel import hardware_threads

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "hardware_threads": hardware_threads(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "load_1min": os.getloadavg()[0],
        "git_commit": commit or "unknown",
        "seed": seed,
        "points": points,
    }


# -- spans --------------------------------------------------------------------


class Spans:
    """The benchmark's own span list: name, start, end, parent, op id.

    Kept in memory and written out once at exit.  A span's *self time*
    is its duration minus the part its children cover.
    """

    def __init__(self) -> None:
        self.rows: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: int, parent: Optional[int] = None) -> Iterator[int]:
        """Record one span and yield its index.

        ``parent`` attaches a *replayed* layer call to the whole call it
        re-enacts, which has already ended; otherwise the parent is the
        span open on the stack.
        """
        if parent is None and self._stack:
            parent = self._stack[-1]
        row: Dict[str, Any] = {
            "name": name,
            "op": op,
            "parent": parent,
            "start": now(),
            "end": None,
        }
        index = len(self.rows)
        self.rows.append(row)
        self._stack.append(index)
        try:
            yield index
        finally:
            row["end"] = now()
            self._stack.pop()

    def add(self, name: str, op: int, seconds: float, parent: int) -> None:
        """A child whose duration the program reported itself (for
        example ``Session.last_profile``), laid at its parent's start."""
        start = self.rows[parent]["start"]
        self.rows.append(
            {
                "name": name,
                "op": op,
                "parent": parent,
                "start": start,
                "end": start + seconds,
            }
        )

    def duration(self, index: int) -> float:
        row = self.rows[index]
        return row["end"] - row["start"]

    def _child_seconds(self) -> Dict[int, float]:
        """Seconds covered by children, per parent span index."""
        out: Dict[int, float] = {}
        for row in self.rows:
            if row["parent"] is not None:
                out[row["parent"]] = out.get(row["parent"], 0.0) + row["end"] - row["start"]
        return out

    def coverage(self, whole: str, ops_below: Optional[int] = None) -> float:
        """Σ children / Σ duration over the spans called ``whole``
        (those of op ids below ``ops_below`` when given)."""
        children = self._child_seconds()
        total = covered = 0.0
        for index, row in enumerate(self.rows):
            if row["name"] == whole and (ops_below is None or row["op"] < ops_below):
                total += row["end"] - row["start"]
                covered += children.get(index, 0.0)
        return covered / total if total else 0.0

    def self_times(self) -> Dict[str, float]:
        """Total self seconds per span name."""
        children = self._child_seconds()
        out: Dict[str, float] = {}
        for index, row in enumerate(self.rows):
            own = row["end"] - row["start"] - children.get(index, 0.0)
            out[row["name"]] = out.get(row["name"], 0.0) + own
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.rows}) + "\n")

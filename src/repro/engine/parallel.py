"""The machine's usable hardware threads.

Execution is serial: every scan, imprint build and refine runs on the
caller's thread (docs/architecture.md, "Serial execution", records
why).  This count is kept for the machine block that benchmark reports
print next to their numbers.
"""

from __future__ import annotations

import os


def hardware_threads() -> int:
    """Usable hardware threads (affinity-aware where the OS exposes it)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1

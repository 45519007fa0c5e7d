"""The clock hot-path code reads.

Hot-path modules are barred (by the ``span-discipline`` rule of
``repro-gis check``) from calling ``time.perf_counter`` directly: raw
clock reads scatter timing the tracer can never attribute, and make it
ambiguous which clock a stat was measured on.  They use this helper
instead — same monotonic clock the tracer's spans use, one obvious
place to swap it out.
"""

from __future__ import annotations

import time


def now() -> float:
    """The monotonic timestamp spans are measured on (seconds)."""
    return time.perf_counter()


"""The static-analysis framework: rules, baseline, reporters, CLI.

Each rule gets positive + negative fixture snippets; the fixture trees
mirror the real layout (``repro/...``) so the default configuration's
module designations (hot paths, lock modules, the durable allowlist)
apply to them exactly as they do to the real tree.  R1, R5, R8 and R11
also carry code from this repo's history that they flagged, next to the
form that fixed it; the other rules never flagged real code, so their
fixtures are synthetic.
"""

from __future__ import annotations

import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis import run_check
from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.engine import Config, Project
from repro.analysis.main import main as check_main
from repro.analysis.registry import all_rules
from repro.analysis.report import to_json, to_text
from repro.analysis.rules.struct_format import field_count

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def make_tree(tmp_path, files):
    """Materialise ``{relpath: source}`` under ``tmp_path`` and return
    the scan root (the ``repro`` directory)."""
    root = tmp_path / "repro"
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    root.mkdir(exist_ok=True)
    return root


def check(tmp_path, files, **kwargs):
    root = make_tree(tmp_path, files)
    return run_check(root, baseline=Baseline(), **kwargs)


def rule_ids(report):
    return sorted({f.rule for f in report.findings})


# -- R1 durable-write ----------------------------------------------------------


class TestDurableWrite:
    def test_raw_binary_open_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {"repro/x.py": 'fh = open("out.col", "wb")\n'},
            rule_ids=["durable-write"],
        )
        assert len(report.findings) == 1
        assert report.findings[0].rule == "durable-write"
        assert report.findings[0].line == 1

    def test_write_text_modes_and_renames_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/x.py": (
                    'import os, json\n'
                    'open("a", "w")\n'
                    'open("b", mode="ab")\n'
                    'os.replace("a", "b")\n'
                    'json.dump({}, open("c"))\n'
                )
            },
            rule_ids=["durable-write"],
        )
        assert len(report.findings) == 4

    def test_reads_and_durable_module_exempt(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/x.py": 'data = open("a.col", "rb").read()\nopen("b")\n',
                "repro/engine/durable.py": (
                    'import os\n'
                    'fh = open("t", "wb")\n'
                    'os.replace("t", "a")\n'
                ),
            },
            rule_ids=["durable-write"],
        )
        assert report.findings == []


# -- R2 crash-transparency -----------------------------------------------------


class TestCrashTransparency:
    def test_swallowing_handlers_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/x.py": """
                def a():
                    try:
                        work()
                    except:
                        pass

                def b():
                    try:
                        work()
                    except BaseException:
                        return None
                """
            },
            rule_ids=["crash-transparency"],
        )
        assert len(report.findings) == 2

    def test_reraising_and_narrow_handlers_pass(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/x.py": """
                def a():
                    try:
                        work()
                    except BaseException:
                        cleanup()
                        raise

                def b():
                    try:
                        work()
                    except Exception:
                        pass

                def c():
                    try:
                        work()
                    except (ValueError, BaseException) as exc:
                        raise RuntimeError("wrapped") from exc
                """
            },
            rule_ids=["crash-transparency"],
        )
        assert report.findings == []

    def test_raise_inside_nested_function_does_not_count(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/x.py": """
                def a():
                    try:
                        work()
                    except BaseException:
                        def later():
                            raise RuntimeError("never runs now")
                        keep(later)
                """
            },
            rule_ids=["crash-transparency"],
        )
        assert len(report.findings) == 1


# -- R3 lock-discipline --------------------------------------------------------

# Default config designates repro/obs/metrics.py as a lock module; the
# fixtures reuse that path so the stock `repro-gis check` sees them.
LOCKED_CLASS_BAD = """
import threading

class Buffer:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = []
        self.count = 0

    def add(self, item):
        with self._lock:
            self._items.append(item)
            self.count += 1

    def sneak(self, item):
        self._items.append(item)
"""

LOCKED_CLASS_GOOD = LOCKED_CLASS_BAD.replace(
    "    def sneak(self, item):\n        self._items.append(item)\n",
    "    def sneak(self, item):\n"
    "        with self._lock:\n"
    "            self._items.append(item)\n",
)

LOCK_ORDER_CYCLE = """
import threading

A = threading.Lock()
B = threading.Lock()

def one():
    with A:
        with B:
            pass

def two():
    with B:
        with A:
            pass
"""


class TestLockDiscipline:
    def test_unguarded_write_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {"repro/obs/metrics.py": LOCKED_CLASS_BAD},
            rule_ids=["lock-discipline"],
        )
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert "Buffer._items" in finding.message
        assert "sneak" in finding.message

    def test_guarded_writes_pass(self, tmp_path):
        report = check(
            tmp_path,
            {"repro/obs/metrics.py": LOCKED_CLASS_GOOD},
            rule_ids=["lock-discipline"],
        )
        assert report.findings == []

    def test_init_writes_exempt(self, tmp_path):
        # Construction happens before the object is shared.
        report = check(
            tmp_path,
            {
                "repro/obs/metrics.py": """
                import threading

                class Plain:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.value = 0

                    def bump(self):
                        with self._lock:
                            self.value += 1
                """
            },
            rule_ids=["lock-discipline"],
        )
        assert report.findings == []

    def test_lock_order_cycle_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {"repro/obs/metrics.py": LOCK_ORDER_CYCLE},
            rule_ids=["lock-discipline"],
        )
        assert len(report.findings) == 1
        assert "cycle" in report.findings[0].message

    def test_consistent_lock_order_passes(self, tmp_path):
        consistent = LOCK_ORDER_CYCLE.replace(
            "def two():\n    with B:\n        with A:",
            "def two():\n    with A:\n        with B:",
        )
        report = check(
            tmp_path,
            {"repro/obs/metrics.py": consistent},
            rule_ids=["lock-discipline"],
        )
        assert report.findings == []

    def test_non_designated_module_ignored(self, tmp_path):
        report = check(
            tmp_path,
            {"repro/gis/whatever.py": LOCKED_CLASS_BAD},
            rule_ids=["lock-discipline"],
        )
        assert report.findings == []


# -- R4 struct-format ----------------------------------------------------------


class TestStructFormat:
    def test_size_constant_drift_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/x.py": """
                import struct
                HEADER_SIZE = 7
                _S = struct.Struct("<4sH")
                assert _S.size == HEADER_SIZE
                """
            },
            rule_ids=["struct-format"],
        )
        assert len(report.findings) == 1
        assert "drifted" in report.findings[0].message

    def test_matching_size_passes(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/x.py": """
                import struct
                HEADER_SIZE = 6
                _S = struct.Struct("<4sH")
                assert _S.size == HEADER_SIZE
                """
            },
            rule_ids=["struct-format"],
        )
        assert report.findings == []

    def test_pack_arity_mismatch_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/x.py": """
                import struct
                _S = struct.Struct("<4sHH")
                raw = _S.pack(b"MAGI", 1)
                """
            },
            rule_ids=["struct-format"],
        )
        assert len(report.findings) == 1
        assert "2 values" in report.findings[0].message
        assert "3 fields" in report.findings[0].message

    def test_unpack_arity_mismatch_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/x.py": """
                import struct
                _S = struct.Struct("<4sHH")
                magic, version = _S.unpack(b"x" * 8)
                """
            },
            rule_ids=["struct-format"],
        )
        assert len(report.findings) == 1

    def test_invalid_format_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/x.py": """
                import struct
                _S = struct.Struct("<4sZ")
                """
            },
            rule_ids=["struct-format"],
        )
        assert len(report.findings) == 1
        assert "invalid struct format" in report.findings[0].message

    def test_correct_usage_passes(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/x.py": """
                import struct
                _S = struct.Struct("<4sHHQ")
                raw = _S.pack(b"MAGI", 2, 3, 4)
                magic, version, kind, rows = _S.unpack(raw)
                """
            },
            rule_ids=["struct-format"],
        )
        assert report.findings == []

    def test_field_count(self):
        assert field_count("<4sH") == 2
        assert field_count("<4sHHQQI") == 6
        assert field_count("<3i") == 3
        assert field_count("<4x2H") == 2
        assert field_count("@QQ") == 2


# -- R5 span-discipline --------------------------------------------------------


class TestSpanDiscipline:
    def test_clock_call_in_hot_module_flagged(self, tmp_path):
        # repro/core/query.py is in the default hot-path designation.
        report = check(
            tmp_path,
            {
                "repro/core/query.py": (
                    "import time\nstart = time.perf_counter()\n"
                )
            },
            rule_ids=["span-discipline"],
        )
        assert len(report.findings) == 1

    def test_cold_module_and_obs_helper_pass(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/bench/harness.py": (
                    "import time\nstart = time.perf_counter()\n"
                ),
                "repro/core/query.py": (
                    "from repro.obs.timing import now\nstart = now()\n"
                ),
            },
            rule_ids=["span-discipline"],
        )
        assert report.findings == []


# -- R6 counter-registry -------------------------------------------------------


class TestCounterRegistry:
    def test_typod_counter_flagged_with_hint(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/x.py": (
                    "from repro.obs.metrics import get_registry\n"
                    'get_registry().counter("durability.retires").inc()\n'
                )
            },
            rule_ids=["counter-registry"],
        )
        assert len(report.findings) == 1
        assert "durability.retries" in report.findings[0].message  # hint

    def test_declared_names_pass(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/x.py": (
                    "from repro.obs.metrics import get_registry\n"
                    'get_registry().counter("durability.retries").inc()\n'
                    'get_registry().histogram("query.total_seconds")\n'
                )
            },
            rule_ids=["counter-registry"],
        )
        assert report.findings == []

    def test_wrong_kind_flagged(self, tmp_path):
        # Declared as a histogram, used as a counter.
        report = check(
            tmp_path,
            {
                "repro/x.py": (
                    "from repro.obs.metrics import get_registry\n"
                    'get_registry().counter("query.total_seconds").inc()\n'
                )
            },
            rule_ids=["counter-registry"],
        )
        assert len(report.findings) == 1

    def test_lifecycle_names_are_declared(self, tmp_path):
        # The query-lifecycle metrics emitted by repro/obs/queries.py
        # (deliberately not an obs-exempt module) are in the registry.
        report = check(
            tmp_path,
            {
                "repro/x.py": (
                    "from repro.obs.metrics import get_registry\n"
                    'get_registry().counter("query.cancelled").inc()\n'
                    'get_registry().counter("query.errors").inc()\n'
                    'get_registry().gauge("query.active").set(1.0)\n'
                )
            },
            rule_ids=["counter-registry"],
        )
        assert report.findings == []

    def test_typod_lifecycle_counter_flagged_with_hint(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/x.py": (
                    "from repro.obs.metrics import get_registry\n"
                    'get_registry().counter("query.cancelld").inc()\n'
                )
            },
            rule_ids=["counter-registry"],
        )
        assert len(report.findings) == 1
        assert "query.cancelled" in report.findings[0].message  # hint

    def test_lifecycle_gauge_used_as_counter_flagged(self, tmp_path):
        # query.active is declared as a gauge, not a counter.
        report = check(
            tmp_path,
            {
                "repro/x.py": (
                    "from repro.obs.metrics import get_registry\n"
                    'get_registry().counter("query.active").inc()\n'
                )
            },
            rule_ids=["counter-registry"],
        )
        assert len(report.findings) == 1

    def test_unregistered_heat_counter_flagged_with_hint(self, tmp_path):
        # Seeded bug: a heat counter that skipped obs/names.py.  The
        # emitting modules (repro/obs/heat.py, repro/obs/profiler.py)
        # are deliberately not obs-exempt, so R6 covers them.
        report = check(
            tmp_path,
            {
                "repro/obs/heat.py": (
                    "from repro.obs.metrics import get_registry\n"
                    'get_registry().counter("heat.segment_probes").inc()\n'
                )
            },
            rule_ids=["counter-registry"],
        )
        assert len(report.findings) == 1
        assert "heat.segment_probes" in report.findings[0].message

    def test_typod_profiler_counter_flagged_with_hint(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/obs/profiler.py": (
                    "from repro.obs.metrics import get_registry\n"
                    'get_registry().counter("profiler.sweep").inc()\n'
                )
            },
            rule_ids=["counter-registry"],
        )
        assert len(report.findings) == 1
        assert "profiler.sweeps" in report.findings[0].message  # hint

    def test_profiler_and_heat_names_are_declared(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/x.py": (
                    "from repro.obs.metrics import get_registry\n"
                    'get_registry().counter("heat.updates").inc()\n'
                    'get_registry().counter("heat.flushes").inc()\n'
                    'get_registry().counter("profiler.sweeps").inc()\n'
                    'get_registry().counter("profiler.samples").inc()\n'
                    'get_registry().counter("profiler.captures").inc()\n'
                    'get_registry().gauge("heat.tables").set(1.0)\n'
                    'get_registry().gauge("profiler.running").set(1.0)\n'
                    'get_registry().histogram("profiler.sweep_seconds")\n'
                )
            },
            rule_ids=["counter-registry"],
        )
        assert report.findings == []

    def test_heat_gauge_used_as_counter_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/x.py": (
                    "from repro.obs.metrics import get_registry\n"
                    'get_registry().counter("heat.extents").inc()\n'
                )
            },
            rule_ids=["counter-registry"],
        )
        assert len(report.findings) == 1


# -- R7 resource-leak ----------------------------------------------------------

# The leaked-slot shape: acquire, fallible work, release — an exception
# in the middle escapes without ever releasing.
LEAKED_SLOT = """
def handle(slot, work):
    slot.acquire()
    work()
    slot.release()
"""

# serve/admission.py's AdmissionController.admit with its try/finally
# removed, and as it is.
ADMIT_WITHOUT_FINALLY = """
class AdmissionController:
    @contextmanager
    def admit(self):
        self.acquire()
        yield
        self.release()
"""
ADMIT = ADMIT_WITHOUT_FINALLY.replace(
    "        yield\n        self.release()\n",
    "        try:\n            yield\n        finally:\n            self.release()\n",
)


class TestResourceLeak:
    def test_exception_window_flagged(self, tmp_path):
        report = check(tmp_path, {"repro/x.py": LEAKED_SLOT})
        assert rule_ids(report) == ["resource-leak"]
        assert "try/finally" in report.findings[0].message

    def test_early_return_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/x.py": """
                def handle(slot, bad):
                    slot.acquire()
                    if bad:
                        return None
                    slot.release()
                    return True
                """
            },
            rule_ids=["resource-leak"],
        )
        assert len(report.findings) == 1

    def test_try_finally_shape_passes(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/x.py": """
                def handle(slot, work):
                    slot.acquire()
                    try:
                        work()
                    finally:
                        slot.release()
                """
            },
            rule_ids=["resource-leak"],
        )
        assert report.findings == []

    def test_pin_unpin_pair_tracked(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/x.py": """
                def read(snapshot, work):
                    snapshot._pin()
                    work()
                    snapshot._unpin()
                """
            },
            rule_ids=["resource-leak"],
        )
        assert len(report.findings) == 1
        assert "pin" in report.findings[0].message

    def test_cross_function_protocol_skipped(self, tmp_path):
        # acquire with no same-function release: a handoff protocol the
        # intraprocedural analysis cannot judge.
        report = check(
            tmp_path,
            {
                "repro/x.py": """
                def start(slot):
                    slot.acquire()
                    return slot
                """
            },
            rule_ids=["resource-leak"],
        )
        assert report.findings == []

    def test_raw_handle_leak_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/x.py": """
                def load(path):
                    fh = open(path)
                    data = fh.read()
                    fh.close()
                    return data
                """
            },
            rule_ids=["resource-leak"],
        )
        assert len(report.findings) == 1

    def test_with_open_passes(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/x.py": """
                def load(path):
                    with open(path) as fh:
                        return fh.read()
                """
            },
            rule_ids=["resource-leak"],
        )
        assert report.findings == []

    def test_escaping_handle_skipped(self, tmp_path):
        # Returning the handle transfers ownership to the caller.
        report = check(
            tmp_path,
            {
                "repro/x.py": """
                def open_log(path):
                    fh = open(path)
                    fh.close()
                    return fh
                """
            },
            rule_ids=["resource-leak"],
        )
        assert report.findings == []


# -- R8 exception-status -------------------------------------------------------

# An exception type the service layer defines and raises but never maps
# to an HTTP status: clients would get the generic 500 fallback.
UNMAPPED_EXCEPTION = """
class LedgerCorrupt(RuntimeError):
    pass


def charge(ledger):
    if ledger.bad:
        raise LedgerCorrupt("ledger does not balance")
"""


class TestExceptionStatus:
    def test_unmapped_serve_exception_flagged(self, tmp_path):
        report = check(tmp_path, {"repro/serve/quotas.py": UNMAPPED_EXCEPTION})
        assert rule_ids(report) == ["exception-status"]
        assert "LedgerCorrupt" in report.findings[0].message

    def test_mapped_exception_passes(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/serve/quotas.py": UNMAPPED_EXCEPTION,
                "repro/serve/http.py": """
                from .quotas import LedgerCorrupt, charge

                def handle(ledger):
                    try:
                        charge(ledger)
                    except LedgerCorrupt:
                        return 409
                    return 200
                """,
            },
            rule_ids=["exception-status"],
        )
        assert report.findings == []

    def test_generic_catch_does_not_count(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/serve/quotas.py": UNMAPPED_EXCEPTION,
                "repro/serve/http.py": """
                from .quotas import charge

                def handle(ledger):
                    try:
                        charge(ledger)
                    except Exception:
                        raise
                """,
            },
            rule_ids=["exception-status"],
        )
        assert len(report.findings) == 1

    def test_defined_but_never_raised_passes(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/serve/quotas.py": """
                class FutureError(RuntimeError):
                    pass
                """
            },
            rule_ids=["exception-status"],
        )
        assert report.findings == []

    def test_extra_status_exceptions_covered(self, tmp_path):
        # The cancellation path: QueryCancelled lives in obs but the
        # serve layer must still map it (to 408).
        report = check(
            tmp_path,
            {
                "repro/obs/queries.py": """
                class QueryCancelled(RuntimeError):
                    pass
                """,
                "repro/serve/http.py": "def handle():\n    return 200\n",
            },
            rule_ids=["exception-status"],
        )
        assert len(report.findings) == 1
        assert "QueryCancelled" in report.findings[0].message


# -- R9 blocking-under-lock ----------------------------------------------------

FSYNC_UNDER_LOCK = """
import os
import threading


class Gate:
    def __init__(self):
        self._lock = threading.Lock()

    def persist(self, fd):
        with self._lock:
            os.fsync(fd)
"""


class TestBlockingUnderLock:
    def test_fsync_under_lock_flagged(self, tmp_path):
        report = check(tmp_path, {"repro/serve/admission.py": FSYNC_UNDER_LOCK})
        assert rule_ids(report) == ["blocking-under-lock"]
        assert "os.fsync" in report.findings[0].message

    def test_sleep_under_module_lock_flagged(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/serve/admission.py": """
                import threading
                import time

                _lock = threading.Lock()


                def backoff():
                    with _lock:
                        time.sleep(0.1)
                """
            },
            rule_ids=["blocking-under-lock"],
        )
        assert len(report.findings) == 1

    def test_condition_wait_exempt(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/serve/admission.py": """
                import threading


                class Queue:
                    def __init__(self):
                        self._cond = threading.Condition()

                    def get(self):
                        with self._cond:
                            self._cond.wait()
                """
            },
            rule_ids=["blocking-under-lock"],
        )
        assert report.findings == []

    def test_blocking_outside_lock_passes(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/serve/admission.py": """
                import os
                import threading


                class Gate:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def persist(self, fd):
                        with self._lock:
                            pending = True
                        if pending:
                            os.fsync(fd)
                """
            },
            rule_ids=["blocking-under-lock"],
        )
        assert report.findings == []

    def test_non_designated_module_ignored(self, tmp_path):
        report = check(
            tmp_path,
            {"repro/gis/whatever.py": FSYNC_UNDER_LOCK},
            rule_ids=["blocking-under-lock"],
        )
        assert report.findings == []


# -- R11 cancellation-coverage -------------------------------------------------

CHECKLESS_SCAN_LOOP = """
def scan(segments):
    out = []
    for seg in segments:
        out.append(decode_block(seg))
    return out
"""


class TestCancellationCoverage:
    def test_checkless_scan_loop_flagged(self, tmp_path):
        report = check(
            tmp_path, {"repro/engine/select.py": CHECKLESS_SCAN_LOOP}
        )
        assert rule_ids(report) == ["cancellation-coverage"]
        assert "check_deadline" in report.findings[0].message

    def test_deadline_check_in_body_passes(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/engine/select.py": """
                def scan(segments):
                    out = []
                    for seg in segments:
                        check_deadline()
                        out.append(decode_block(seg))
                    return out
                """
            },
            rule_ids=["cancellation-coverage"],
        )
        assert report.findings == []

    def test_transitive_check_through_helper_passes(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/engine/select.py": """
                def decode_segment(seg):
                    check_deadline()
                    return unpack(seg)


                def scan(segments):
                    out = []
                    for seg in segments:
                        out.append(decode_segment(seg))
                    return out
                """
            },
            rule_ids=["cancellation-coverage"],
        )
        assert report.findings == []

    def test_assembly_loop_ignored(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/engine/select.py": """
                def collect(parts):
                    out = []
                    for part in parts:
                        out.append(normalise(part))
                    return out
                """
            },
            rule_ids=["cancellation-coverage"],
        )
        assert report.findings == []

    def test_init_exempt(self, tmp_path):
        report = check(
            tmp_path,
            {
                "repro/engine/select.py": """
                class Column:
                    def __init__(self, segments):
                        self.blocks = []
                        for seg in segments:
                            self.blocks.append(decode_block(seg))
                """
            },
            rule_ids=["cancellation-coverage"],
        )
        assert report.findings == []

    def test_non_designated_module_ignored(self, tmp_path):
        report = check(
            tmp_path,
            {"repro/gis/whatever.py": CHECKLESS_SCAN_LOOP},
            rule_ids=["cancellation-coverage"],
        )
        assert report.findings == []


# -- baseline ------------------------------------------------------------------


class TestBaseline:
    FILES = {"repro/x.py": 'fh = open("out.col", "wb")\n'}

    def test_round_trip_add_then_clean(self, tmp_path):
        root = make_tree(tmp_path, self.FILES)
        report = run_check(root, baseline=Baseline(), rule_ids=["durable-write"])
        assert len(report.findings) == 1

        path = tmp_path / "baseline.json"
        Baseline.from_findings(report.findings).save(path)
        loaded = Baseline.load(path)
        again = run_check(root, baseline=loaded, rule_ids=["durable-write"])
        assert again.ok
        assert again.findings == []
        assert len(again.suppressed) == 1

    def test_baseline_survives_line_shifts(self, tmp_path):
        root = make_tree(tmp_path, self.FILES)
        report = run_check(root, baseline=Baseline(), rule_ids=["durable-write"])
        path = tmp_path / "baseline.json"
        Baseline.from_findings(report.findings).save(path)

        # Prepend lines: the finding moves but its snippet does not.
        target = tmp_path / "repro" / "x.py"
        target.write_text("import os\n\n\n" + target.read_text())
        again = run_check(
            root,
            baseline=Baseline.load(path),
            rule_ids=["durable-write"],
        )
        assert again.findings == []
        assert len(again.suppressed) == 1

    def test_stale_entries_reported_not_fatal(self, tmp_path):
        root = make_tree(tmp_path, {"repro/x.py": "value = 1\n"})
        stale = Baseline(
            [BaselineEntry("durable-write", "repro/gone.py", "open('a','wb')")]
        )
        report = run_check(root, baseline=stale, rule_ids=["durable-write"])
        assert report.ok
        assert len(report.unused_baseline) == 1

    def test_justifications_preserved_on_update(self, tmp_path):
        root = make_tree(tmp_path, self.FILES)
        report = run_check(root, baseline=Baseline(), rule_ids=["durable-write"])
        old = Baseline.from_findings(report.findings)
        entry = next(iter(old.unused()))
        entry.justification = "because streaming"
        new = Baseline.from_findings(report.findings, previous=old)
        assert new.justification(report.findings[0]) == "because streaming"


# -- reporters -----------------------------------------------------------------


class TestReporters:
    def test_text_and_json_agree(self, tmp_path):
        report = check(
            tmp_path,
            {"repro/x.py": 'fh = open("out.col", "wb")\n'},
            rule_ids=["durable-write"],
        )
        text = to_text(report)
        doc = json.loads(to_json(report))
        assert "durable-write" in text
        assert doc["ok"] is False
        assert doc["errors"] == 1
        assert doc["findings"][0]["rule"] == "durable-write"
        assert doc["findings"][0]["path"] == "repro/x.py"


# -- code this repo's history shipped, and its fix ----------------------------

# b93171c engine/storage.py: the seed wrote columns with a raw open().
RAW_DUMP_ARRAY = """
def dump_array(array, path):
    header = _HEADER.pack(_MAGIC, _VERSION, _TYPE_CODES[type_name], array.shape[0])
    payload = array.astype(array.dtype.newbyteorder("<")).tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
    return len(header) + len(payload)
"""
DURABLE_DUMP_ARRAY = RAW_DUMP_ARRAY.split("    with open")[0] + (
    '    return durable.atomic_write_bytes(path, header + payload, label="col")\n'
)

# b93171c core/query.py and 288d8fe core/imprints/manager.py: the filter
# step and the imprint build timed themselves with a raw clock.
RAW_QUERY_CLOCK = """
import time

class SpatialSelect:
    def query(self, geometry, use_imprints=True):
        t0 = time.perf_counter()
        candidates = self._filter(geometry_envelope(geometry), use_imprints)
        t1 = time.perf_counter()
        return candidates, QueryStats(filter_seconds=t1 - t0)
"""
RAW_BUILD_CLOCK = """
import time

class ImprintsManager:
    def ensure(self, table, column_name):
        key = self._key(table, column_name)
        imp = self._imprints.get(key)
        if imp is None:
            with maybe_span("imprints.build", table=table.name, column=column_name):
                t0 = time.perf_counter()
                imp = SegmentedImprints(table.column(column_name))
                self.last_build_seconds = time.perf_counter() - t0
            self._imprints[key] = imp
        return imp
"""


def obs_clock(source):
    source = source.replace("import time", "from ..obs.timing import now")
    return source.replace("time.perf_counter()", "now()")


# d6c9c97 obs/queries.py: QueryCancelled existed before any handler mapped
# it; e20ca2f's serve/http.py answers it with 408.
QUERY_CANCELLED = """
class QueryCancelled(RuntimeError):
    def __init__(self, query_id, timeout_s, elapsed_s):
        super().__init__(f"query {query_id} cancelled after {elapsed_s:.3f}s")
"""
CANCELLED_408 = """
from ..obs.queries import QueryCancelled

def respond(run):
    try:
        return 200, run()
    except QueryCancelled as exc:
        return 408, {"error": "cancelled", "message": str(exc)}
"""

# e20ca2f core/imprints/segments.py and 8dc0b42 engine/compressed.py:
# scan loops that never looked at the deadline.
UNCHECKED_CANDIDATE_ROWS = """
class SegmentedImprints:
    def candidate_rows(self, lo, hi):
        pieces = []
        for seg in self.segments:
            if self._classify(seg, lo, hi, True, True) == _SKIP:
                continue
            lines = self._candidate_lines(seg, lo, hi)
            pieces.append(lines * self.vpc + seg.start)
        return pieces
"""
UNCHECKED_TAKE = """
class CompressedColumn:
    def take(self, oids):
        starts = np.asarray(self._starts, dtype=np.int64)
        seg_of = np.searchsorted(starts, oids, side="right") - 1
        pieces = []
        for seg in np.unique(seg_of):
            in_seg = oids[seg_of == seg] - starts[seg]
            pieces.append(kernels.take(self.blocks[int(seg)], in_seg))
        return np.concatenate(pieces)
"""


def deadline_checked(source):
    """``source`` with the check its fix put first in the scan loop."""
    return re.sub(
        r"\n( +)(for seg .*:)\n", r"\n\1\2\n\1    _queries.check_deadline()\n", source
    )


SWALLOWED_CRASH = "try:\n    pass\nexcept BaseException:\n    pass\n"
PACK_ARITY = 'import struct\nS = struct.Struct("<H")\nS.pack(1, 2)\n'
TYPOD_COUNTER = (
    "from repro.obs.metrics import get_registry\n"
    'get_registry().counter("durability.retires")\n'
)
STORAGE, QUERY = "repro/engine/storage.py", "repro/core/query.py"
MANAGER = "repro/core/imprints/manager.py"
SEGMENTS, COMPRESSED = "repro/core/imprints/segments.py", "repro/engine/compressed.py"

# id -> files: one seeded violation per rule, then ``rule@source`` cases:
# code from that commit, or a live function with its fix taken out.
VIOLATIONS = {
    "durable-write": {"repro/x.py": 'open("a.col", "wb")\n'},
    "crash-transparency": {"repro/x.py": SWALLOWED_CRASH},
    "lock-discipline": {"repro/obs/metrics.py": LOCKED_CLASS_BAD},
    "struct-format": {"repro/x.py": PACK_ARITY},
    "span-discipline": {QUERY: "import time\ntime.perf_counter()\n"},
    "counter-registry": {"repro/x.py": TYPOD_COUNTER},
    "resource-leak": {"repro/x.py": LEAKED_SLOT},
    "exception-status": {"repro/serve/quotas.py": UNMAPPED_EXCEPTION},
    "blocking-under-lock": {"repro/serve/admission.py": FSYNC_UNDER_LOCK},
    "cancellation-coverage": {"repro/engine/select.py": CHECKLESS_SCAN_LOOP},
    "durable-write@b93171c": {STORAGE: RAW_DUMP_ARRAY},
    "span-discipline@b93171c": {QUERY: RAW_QUERY_CLOCK},
    "span-discipline@288d8fe": {MANAGER: RAW_BUILD_CLOCK},
    "exception-status@d6c9c97": {"repro/obs/queries.py": QUERY_CANCELLED},
    "cancellation-coverage@e20ca2f": {SEGMENTS: UNCHECKED_CANDIDATE_ROWS},
    "cancellation-coverage@8dc0b42": {COMPRESSED: UNCHECKED_TAKE},
    "resource-leak@admit": {"repro/serve/admission.py": ADMIT_WITHOUT_FINALLY},
}
# id -> the files the fix wrote; the fixed tree is clean.
FIXES = {
    "durable-write@b93171c": {STORAGE: DURABLE_DUMP_ARRAY},
    "span-discipline@b93171c": {QUERY: obs_clock(RAW_QUERY_CLOCK)},
    "span-discipline@288d8fe": {MANAGER: obs_clock(RAW_BUILD_CLOCK)},
    "exception-status@d6c9c97": {"repro/serve/http.py": CANCELLED_408},
    "cancellation-coverage@e20ca2f": {
        SEGMENTS: deadline_checked(UNCHECKED_CANDIDATE_ROWS)
    },
    "cancellation-coverage@8dc0b42": {COMPRESSED: deadline_checked(UNCHECKED_TAKE)},
    "resource-leak@admit": {"repro/serve/admission.py": ADMIT},
}


# -- CLI entry points ----------------------------------------------------------


class TestCli:
    def seed(self, tmp_path, files):
        return str(make_tree(tmp_path, files))

    @pytest.mark.parametrize("case", list(VIOLATIONS))
    def test_seeded_violation_exits_nonzero(self, tmp_path, case, capsys):
        root = self.seed(tmp_path, VIOLATIONS[case])
        assert check_main([root]) == 1
        assert f"error[{case.split('@')[0]}]" in capsys.readouterr().out
        if case in FIXES:
            self.seed(tmp_path, FIXES[case])
            assert check_main([root]) == 0, capsys.readouterr().out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = self.seed(tmp_path, {"repro/x.py": "value = 1\n"})
        assert check_main([root]) == 0

    def test_json_format(self, tmp_path, capsys):
        root = self.seed(tmp_path, {"repro/x.py": 'open("a", "wb")\n'})
        assert check_main([root, "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["errors"] == 1

    def test_select_limits_rules(self, tmp_path, capsys):
        root = self.seed(
            tmp_path,
            {"repro/x.py": 'open("a", "wb")\n'},
        )
        assert check_main([root, "--select", "struct-format"]) == 0

    def test_update_baseline_flow(self, tmp_path, capsys):
        root = self.seed(tmp_path, {"repro/x.py": 'open("a", "wb")\n'})
        baseline = str(tmp_path / "baseline.json")
        assert check_main([root, "--baseline", baseline]) == 1
        assert (
            check_main([root, "--baseline", baseline, "--update-baseline"])
            == 0
        )
        assert check_main([root, "--baseline", baseline]) == 0

    def test_repro_gis_check_subcommand(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        root = self.seed(tmp_path, {"repro/x.py": 'open("a", "wb")\n'})
        assert cli_main(["check", root]) == 1
        assert cli_main(["check", root, "--select", "struct-format"]) == 0

    def test_list_rules(self, capsys):
        assert check_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out
            assert rule.code in out

    def test_rule_code_filter(self, tmp_path, capsys):
        root = self.seed(tmp_path, {"repro/x.py": 'open("a", "wb")\n'})
        assert check_main([root, "--rule", "R4"]) == 0
        assert check_main([root, "--rule", "R1"]) == 1

    def test_path_filter(self, tmp_path, capsys):
        root = self.seed(
            tmp_path,
            {
                "repro/clean.py": "value = 1\n",
                "repro/dirty.py": 'open("a", "wb")\n',
            },
        )
        clean = str(Path(root) / "clean.py")
        dirty = str(Path(root) / "dirty.py")
        assert check_main([root, "--path", clean]) == 0
        assert check_main([root, "--path", dirty]) == 1
        assert check_main([root, "--path", clean, "--path", dirty]) == 1

    def test_path_filter_accepts_directories(self, tmp_path, capsys):
        root = self.seed(
            tmp_path,
            {
                "repro/serve/ok.py": "value = 1\n",
                "repro/dirty.py": 'open("a", "wb")\n',
            },
        )
        serve_dir = str(Path(root) / "serve")
        assert check_main([root, "--path", serve_dir]) == 0

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        root = self.seed(tmp_path, {"repro/x.py": "value = 1\n"})
        assert check_main([root, "--path", "no/such/file.py"]) == 2


# -- the meta-test: the repo itself is clean -----------------------------------


class TestSelfCheck:
    @pytest.fixture(scope="class")
    def report(self):
        """One whole-tree check of src/ against the committed baseline,
        shared by the tests that read it."""
        repo_root = SRC_ROOT.parent.parent
        baseline = Baseline.load(repo_root / "repro-check.baseline.json")
        return run_check(SRC_ROOT, baseline=baseline)

    def test_src_tree_clean_with_committed_baseline(self, report):
        """`repro-gis check` runs clean on src/ with the committed
        baseline — the invariant the CI `check` job enforces."""
        assert report.findings == [], [f.to_dict() for f in report.findings]
        assert report.ok

    def test_committed_baseline_has_justifications(self):
        repo_root = SRC_ROOT.parent.parent
        doc = json.loads(
            (repo_root / "repro-check.baseline.json").read_text()
        )
        assert doc["findings"], "baseline should carry the deliberate cases"
        for entry in doc["findings"]:
            assert entry["justification"].strip(), entry

    def test_no_stale_baseline_entries(self, report):
        assert report.unused_baseline == [], [
            e.to_dict() for e in report.unused_baseline
        ]

    def test_every_rule_registered(self):
        ids = {rule.id for rule in all_rules()}
        assert ids == {
            "durable-write",
            "crash-transparency",
            "lock-discipline",
            "struct-format",
            "span-discipline",
            "counter-registry",
            "resource-leak",
            "exception-status",
            "blocking-under-lock",
            "cancellation-coverage",
        }

    def test_rule_codes_are_r1_through_r11(self):
        # R10 (thread-boundary) was deleted; its code is not reused.
        codes = sorted(
            (rule.code for rule in all_rules()),
            key=lambda c: int(c[1:]),
        )
        assert codes == [f"R{i}" for i in range(1, 12) if i != 10]


# -- config plumbing -----------------------------------------------------------


class TestConfig:
    def test_custom_config_overrides_designations(self, tmp_path):
        root = make_tree(
            tmp_path,
            {"repro/custom/hot.py": "import time\ntime.monotonic()\n"},
        )
        config = Config(hotpath_modules=frozenset({"repro/custom/hot.py"}))
        report = run_check(
            root,
            config=config,
            baseline=Baseline(),
            rule_ids=["span-discipline"],
        )
        assert len(report.findings) == 1

    def test_project_module_lookup(self, tmp_path):
        root = make_tree(tmp_path, {"repro/a.py": "x = 1\n"})
        project = Project.load(root)
        assert project.module("repro/a.py") is not None
        assert project.module("repro/missing.py") is None

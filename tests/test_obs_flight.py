"""The crash flight recorder: hooks and post-mortem dumps."""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.obs import flight
from repro.obs.context import ObsContext, default_context
from repro.obs.flight import (
    FLIGHT_DIR_ENV,
    FlightRecorder,
    flight_directory,
    get_flight_recorder,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


@pytest.fixture
def recorder(tmp_path):
    """An isolated recorder dumping into tmp_path; uninstalled after."""
    rec = FlightRecorder(
        directory=tmp_path,
        tracer=Tracer(enabled=False),
        registry=MetricsRegistry(),
    )
    yield rec
    rec.uninstall()


def read_dump(tmp_path):
    dumps = sorted(tmp_path.glob("flight-*.json"))
    assert len(dumps) == 1
    return json.loads(dumps[0].read_text())


class TestDump:
    def test_dump_writes_reason_events_and_deltas(self, recorder):
        """The process's identity and what it did since install: argv,
        counter deltas and metrics (the query records are checked in
        test_obs_slowlog's three-views test)."""
        recorder.install()
        recorder.registry.counter("sql.queries").inc(3)
        path = recorder.dump("test_reason")
        assert path is not None and path.exists()
        record = json.loads(path.read_text())
        assert record["reason"] == "test_reason"
        assert record["pid"] == os.getpid()
        assert record["argv"] == sys.argv
        assert record["counter_deltas"] == {"sql.queries": 3}
        assert "metrics" in record
        assert recorder.registry.counter("flight.dumps").value == 1

    def test_dump_embeds_exception_and_spans(self, recorder):
        recorder.tracer.enable()
        with recorder.tracer.span("doomed.query"):
            pass
        try:
            raise ValueError("bad bbox")
        except ValueError as exc:
            path = recorder.dump("unhandled_exception", exc)
        record = json.loads(path.read_text())
        assert record["exception"]["type"] == "ValueError"
        assert record["exception"]["message"] == "bad bbox"
        assert any(
            "bad bbox" in line for line in record["exception"]["traceback"]
        )
        assert [s["name"] for s in record["spans"]] == ["doomed.query"]

    def test_dump_snapshots_the_query_registry(self, tmp_path):
        from repro.obs.queries import QueryRegistry

        queries = QueryRegistry()
        rec = FlightRecorder(
            directory=tmp_path,
            tracer=Tracer(enabled=False),
            registry=MetricsRegistry(),
            queries=queries,
        )
        with queries.track("spatial", detail={"table": "pts"}) as query:
            path = rec.dump("mid_query")
        record = json.loads(path.read_text())
        active = record["queries"]["active"]
        assert [q["query_id"] for q in active] == [query.query_id]
        assert active[0]["kind"] == "spatial"
        assert active[0]["status"] == "running"
        # A later dump sees it retired into the recent ring.
        path = rec.dump("post_query")
        record = json.loads(path.read_text())
        assert record["queries"]["active"] == []
        assert record["queries"]["recent"][0]["status"] == "finished"

    def test_dump_never_raises(self, tmp_path):
        rec = FlightRecorder(directory=tmp_path / "file-not-dir")
        (tmp_path / "file-not-dir").write_text("in the way")
        assert rec.dump("blocked") is None

    def test_directory_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path / "dumps"))
        assert flight_directory() == tmp_path / "dumps"
        monkeypatch.delenv(FLIGHT_DIR_ENV)
        assert flight_directory() == type(tmp_path)(tempfile.gettempdir())


class TestHooks:
    def test_install_chains_excepthook(self, recorder, tmp_path):
        seen = []
        original = sys.excepthook
        sys.excepthook = lambda *args: seen.append(args)
        try:
            recorder.install()
            exc = RuntimeError("worker died")
            sys.excepthook(RuntimeError, exc, None)
        finally:
            recorder.uninstall()
            sys.excepthook = original
        # The previous hook still ran (tracebacks keep printing)...
        assert len(seen) == 1
        assert seen[0][1] is exc
        # ...and the dump landed.
        record = read_dump(tmp_path)
        assert record["reason"] == "unhandled_exception"
        assert record["exception"]["type"] == "RuntimeError"

    def test_keyboard_interrupt_does_not_dump(self, recorder, tmp_path):
        original = sys.excepthook
        sys.excepthook = lambda *args: None
        try:
            recorder.install()
            sys.excepthook(KeyboardInterrupt, KeyboardInterrupt(), None)
        finally:
            recorder.uninstall()
            sys.excepthook = original
        assert list(tmp_path.glob("flight-*.json")) == []

    def test_install_is_idempotent(self, recorder):
        original = sys.excepthook
        try:
            recorder.install()
            hook = sys.excepthook
            recorder.registry.counter("sql.queries").inc()
            recorder.install()
            assert sys.excepthook is hook
            # The lifetime baseline was taken once, not reset.
            record = json.loads(recorder.dump("twice").read_text())
            assert record["counter_deltas"] == {"sql.queries": 1}
        finally:
            recorder.uninstall()
            sys.excepthook = original

    def test_uninstall_restores_previous_hook(self, recorder):
        original = sys.excepthook
        recorder.install()
        recorder.uninstall()
        assert sys.excepthook is original

    def test_cli_crash_leaves_a_dump(self, tmp_path):
        """End to end: an unhandled exception in a repro-gis process
        writes a flight dump before the traceback prints."""
        script = (
            "import sys; sys.argv = ['repro-gis', 'info']\n"
            "from repro.obs.flight import get_flight_recorder\n"
            "get_flight_recorder().install()\n"
            "raise RuntimeError('simulated crash')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            cwd=tmp_path,
            env={
                **os.environ,
                "PYTHONPATH": str(Path(__file__).parent.parent / "src"),
                FLIGHT_DIR_ENV: str(tmp_path),
            },
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode != 0
        assert "simulated crash" in result.stderr  # traceback still printed
        record = read_dump(tmp_path)
        assert record["reason"] == "unhandled_exception"
        assert record["exception"]["message"] == "simulated crash"
        assert record["argv"] == ["repro-gis", "info"]


class TestSingleton:
    def test_get_flight_recorder_is_stable(self):
        assert get_flight_recorder() is get_flight_recorder()

    def test_binds_the_process_context_under_another(self, monkeypatch):
        """First asked for under an activated context, the process
        recorder still observes the process default's state."""
        monkeypatch.setattr(flight, "_global_recorder", None)
        with ObsContext.fresh().activate():
            rec = get_flight_recorder()
        process = default_context()
        assert rec.tracer is process.tracer
        assert rec.registry is process.registry
        assert rec.queries is process.queries

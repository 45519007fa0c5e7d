"""Smoke tests: the example scripts must run end-to-end.

Each example runs in-process as ``__main__`` (``runpy``) in a temp working
directory (they write images/files there), with its command line patched
into ``sys.argv``.  None of them leaves process-wide state changed: no
tracer switched on, no heat map or profiler started, no signal handler or
excepthook installed.  Only the faster examples run here; the long ones
(500k-1M point renders) are exercised manually and by the benchmarks.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture
def run_example(tmp_path, monkeypatch, capsys):
    """Run ``examples/<name> *args`` as ``__main__``; return its stdout."""

    def run(name: str, *args: str) -> str:
        script = str(EXAMPLES / name)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "argv", [script, *args])
        runpy.run_path(script, run_name="__main__")
        return capsys.readouterr().out

    return run


class TestExamples:
    def test_quickstart(self, run_example):
        out = run_example("quickstart.py")
        assert "polygon query ->" in out
        assert "per-class breakdown" in out
        assert "storage:" in out

    def test_figure2(self, run_example, tmp_path):
        out = run_example("figure2_map.py", str(tmp_path / "f2.ppm"))
        assert (tmp_path / "f2.ppm").exists()
        assert "layer inventory" in out

    def test_scenario2(self, run_example):
        out = run_example("scenario2_thematic_sql.py")
        assert "points_near_transit" in out
        assert "avg_elevation" in out
        assert "EXPLAIN" in out
        assert "imprints + grid refinement" in out

    @pytest.mark.slow
    def test_scenario1(self, run_example):
        out = run_example("scenario1_file_vs_dbms.py")
        assert "flat table + imprints" in out
        assert "functional gap" in out

    @pytest.mark.slow
    def test_figure1(self, run_example, tmp_path):
        run_example("figure1_pointcloud.py", str(tmp_path / "f1.ppm"))
        assert (tmp_path / "f1.ppm").exists()
        assert (tmp_path / "f1_query.ppm").exists()

    @pytest.mark.slow
    def test_elevation_models(self, run_example, tmp_path):
        out = run_example("elevation_models.py", str(tmp_path))
        assert (tmp_path / "dsm.pgm").exists()
        assert "DSM coverage" in out

    @pytest.mark.slow
    def test_lod_navigation(self, run_example, tmp_path):
        out = run_example("lod_navigation.py", str(tmp_path))
        assert (tmp_path / "nav_street.ppm").exists()
        assert "pyramid" in out

"""Tests for the bench harness and workloads."""

import numpy as np
import pytest

from repro.bench.harness import (
    Report,
    best_of,
    format_table,
    human_seconds,
    timer,
)
from repro.bench.workloads import (
    circle_polygon,
    irregular_polygon,
    standard_queries,
)
from repro.gis.envelope import Box
from repro.gis.predicates import geometry_envelope


class TestHarness:
    def test_timer_measures(self):
        with timer() as t:
            sum(range(10000))
        assert t.seconds > 0

    def test_best_of(self):
        calls = []
        best = best_of(lambda: calls.append(1), repeats=4)
        assert len(calls) == 4
        assert best >= 0

    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["long_name", 12.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_report_emit(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        report = Report("E9", "demo", headers=["a"], rows=[])
        report.add_row(1)
        report.note("a note")
        report.emit()
        out = capsys.readouterr().out
        assert "E9: demo" in out
        assert (tmp_path / "E9.txt").exists()

    def test_human_seconds(self):
        assert human_seconds(10) == "10.0 s"
        assert "min" in human_seconds(600)
        assert "hours" in human_seconds(20_000)
        assert "days" in human_seconds(10 * 86400)


class TestWorkloads:
    EXTENT = Box(0, 0, 1000, 800)

    def test_standard_queries_cover_types(self):
        specs = standard_queries(self.EXTENT)
        names = {spec.name for spec in specs}
        assert {"rect_small", "rect_medium", "rect_large"} <= names
        assert any(spec.predicate == "dwithin" for spec in specs)

    def test_queries_within_extent(self):
        for spec in standard_queries(self.EXTENT):
            env = geometry_envelope(spec.geometry)
            assert env.intersects(self.EXTENT)

    def test_rect_sizes_ordered(self):
        specs = {s.name: s for s in standard_queries(self.EXTENT)}
        small = specs["rect_small"].geometry.area
        medium = specs["rect_medium"].geometry.area
        large = specs["rect_large"].geometry.area
        assert small < medium < large
        assert large == pytest.approx(0.25 * self.EXTENT.area)

    def test_circle_polygon_area(self):
        circle = circle_polygon(0, 0, 10, segments=256)
        assert circle.area == pytest.approx(np.pi * 100, rel=0.01)

    def test_irregular_polygon_deterministic(self):
        a = irregular_polygon(0, 0, 10, seed=3)
        b = irregular_polygon(0, 0, 10, seed=3)
        np.testing.assert_array_equal(a.shell, b.shell)

"""Workload heat maps: EWMA decay, rasterisation, journal durability."""

import json

import numpy as np
import pytest

from repro import Box, PointCloudDB
from repro.cli import main
from repro.engine.compressed import CompressedColumn
from repro.engine.durable import InjectedCrash
from repro.obs.heat import (
    HEAT_JOURNAL_NAME,
    HeatMap,
    disable_heat,
    enable_heat,
    maybe_heat,
    read_journal,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.queries import get_queries
from tests import faults

DOMAIN = (0.0, 0.0, 100.0, 100.0)


@pytest.fixture(autouse=True)
def _isolate_process_heat():
    """No test leaves the process-wide heat map behind."""
    disable_heat()
    yield
    disable_heat()


def make_heat(**kwargs):
    kwargs.setdefault("registry", MetricsRegistry())
    return HeatMap(**kwargs)


class TestRecording:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_heat(halflife_s=0)
        with pytest.raises(ValueError):
            make_heat(grid=0)

    def test_record_scan_folds_segment_outcomes(self):
        heat = make_heat()
        heat.record_scan(
            "x",
            probed=[(0, 512, 0), (2, 0, 4096)],
            skipped=[1, 3],
            full=[4],
            table="pts",
        )
        snapshot = heat.snapshot()
        rows = {
            (row["table"], row["column"], row["segment"]): row
            for row in snapshot["segments"]
        }
        assert rows[("pts", "x", 0)]["probes"] == pytest.approx(1.0)
        assert rows[("pts", "x", 0)]["encoded_bytes"] == pytest.approx(512)
        assert rows[("pts", "x", 2)]["materialized_bytes"] == pytest.approx(
            4096
        )
        assert rows[("pts", "x", 1)]["skips"] == pytest.approx(1.0)
        assert rows[("pts", "x", 4)]["fulls"] == pytest.approx(1.0)
        assert snapshot["tables"] == ["pts"]
        # The hottest segment (most bytes) sorts first.
        assert snapshot["segments"][0]["segment"] == 2

    def test_scan_attributes_to_in_flight_query_table(self):
        heat = make_heat()
        with get_queries().track("spatial", detail={"table": "lidar"}):
            heat.record_scan("x", probed=[(0, 100, 0)])
        heat.record_scan("x", probed=[(-1, 0, 100)])  # no query: "?"
        tables = {row["table"] for row in heat.snapshot()["segments"]}
        assert tables == {"lidar", "?"}

    def test_footprint_rasterises_onto_the_grid(self):
        heat = make_heat(grid=4)
        heat.record_footprint(
            "pts", bbox=(0, 0, 49, 49), domain=DOMAIN, nbytes=4000
        )
        extents = heat.snapshot()["extents"]
        cells = {tuple(row["cell"]) for row in extents}
        assert cells == {(0, 0), (0, 1), (1, 0), (1, 1)}
        for row in extents:
            assert row["bytes"] == pytest.approx(1000.0)
            # The query count lands on every touched cell undivided.
            assert row["queries"] == pytest.approx(1.0)

    def test_footprint_covering_domain_touches_every_cell(self):
        heat = make_heat(grid=4)
        heat.record_footprint("pts", bbox=DOMAIN, domain=DOMAIN, nbytes=1600)
        assert len(heat.snapshot()["extents"]) == 16

    def test_degenerate_domain_collapses_to_one_cell(self):
        heat = make_heat(grid=8)
        heat.record_footprint(
            "pts", bbox=(5, 5, 6, 6), domain=(5, 5, 5, 5), nbytes=100
        )
        extents = heat.snapshot()["extents"]
        assert len(extents) == 1
        assert extents[0]["cell"] == [0, 0]

    def test_domain_is_fixed_by_the_first_footprint(self):
        heat = make_heat(grid=4)
        heat.record_footprint(
            "pts", bbox=(0, 0, 10, 10), domain=DOMAIN, nbytes=100
        )
        # A later, different domain must not re-grid accumulated heat.
        heat.record_footprint(
            "pts", bbox=(0, 0, 10, 10), domain=(0, 0, 10, 10), nbytes=100
        )
        assert heat.snapshot()["extents"][0]["bytes"] == pytest.approx(200.0)

    def test_snapshot_sets_gauges(self):
        registry = MetricsRegistry()
        heat = make_heat(registry=registry)
        heat.record_scan("x", probed=[(0, 1000, 0)], table="pts")
        heat.record_footprint(
            "pts", bbox=(0, 0, 10, 10), domain=DOMAIN, nbytes=500
        )
        heat.snapshot()
        gauges = registry.snapshot()["gauges"]
        assert gauges["heat.tables"] == 1.0
        assert gauges["heat.segments"] == 1.0
        # bbox (0,0,10,10) on the default 16-grid spans 2x2 cells.
        assert gauges["heat.extents"] == 4.0
        assert gauges["heat.hottest_segment_bytes"] == pytest.approx(1000.0)
        counters = registry.snapshot()["counters"]
        assert counters["heat.updates"] == 2


class TestDecay:
    def test_heat_halves_after_one_halflife(self):
        heat = make_heat(halflife_s=600.0)
        heat.record_scan("x", probed=[(0, 1000, 0)], table="pts")
        heat.record_footprint(
            "pts", bbox=(0, 0, 10, 10), domain=DOMAIN, nbytes=800
        )
        # Rewind the entries' clocks one half-life: wall-clock decay
        # without sleeping (or monkeypatching time for every thread).
        for entry in heat._segments.values():
            entry.last_ts -= 600.0
        for entry in heat._extents.values():
            entry.last_ts -= 600.0
        snapshot = heat.snapshot()
        assert snapshot["segments"][0]["encoded_bytes"] == pytest.approx(
            500.0, rel=0.01
        )
        total_extent_bytes = sum(
            row["bytes"] for row in snapshot["extents"]
        )
        assert total_extent_bytes == pytest.approx(400.0, rel=0.01)

    def test_fresh_touch_decays_before_accumulating(self):
        heat = make_heat(halflife_s=600.0)
        heat.record_scan("x", probed=[(0, 1000, 0)], table="pts")
        for entry in heat._segments.values():
            entry.last_ts -= 600.0
        heat.record_scan("x", probed=[(0, 1000, 0)], table="pts")
        row = heat.snapshot()["segments"][0]
        assert row["encoded_bytes"] == pytest.approx(1500.0, rel=0.01)


class TestHints:
    def test_hints_rank_extents_by_bytes(self):
        heat = make_heat(grid=4)
        heat.record_footprint(
            "pts", bbox=(0, 0, 10, 10), domain=DOMAIN, nbytes=100
        )
        heat.record_footprint(
            "pts", bbox=(80, 80, 90, 90), domain=DOMAIN, nbytes=9000
        )
        hints = heat.hints(top=5)
        assert hints["version"] == 1
        assert hints["grid"] == 4
        ranked = hints["hints"]
        assert [hint["rank"] for hint in ranked] == [1, 2]
        assert ranked[0]["cell"] == [3, 3]
        assert ranked[0]["bytes"] > ranked[1]["bytes"]
        # The extent is the cell's bbox on the fixed lattice.
        assert ranked[0]["extent"] == [75.0, 75.0, 100.0, 100.0]
        # JSON-clean: the sharding consumer reads this off disk.
        assert json.loads(json.dumps(hints)) == hints

    def test_hints_empty_without_footprints(self):
        heat = make_heat()
        heat.record_scan("x", probed=[(0, 10, 0)], table="pts")
        assert heat.hints()["hints"] == []


class TestJournal:
    def make_populated(self, tmp_path, **kwargs):
        heat = make_heat(journal=tmp_path / HEAT_JOURNAL_NAME, **kwargs)
        heat.record_scan(
            "x", probed=[(0, 512, 0)], skipped=[1], full=[2], table="pts"
        )
        heat.record_footprint(
            "pts", bbox=(10, 10, 40, 40), domain=DOMAIN, nbytes=2048
        )
        return heat

    def test_flush_and_restore_round_trip(self, tmp_path):
        heat = self.make_populated(tmp_path, halflife_s=120.0, grid=8)
        path = heat.flush()
        assert path == tmp_path / HEAT_JOURNAL_NAME
        records = read_journal(path)
        assert len(records) == 1
        restored = HeatMap.from_journal(path, registry=MetricsRegistry())
        # Tunables come back from the journal, not the defaults.
        assert restored.halflife_s == 120.0
        assert restored.grid == 8
        original = heat.snapshot()
        revived = restored.snapshot()
        assert revived["tables"] == original["tables"]
        assert len(revived["segments"]) == len(original["segments"])
        assert len(revived["extents"]) == len(original["extents"])
        assert revived["segments"][0]["encoded_bytes"] == pytest.approx(
            original["segments"][0]["encoded_bytes"], rel=0.01
        )
        assert restored.hints()["hints"][0]["cell"] == heat.hints()["hints"][0]["cell"]

    def test_flush_without_journal_is_a_noop(self):
        heat = make_heat()
        assert heat.flush() is None
        assert heat.maybe_flush() is None

    def test_maybe_flush_honours_the_interval(self, tmp_path):
        heat = self.make_populated(tmp_path, flush_interval_s=3600.0)
        assert heat.maybe_flush() is None  # interval not yet elapsed
        heat.flush_interval_s = 0.0
        assert heat.maybe_flush() is not None
        assert len(read_journal(heat.journal)) == 1

    def test_torn_tail_is_skipped_on_read(self, tmp_path):
        heat = self.make_populated(tmp_path)
        heat.flush()
        heat.flush()
        with open(heat.journal, "ab") as fh:
            fh.write(b'{"ts": 1.0, "segments": [["pts", "x"')  # torn line
        records = read_journal(heat.journal)
        assert len(records) == 2
        # And the torn journal still restores and ranks hints.
        restored = HeatMap.from_journal(heat.journal, registry=MetricsRegistry())
        assert restored.hints()["hints"]

    def test_read_journal_missing_file(self, tmp_path):
        assert read_journal(tmp_path / "absent.jsonl") == []

    def test_restore_skips_malformed_rows(self):
        heat = make_heat()
        heat.restore(
            {
                "ts": 1.0,
                "segments": [["pts", "x"], ["pts", "x", 0, 1, 0, 0, 10, 0]],
                "extents": [["pts", 0], ["pts", 0, 0, 1, 10]],
            }
        )
        snapshot = heat.snapshot()
        assert len(snapshot["segments"]) == 1
        assert len(snapshot["extents"]) == 1


class TestJournalCrashSafety:
    """Satellite: the heat journal through the crash-fault harness."""

    def test_flush_fires_the_append_crash_points(self, tmp_path):
        heat = TestJournal().make_populated(tmp_path)
        events = faults.crash_points_hit(heat.flush)
        assert events == ["durable.heat.append_begin", "durable.heat.appended"]

    def test_crash_before_append_loses_only_the_open_window(self, tmp_path):
        heat = TestJournal().make_populated(tmp_path)
        heat.flush()
        with faults.crash_at("durable.heat.append_begin") as state:
            with pytest.raises(InjectedCrash):
                heat.flush()
        assert state["seen"] == 1
        assert len(read_journal(heat.journal)) == 1

    def test_crash_at_every_step_keeps_closed_windows(self, tmp_path):
        heat = TestJournal().make_populated(tmp_path)
        heat.flush()  # one closed window on disk before any injection
        steps = len(faults.crash_points_hit(heat.flush))
        closed = len(read_journal(heat.journal))
        for step in range(steps):
            # Mutate between attempts so every window is distinct.
            heat.record_scan("x", probed=[(step, 64, 0)], table="pts")
            with faults.crash_at_step(step):
                with pytest.raises(InjectedCrash):
                    heat.flush()
            records = read_journal(heat.journal)
            # Never fewer intact windows than before the crash: a death
            # mid-append tears at most the final (open) line.
            assert len(records) >= closed
            closed = len(records)
            # And whatever survived round-trips into ranked hints.
            restored = HeatMap.from_journal(
                heat.journal, registry=MetricsRegistry()
            )
            hints = restored.hints()
            assert hints["version"] == 1
            assert hints["hints"][0]["extent"]
            assert json.loads(json.dumps(hints))["hints"] == hints["hints"]
        # The step after the fsync'd write is durable even though the
        # flush call itself died.
        assert closed >= 2


class TestProcessHeat:
    def test_enable_is_idempotent_and_disable_drops(self):
        assert maybe_heat() is None
        heat = enable_heat()
        assert maybe_heat() is heat
        assert enable_heat() is heat
        disable_heat()
        assert maybe_heat() is None

    def test_enable_restores_from_an_existing_journal(self, tmp_path):
        journal = tmp_path / HEAT_JOURNAL_NAME
        seed = make_heat(journal=journal)
        seed.record_scan("x", probed=[(0, 256, 0)], table="pts")
        seed.flush()
        heat = enable_heat(journal=journal)
        snapshot = heat.snapshot()
        assert snapshot["tables"] == ["pts"]
        assert snapshot["segments"][0]["encoded_bytes"] > 0


class TestScanIntegration:
    def test_compressed_scan_records_segment_heat(self):
        heat = enable_heat(registry=MetricsRegistry())
        rng = np.random.default_rng(5)
        column = CompressedColumn.from_values(
            "v", rng.integers(0, 100_000, 100_000), segment_rows=8192
        )
        column.range_select(10_000, 12_000)
        rows = heat.snapshot(top=50)["segments"]
        assert rows, "compressed range_select recorded no heat"
        assert {row["column"] for row in rows} == {"v"}
        assert {row["table"] for row in rows} == {"?"}  # no in-flight query
        # Every segment got a verdict: probed, skipped or full-accepted.
        outcomes = sum(
            row["probes"] + row["skips"] + row["fulls"] for row in rows
        )
        assert outcomes == pytest.approx(len(column.blocks))
        assert any(row["bytes"] > 0 for row in rows)

    def test_spatial_query_records_footprint_and_segments(self):
        heat = enable_heat(registry=MetricsRegistry())
        db = PointCloudDB()
        db.create_pointcloud("pts")
        rng = np.random.default_rng(9)
        n = 20_000
        db.load_points(
            "pts",
            {
                "x": rng.uniform(0, 100, n),
                "y": rng.uniform(0, 100, n),
                "z": rng.uniform(0, 10, n),
            },
        )
        result = db.spatial_select("pts", Box(10, 10, 30, 30))
        assert len(result) > 0
        snapshot = heat.snapshot(top=50)
        assert "pts" in snapshot["tables"]
        # The query's bbox footprint landed on the extent grid...
        assert snapshot["extents"]
        assert {row["table"] for row in snapshot["extents"]} == {"pts"}
        # ...and the column scans attributed to the query's table.
        assert any(row["table"] == "pts" for row in snapshot["segments"])
        hints = heat.hints()
        assert hints["hints"][0]["table"] == "pts"


class TestHeatCli:
    @pytest.fixture()
    def journal(self, tmp_path):
        heat = make_heat(journal=tmp_path / HEAT_JOURNAL_NAME)
        heat.record_scan(
            "x", probed=[(0, 512, 0), (-1, 0, 2048)], skipped=[1], table="pts"
        )
        heat.record_footprint(
            "pts", bbox=(10, 10, 40, 40), domain=DOMAIN, nbytes=4096
        )
        heat.flush()
        return heat.journal

    def test_report_renders_segments_and_extents(self, journal, capsys):
        assert main(["heat", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "hot segments" in out
        assert "hot extents" in out
        assert "pts" in out
        assert "all" in out  # segment -1 renders as a whole-column scan

    def test_accepts_a_database_directory(self, journal, capsys):
        assert main(["heat", str(journal.parent)]) == 0
        assert "hot segments" in capsys.readouterr().out

    def test_hints_emits_ranked_json(self, journal, capsys):
        assert main(["heat", str(journal), "--hints"]) == 0
        hints = json.loads(capsys.readouterr().out)
        assert hints["version"] == 1
        assert [hint["rank"] for hint in hints["hints"]] == list(
            range(1, len(hints["hints"]) + 1)
        )
        assert all("extent" in hint for hint in hints["hints"])

    def test_json_snapshot(self, journal, capsys):
        assert main(["heat", str(journal), "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["enabled"] is True
        assert snapshot["tables"] == ["pts"]

    def test_missing_journal_fails(self, tmp_path, capsys):
        assert main(["heat", str(tmp_path / "nope.jsonl")]) == 1
        assert "no journal" in capsys.readouterr().err

    def test_journal_with_no_intact_windows_fails(self, tmp_path, capsys):
        path = tmp_path / HEAT_JOURNAL_NAME
        path.write_bytes(b'{"torn": ')
        assert main(["heat", str(path)]) == 1
        assert "no intact windows" in capsys.readouterr().err

"""The slow-query log: thresholds, JSONL query records, span capture."""

import json
import threading

import numpy as np
import pytest

from repro import Box, PointCloudDB
from repro.engine import scan as scan_mod
from repro.obs.context import ObsContext
from repro.obs.flight import FlightRecorder
from repro.obs.queries import query_scope
from repro.obs.slowlog import (
    SLOW_QUERY_ENV,
    SLOW_QUERY_LOG_ENV,
    SlowQueryLog,
    format_record,
    path_from_env,
    read_records,
    threshold_from_env,
)
from repro.obs.trace import maybe_span


def make_db(tmp_path, threshold_s=0.0, n=2000):
    """A db with a private obs context and a slow log at ``threshold_s``."""
    db = PointCloudDB(
        slow_query_s=threshold_s,
        slow_query_log=tmp_path / "slow.jsonl",
        obs=ObsContext.fresh(enabled=False),
    )
    db.create_pointcloud("pts")
    rng = np.random.default_rng(7)
    db.load_points(
        "pts", {name: rng.uniform(0, 100, n) for name in ("x", "y", "z")}
    )
    return db


@pytest.fixture
def context():
    """A private obs context (tracer off), activated for the test."""
    context = ObsContext.fresh(enabled=False)
    with context.activate():
        yield context


@pytest.fixture
def log(tmp_path):
    """A threshold-0 log: every top-level query is slow."""
    return SlowQueryLog(0.0, tmp_path / "slow.jsonl")


class TestEnv:
    def test_unset_means_disarmed(self, monkeypatch):
        monkeypatch.delenv(SLOW_QUERY_ENV, raising=False)
        assert threshold_from_env() is None

    def test_zero_is_a_valid_threshold(self, monkeypatch):
        monkeypatch.setenv(SLOW_QUERY_ENV, "0")
        assert threshold_from_env() == 0.0

    def test_garbage_is_ignored(self, monkeypatch):
        monkeypatch.setenv(SLOW_QUERY_ENV, "fast")
        assert threshold_from_env() is None

    def test_log_path_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(SLOW_QUERY_LOG_ENV, str(tmp_path / "q.jsonl"))
        assert path_from_env() == str(tmp_path / "q.jsonl")
        monkeypatch.delenv(SLOW_QUERY_LOG_ENV)
        assert path_from_env() is None

    def test_negative_threshold_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SlowQueryLog(-1.0, tmp_path / "slow.jsonl")


class TestObserve:
    """What ``query_scope`` does for a query whose owner armed a log."""

    def test_slow_query_appends_exactly_one_record(self, tmp_path):
        db = make_db(tmp_path)
        db.sql("SELECT count(*) FROM pts WHERE x < 50")
        records = read_records(db.slow_log.path)
        assert len(records) == 1
        record = records[0]
        assert record["kind"] == "sql"
        assert record["detail"] == {"sql": "SELECT count(*) FROM pts WHERE x < 50"}
        assert record["rows"] == 1
        assert record["status"] == "finished"
        assert record["elapsed_s"] >= 0.0
        assert "error" not in record
        assert db.obs.registry.counter("slowlog.records").value == 1

    def test_fast_query_writes_nothing(self, context, tmp_path):
        log = SlowQueryLog(3600.0, tmp_path / "slow.jsonl")
        with query_scope("sql", "sql.query", {"sql": "SELECT 1"}, slow_log=log):
            pass
        assert not log.path.exists()
        # Nothing was serialised into the kept record either.
        (record,) = context.queries.recent()
        assert "spans" not in record

    def test_record_embeds_span_tree(self, context, log):
        with query_scope("spatial", "query.spatial", {"table": "pts"}, slow_log=log):
            with maybe_span("imprints.probe"):
                pass
        (record,) = read_records(log.path)
        names = {span["name"] for span in record["spans"]}
        assert names == {"query.spatial", "imprints.probe"}
        # The tree structure survives serialisation.
        by_name = {span["name"]: span for span in record["spans"]}
        assert (
            by_name["imprints.probe"]["parent_id"]
            == by_name["query.spatial"]["span_id"]
        )

    def test_capture_restores_tracer_state(self, context, log):
        assert not context.tracer.enabled
        with query_scope("sql", "sql.query", {"sql": "SELECT 1"}, slow_log=log):
            assert context.tracer.enabled
        assert not context.tracer.enabled

    def test_raising_query_still_logged_with_error(self, context, log):
        with pytest.raises(RuntimeError):
            with query_scope("sql", "sql.query", {"sql": "boom"}, slow_log=log):
                raise RuntimeError("boom")
        (record,) = read_records(log.path)
        assert record["status"] == "error"
        assert record["error"] == "RuntimeError"

    def test_records_accumulate_as_jsonl(self, tmp_path):
        db = make_db(tmp_path)
        for i in range(3):
            db.sql(f"SELECT count(*) FROM pts WHERE x < {i}")
        records = read_records(db.slow_log.path)
        assert [r["detail"]["sql"] for r in records] == [
            f"SELECT count(*) FROM pts WHERE x < {i}" for i in range(3)
        ]


class TestOneRecord:
    def test_log_ring_and_flight_dump_hold_the_same_record(self, tmp_path):
        """One query, one record: the slow-log line, the registry's
        recent ring and a flight dump's snapshot are the same dict."""
        db = make_db(tmp_path)
        db.spatial_select("pts", Box(10, 10, 60, 60))
        db.sql("SELECT avg(z) FROM pts WHERE x < 50")
        logged = read_records(db.slow_log.path)
        assert [r["kind"] for r in logged] == ["spatial", "sql"]
        recent = {r["query_id"]: r for r in db.active_queries()["recent"]}
        path = FlightRecorder(directory=tmp_path, queries=db.obs.queries).dump(
            "test"
        )
        dumped = {
            r["query_id"]: r
            for r in json.loads(path.read_text())["queries"]["recent"]
        }
        for record in logged:
            assert record["spans"]
            assert record == recent[record["query_id"]]
            assert record == dumped[record["query_id"]]


class TestReadRecords:
    def test_torn_final_line_is_skipped(self, tmp_path):
        db = make_db(tmp_path)
        db.sql("SELECT count(*) FROM pts")
        with open(db.slow_log.path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "sql", "elaps')  # crash mid-append
        records = read_records(db.slow_log.path)
        assert len(records) == 1

    def test_blank_and_non_dict_lines_are_skipped(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        path.write_text('\n{"kind": "sql"}\n\n[1, 2]\n"str"\n')
        assert read_records(path) == [{"kind": "sql"}]


class TestFormatRecord:
    def test_header_and_span_tree(self, tmp_path):
        db = make_db(tmp_path)
        db.sql("SELECT count(*) FROM pts")
        (record,) = read_records(db.slow_log.path)
        text = format_record(record)
        lines = text.splitlines()
        assert lines[0].startswith(f"{record['query_id']} sql finished, took")
        assert "sql=SELECT count(*) FROM pts" in lines[0]
        assert lines[1].startswith("sql.query")

    def test_tolerates_minimal_record(self):
        assert format_record({}) == "? ? ?, took 0.0 ms"


class TestPointCloudDBIntegration:
    @pytest.fixture
    def db(self, tmp_path):
        return make_db(tmp_path)

    def test_spatial_select_logs_one_record(self, db):
        result = db.spatial_select("pts", Box(10, 10, 60, 60))
        (record,) = read_records(db.slow_log.path)
        assert record["kind"] == "spatial"
        assert record["detail"]["table"] == "pts"
        assert record["bbox"] == [10.0, 10.0, 60.0, 60.0]
        assert record["rows"] == len(result)
        assert record["resources"]["cpu_seconds"] >= 0.0
        assert {"filter_seconds", "n_segments_probed", "imprint_columns"} <= set(
            record["stats"]
        )
        assert any(s["name"].startswith("query.") for s in record["spans"])

    def test_records_carry_query_identity_and_scan_bytes(self, db):
        result = db.spatial_select("pts", Box(10, 10, 60, 60))
        (record,) = read_records(db.slow_log.path)
        assert record["query_id"] == result.stats.query_id
        assert record["query_id"].startswith("q")
        # This db has no packed columns, so nothing was scanned encoded;
        # probing boundary segments materializes their values.
        assert record["resources"]["encoded_bytes"] == 0
        assert record["resources"]["materialized_bytes"] > 0

    def test_sql_record_carries_query_identity(self, db):
        db.sql("SELECT avg(z) FROM pts WHERE x < 50")
        records = [
            r for r in read_records(db.slow_log.path) if r["kind"] == "sql"
        ]
        record = records[0]
        assert record["query_id"].startswith("q")
        assert record["resources"]["encoded_bytes"] >= 0
        assert record["resources"]["materialized_bytes"] >= 0

    def test_sql_logs_one_record(self, db):
        db.sql("SELECT avg(z) FROM pts WHERE x < 50")
        records = [
            r for r in read_records(db.slow_log.path) if r["kind"] == "sql"
        ]
        assert len(records) == 1
        record = records[0]
        assert record["detail"]["sql"] == "SELECT avg(z) FROM pts WHERE x < 50"
        assert record["rows"] == 1
        assert record["resources"]["rows_touched"] > 0

    def test_sql_spatial_subquery_writes_no_record_of_its_own(self, db):
        db.sql(
            "SELECT count(*) FROM pts WHERE "
            "ST_Contains(ST_MakeEnvelope(10, 10, 60, 60), ST_Point(x, y))"
        )
        (record,) = read_records(db.slow_log.path)
        assert record["kind"] == "sql"
        # The spatial pipeline did run, nested under the statement.
        assert any(
            q["kind"] == "spatial" and q.get("parent_id") == record["query_id"]
            for q in db.active_queries()["recent"]
        )

    def test_raising_query_logged_with_identity(self, db):
        with pytest.raises(Exception) as err:
            db.sql("SELECT nope FROM pts")
        (record,) = read_records(db.slow_log.path)
        assert record["kind"] == "sql"
        assert record["error"] == type(err.value).__name__
        assert record["query_id"].startswith("q")
        assert "resources" in record

    def test_overlapping_queries_log_only_their_own_spans(
        self, tmp_path, monkeypatch
    ):
        context = ObsContext.fresh(enabled=False)
        db = PointCloudDB(
            slow_query_s=0.0, slow_query_log=tmp_path / "slow.jsonl", obs=context
        )
        db.create_pointcloud("pts")
        rng = np.random.default_rng(7)
        db.load_points(
            "pts",
            {"x": rng.uniform(0, 100, 2000), "y": rng.uniform(0, 100, 2000)},
        )
        box = Box(10, 10, 60, 60)
        db.spatial_select("pts", box)  # build the imprints first
        both_probing = threading.Barrier(2, timeout=5)
        waited = set()

        def hook(_segment):
            # Each thread's first probe waits for the other's: the two
            # queries are both inside their scans at once.
            me = threading.get_ident()
            if me not in waited:
                waited.add(me)
                both_probing.wait()

        monkeypatch.setattr(scan_mod, "probe_hook", hook)
        threads = [
            threading.Thread(target=db.spatial_select, args=("pts", box))
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        records = read_records(db.slow_log.path)[1:]
        assert len(records) == 2 and len(waited) == 2
        trace_ids = set()
        for record in records:
            (root,) = [s for s in record["spans"] if s["parent_id"] is None]
            assert root["attributes"]["query_id"] == record["query_id"]
            assert {s["trace_id"] for s in record["spans"]} == {root["trace_id"]}
            trace_ids.add(root["trace_id"])
        assert len(trace_ids) == 2
        assert context.tracer.enabled is False

    def test_fast_query_below_threshold_writes_nothing(self, tmp_path):
        db = PointCloudDB(
            slow_query_s=3600.0, slow_query_log=tmp_path / "slow.jsonl"
        )
        db.create_pointcloud("pts")
        db.load_points("pts", {"x": np.arange(10.0), "y": np.arange(10.0)})
        db.spatial_select("pts", Box(0, 0, 5, 5))
        db.sql("SELECT count(*) FROM pts WHERE x < 5")
        assert not (tmp_path / "slow.jsonl").exists()

    def test_disarmed_db_has_no_slow_log(self, monkeypatch):
        monkeypatch.delenv(SLOW_QUERY_ENV, raising=False)
        assert PointCloudDB().slow_log is None

    def test_env_arms_and_places_log(self, monkeypatch, tmp_path):
        monkeypatch.setenv(SLOW_QUERY_ENV, "0")
        monkeypatch.setenv(SLOW_QUERY_LOG_ENV, str(tmp_path / "env.jsonl"))
        db = PointCloudDB()
        assert db.slow_log is not None
        assert db.slow_log.threshold_s == 0.0
        assert db.slow_log.path == tmp_path / "env.jsonl"

"""End-to-end tests for the repro-gis command-line interface."""

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def tile_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_tiles")
    code = main(
        [
            "generate",
            "--points",
            "5000",
            "--tiles",
            "2",
            "--seed",
            "3",
            "--out",
            str(directory),
        ]
    )
    assert code == 0
    return directory


@pytest.fixture(scope="module")
def db_dir(tmp_path_factory, tile_dir):
    directory = tmp_path_factory.mktemp("cli_db")
    code = main(["load", str(tile_dir), "--db", str(directory)])
    assert code == 0
    return directory


class TestGenerateInfo:
    def test_generate_wrote_tiles(self, tile_dir):
        assert len(list(tile_dir.glob("*.las"))) == 4

    def test_generate_laz(self, tmp_path):
        code = main(
            [
                "generate",
                "--points",
                "1000",
                "--tiles",
                "1",
                "--laz",
                "--out",
                str(tmp_path / "laz_tiles"),
            ]
        )
        assert code == 0
        assert len(list((tmp_path / "laz_tiles").glob("*.laz"))) == 1

    def test_info(self, tile_dir, capsys):
        assert main(["info", str(tile_dir)]) == 0
        out = capsys.readouterr().out
        assert "total: 4 files, 5000 points" in out

    def test_info_empty_dir(self, tmp_path, capsys):
        assert main(["info", str(tmp_path)]) == 1

    def test_info_wgs84(self, tile_dir, capsys):
        assert main(["info", str(tile_dir), "--wgs84"]) == 0
        out = capsys.readouterr().out
        assert "WGS84 bounds" in out
        # The test extent (RD 85-87 km E, 445-447 km N) maps near
        # (52.0 N, 4.4 E) — the Delft area.
        assert "(51.9" in out or "(52.0" in out


class TestLoadQuerySql:
    def test_load_persists(self, db_dir):
        assert (db_dir / "points" / "schema.json").exists()

    def test_query(self, db_dir, capsys):
        code = main(
            [
                "query",
                str(db_dir),
                "--wkt",
                "POLYGON ((85000 445000, 87000 445000, 87000 447000,"
                " 85000 447000, 85000 445000))",
                "--show",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "5000 points" in out

    def test_query_dwithin(self, db_dir, capsys):
        code = main(
            [
                "query",
                str(db_dir),
                "--wkt",
                "LINESTRING (85000 446000, 87000 446000)",
                "--predicate",
                "dwithin",
                "--distance",
                "100",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "points in" in out
        # The footer says how the probed segments were compared and whose
        # imprint vectors took part.
        assert " dense, " in out and " gather; imprints: " in out

    def test_query_bad_wkt(self, db_dir, capsys):
        assert main(["query", str(db_dir), "--wkt", "NONSENSE (1 2)"]) == 1
        assert "error" in capsys.readouterr().err

    def test_sql(self, db_dir, capsys):
        code = main(["sql", str(db_dir), "SELECT count(*) FROM points"])
        assert code == 0
        out = capsys.readouterr().out
        assert "5000" in out

    def test_sql_group_by_limit(self, db_dir, capsys):
        code = main(
            [
                "sql",
                str(db_dir),
                "SELECT classification, count(*) FROM points "
                "GROUP BY classification ORDER BY 2 DESC",
                "--limit",
                "2",
            ]
        )
        assert code == 0

    def test_sql_error(self, db_dir, capsys):
        assert main(["sql", str(db_dir), "SELECT FROM nothing"]) == 1

    def test_sql_explain(self, db_dir, capsys):
        code = main(
            [
                "sql",
                str(db_dir),
                "SELECT count(*) FROM points WHERE z BETWEEN 0 AND 5",
                "--explain",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "range filter via imprint on 'z'" in out

    def test_sql_analyze(self, db_dir, capsys):
        code = main(
            [
                "sql",
                str(db_dir),
                "SELECT count(*) FROM points WHERE z BETWEEN 0 AND 5",
                "--analyze",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sql.query" in out
        assert "filter.range" in out
        assert "rows returned:" in out

    def test_query_empty_table_prints_dash_selectivity(
        self, tmp_path, capsys
    ):
        from repro.api import PointCloudDB

        db = PointCloudDB(directory=tmp_path / "empty_db")
        db.create_pointcloud("points")
        db.save()
        code = main(
            [
                "query",
                str(tmp_path / "empty_db"),
                "--wkt",
                "POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0 points" in out
        assert "(- of 0 rows)" in out


class TestTrace:
    def test_trace_chrome_export(self, db_dir, tmp_path, capsys):
        import json

        from repro.obs.trace import get_tracer

        out_path = tmp_path / "trace.json"
        code = main(
            [
                "trace",
                str(db_dir),
                "--sql",
                "SELECT count(*) FROM points WHERE z > 1",
                "--export",
                "chrome",
                "--out",
                str(out_path),
            ]
        )
        get_tracer().disable()
        assert code == 0
        payload = json.loads(out_path.read_text())
        metadata = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        events = [e for e in payload["traceEvents"] if e["ph"] != "M"]
        assert events
        assert any(e["name"] == "thread_name" for e in metadata)
        names = {event["name"] for event in events}
        assert "sql.query" in names
        for event in events:
            assert event["ph"] == "X"
            assert {"name", "ts", "dur", "pid", "tid"} <= set(event)

    def test_trace_json_export_last_n(self, db_dir, capsys):
        import json

        from repro.obs.trace import get_tracer

        code = main(
            [
                "trace",
                str(db_dir),
                "--wkt",
                "POLYGON ((85000 445000, 86000 445000, 86000 446000,"
                " 85000 446000, 85000 445000))",
                "--export",
                "json",
                "--last",
                "1",
            ]
        )
        get_tracer().disable()
        assert code == 0
        records = json.loads(capsys.readouterr().out)
        assert records
        names = {record["name"] for record in records}
        assert "query.spatial" in names
        # --last 1: exactly one trace (query tree) exported.
        assert len({record["trace_id"] for record in records}) == 1

    def test_trace_needs_a_query(self, db_dir, capsys):
        assert main(["trace", str(db_dir)]) == 1
        assert "--sql or --wkt" in capsys.readouterr().err


class TestTimeouts:
    HALF_BOX = (
        "POLYGON ((85000 445000, 86000 445000, 86000 446000,"
        " 85000 446000, 85000 445000))"
    )

    def test_query_timeout_cancels(self, db_dir, capsys):
        code = main(
            ["query", str(db_dir), "--wkt", self.HALF_BOX, "--timeout", "0"]
        )
        assert code == 1
        assert "cancelled" in capsys.readouterr().err

    def test_sql_timeout_cancels(self, db_dir, capsys):
        code = main(
            [
                "sql",
                str(db_dir),
                "SELECT count(*) FROM points WHERE x < 86000",
                "--timeout",
                "0",
            ]
        )
        assert code == 1
        assert "cancelled" in capsys.readouterr().err


class TestQueriesCommand:
    @pytest.fixture
    def live_server(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.queries import QueryRegistry
        from repro.obs.server import TelemetryServer
        from repro.obs.trace import Tracer

        registry = QueryRegistry()
        server = TelemetryServer(
            port=0,
            registry=MetricsRegistry(),
            tracer=Tracer(enabled=False),
            queries=registry,
        )
        with server:
            yield server, registry

    def test_renders_active_and_recent(self, live_server, capsys):
        server, registry = live_server
        with registry.track("spatial", detail={"table": "pts"}) as query:
            code = main(["queries", "--url", server.url])
        assert code == 0
        out = capsys.readouterr().out
        assert "active (1):" in out
        assert query.query_id in out
        # Retired, it is rendered as its record.
        assert main(["queries", "--url", server.url]) == 0
        out = capsys.readouterr().out
        assert "active (0):" in out
        assert f"  {query.query_id} spatial finished, took" in out
        assert "table=pts" in out

    def test_json_output(self, live_server, capsys):
        import json

        server, registry = live_server
        with registry.track("sql"):
            pass
        assert main(["queries", "--url", server.url, "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["active"] == []
        assert snapshot["recent"][0]["kind"] == "sql"

    def test_unreachable_server_errors_cleanly(self, capsys):
        assert main(["queries", "--url", "http://127.0.0.1:1"]) == 1
        assert "cannot fetch" in capsys.readouterr().err


class TestSlowlogCommand:
    @pytest.fixture
    def log_path(self, db_dir, tmp_path):
        from repro.api import PointCloudDB
        from repro.obs.slowlog import SlowQueryLog

        db = PointCloudDB.load(db_dir)
        path = tmp_path / "slow.jsonl"
        db.slow_log = SlowQueryLog(0.0, path)
        db.sql("SELECT count(*) FROM points WHERE z > 2")
        return path

    def test_pretty_output(self, log_path, capsys):
        assert main(["slowlog", str(log_path)]) == 0
        captured = capsys.readouterr()
        assert "sql finished, took" in captured.out
        assert "SELECT count(*) FROM points" in captured.out
        assert "sql.query" in captured.out  # the span tree
        assert "(1 slow queries)" in captured.err

    def test_json_output(self, log_path, capsys):
        import json

        assert main(["slowlog", str(log_path), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["kind"] == "sql"

    def test_last_limits_records(self, log_path, capsys):
        assert main(["slowlog", str(log_path), "--last", "0"]) == 0

    def test_missing_file_errors(self, tmp_path, capsys):
        assert main(["slowlog", str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().err


class TestToolCommands:
    def test_sort(self, tile_dir, tmp_path, capsys):
        src = sorted(tile_dir.glob("*.las"))[0]
        dst = tmp_path / "sorted.las"
        code = main(["sort", str(src), str(dst), "--curve", "hilbert"])
        assert code == 0
        assert dst.exists()

    def test_index(self, tile_dir, capsys):
        code = main(["index", str(tile_dir), "--leaf-capacity", "500"])
        assert code == 0
        assert len(list(tile_dir.glob("*.lax"))) == 4

    def test_render(self, tile_dir, tmp_path, capsys):
        out = tmp_path / "render.ppm"
        code = main(["render", str(tile_dir), str(out), "--width", "64"])
        assert code == 0
        assert out.exists()
        assert out.read_bytes().startswith(b"P6")

    def test_render_empty(self, tmp_path):
        assert main(["render", str(tmp_path), str(tmp_path / "x.ppm")]) == 1

    def test_elevation(self, tile_dir, tmp_path, capsys):
        out = tmp_path / "elev"
        code = main(
            ["elevation", str(tile_dir), "--out", str(out), "--cell", "50"]
        )
        assert code == 0
        for name in ("dsm.pgm", "dtm.pgm", "chm.pgm", "hillshade.ppm"):
            assert (out / name).exists()

    def test_elevation_empty(self, tmp_path):
        assert (
            main(["elevation", str(tmp_path), "--out", str(tmp_path / "o")])
            == 1
        )


class TestVerifyCommand:
    """`repro-gis verify` exit codes: the contract CI and probes rely on."""

    @pytest.fixture
    def own_db(self, tmp_path, tile_dir):
        directory = tmp_path / "verify_db"
        assert main(["load", str(tile_dir), "--db", str(directory)]) == 0
        return directory

    def _corrupt(self, db):
        target = db / "points" / "x.col"
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0xFF
        target.write_bytes(bytes(data))

    def test_clean_store_exits_zero(self, own_db, capsys):
        assert main(["verify", str(own_db)]) == 0
        assert "verify: OK" in capsys.readouterr().out

    def test_corrupt_store_exits_nonzero(self, own_db, capsys):
        self._corrupt(own_db)
        assert main(["verify", str(own_db)]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out
        assert "verify: FAILED" in out

    def test_json_output_clean(self, own_db, capsys):
        import json

        assert main(["verify", str(own_db), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["tables"]["points"]["ok"] is True
        assert report["imprints"]["ok"] is True

    def test_json_output_corrupt(self, own_db, capsys):
        import json

        self._corrupt(own_db)
        assert main(["verify", str(own_db), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False

    def test_repair_then_clean(self, own_db, capsys):
        self._corrupt(own_db)
        assert main(["verify", str(own_db)]) == 1
        capsys.readouterr()
        # Repair quarantines/rolls back the bad column, then re-verifies.
        main(["verify", str(own_db), "--repair"])
        capsys.readouterr()
        assert main(["verify", str(own_db)]) in (0, 1)


class TestServeCommand:
    def test_serves_queries_for_deadline(self, db_dir, capsys):
        import json
        import re
        import threading
        import time
        import urllib.request

        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(
                main(
                    [
                        "serve",
                        str(db_dir),
                        "--port",
                        "0",
                        "--for-seconds",
                        "1.5",
                    ]
                )
            )
        )
        thread.start()
        printed, base = "", None
        for _ in range(150):
            printed += capsys.readouterr().out
            match = re.search(r"http://[\d.]+:\d+", printed)
            if match:
                base = match.group(0)
                break
            time.sleep(0.05)
        assert base is not None, f"no URL printed: {printed!r}"
        request = urllib.request.Request(
            base + "/v1/query",
            data=json.dumps(
                {
                    "table": "points",
                    "bbox": [85000, 445000, 87000, 447000],
                    "limit": 5,
                }
            ).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            payload = json.loads(response.read())
        thread.join(timeout=30)
        assert codes == [0]
        assert payload["meta"]["n_results"] == 5000
        assert payload["meta"]["n_returned"] == 5
        assert "serving queries on" in printed
        # The banner lists every route the daemon answers.
        from repro.serve import ServeHandler

        banner = printed[printed.index("serving queries on"):].splitlines()[0]
        for route in ServeHandler.known_routes.split():
            assert route.replace("POST:", "POST ") in banner, route

    def test_profiler_starts_after_the_store_is_open(self, db_dir, monkeypatch):
        import threading

        from repro import PointCloudDB
        from repro.obs.profiler import maybe_profiler, reset_profiler

        real_load = PointCloudDB.load
        sampling_during_load = []

        def load(*args, **kwargs):
            profiler = maybe_profiler()
            sampling_during_load.append(profiler is not None and profiler.running)
            return real_load(*args, **kwargs)

        monkeypatch.setattr(PointCloudDB, "load", staticmethod(load))
        reset_profiler()
        codes = []
        # A worker thread, so serve does not install signal handlers here.
        thread = threading.Thread(
            target=lambda: codes.append(
                main(["serve", str(db_dir), "--port", "0", "--for-seconds", "0"])
            )
        )
        try:
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert codes == [0]
            assert sampling_during_load == [False]
            # ...and serving did start it afterwards.
            assert maybe_profiler() is not None
        finally:
            reset_profiler()

    def test_port_in_use_is_actionable(self, db_dir, capsys):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.server import TelemetryServer
        from repro.obs.trace import Tracer

        blocker = TelemetryServer(
            port=0, registry=MetricsRegistry(), tracer=Tracer(enabled=False)
        ).start()
        try:
            code = main(
                ["serve", str(db_dir), "--port", str(blocker.port)]
            )
        finally:
            blocker.stop()
        assert code == 1
        err = capsys.readouterr().err
        assert str(blocker.port) in err
        assert "in use" in err

"""The telemetry HTTP endpoint: routes, content types, lifecycle."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import Box, PointCloudDB
from repro.obs.context import ObsContext
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.openmetrics import CONTENT_TYPE, render
from repro.obs.queries import QueryRegistry
from repro.obs.server import DEFAULT_PORT, TelemetryServer
from repro.obs.trace import Tracer


def get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers, response.read().decode("utf-8")


@pytest.fixture
def server():
    """A telemetry server on an OS-picked port, with its own registry."""
    registry = MetricsRegistry()
    tracer = Tracer(enabled=False)
    srv = TelemetryServer(
        port=0, registry=registry, tracer=tracer, queries=QueryRegistry()
    )
    srv.start()
    yield srv
    srv.stop()


class TestRoutes:
    def test_metrics_serves_openmetrics(self, server):
        server.registry.counter("sql.queries").inc(3)
        status, headers, body = get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == CONTENT_TYPE
        assert "sql_queries_total 3" in body
        assert body.endswith("# EOF\n")

    def test_healthz_without_callback(self, server):
        status, headers, body = get(server.url + "/healthz")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        assert json.loads(body) == {"status": "ok"}

    def test_healthz_merges_callback_fields(self):
        srv = TelemetryServer(
            port=0,
            registry=MetricsRegistry(),
            tracer=Tracer(enabled=False),
            health=lambda: {"tables": {"points": 42}},
        )
        with srv:
            _status, _headers, body = get(srv.url + "/healthz")
        assert json.loads(body) == {"status": "ok", "tables": {"points": 42}}

    def test_healthz_failing_callback_returns_500(self):
        def broken():
            raise RuntimeError("catalog unreadable")

        srv = TelemetryServer(
            port=0,
            registry=MetricsRegistry(),
            tracer=Tracer(enabled=False),
            health=broken,
        )
        with srv:
            with pytest.raises(urllib.error.HTTPError) as err:
                get(srv.url + "/healthz")
        assert err.value.code == 500
        payload = json.loads(err.value.read().decode("utf-8"))
        assert payload["status"] == "error"
        assert "catalog unreadable" in payload["error"]

    def test_debug_trace_returns_recent_spans(self, server):
        tracer = server.tracer
        tracer.enable()
        for i in range(3):
            with tracer.span(f"q{i}"):
                pass
        _status, headers, body = get(server.url + "/debug/trace?last=2")
        assert headers["Content-Type"].startswith("application/json")
        names = [span["name"] for span in json.loads(body)]
        assert names == ["q1", "q2"]

    def test_debug_trace_rejects_bad_last(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server.url + "/debug/trace?last=soon")
        assert err.value.code == 400

    def test_debug_queries_shows_active_then_recent(self, server):
        with server.queries.track("spatial", detail={"table": "pts"}) as query:
            _status, headers, body = get(server.url + "/debug/queries")
            assert headers["Content-Type"].startswith("application/json")
            snapshot = json.loads(body)
            assert [q["query_id"] for q in snapshot["active"]] == [
                query.query_id
            ]
            assert snapshot["active"][0]["status"] == "running"
        _status, _headers, body = get(server.url + "/debug/queries")
        snapshot = json.loads(body)
        assert snapshot["active"] == []
        assert snapshot["recent"][0]["query_id"] == query.query_id
        assert snapshot["recent"][0]["status"] == "finished"

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server.url + "/nope")
        assert err.value.code == 404
        assert "/debug/queries" in err.value.read().decode("utf-8")

    def test_requests_increment_counter(self, server):
        counter = server.registry.counter("obs.http_requests")
        before = counter.value
        get(server.url + "/metrics")
        get(server.url + "/healthz")
        assert counter.value - before == 2


class TestLifecycle:
    def test_port_zero_binds_a_real_port(self, server):
        assert server.port > 0
        assert server.running

    def test_server_up_gauge_tracks_lifecycle(self):
        registry = MetricsRegistry()
        srv = TelemetryServer(
            port=0, registry=registry, tracer=Tracer(enabled=False)
        )
        gauge = registry.gauge("obs.server_up")
        srv.start()
        assert gauge.value == 1.0
        srv.stop()
        assert gauge.value == 0.0

    def test_stop_is_idempotent(self):
        srv = TelemetryServer(
            port=0, registry=MetricsRegistry(), tracer=Tracer(enabled=False)
        )
        srv.start()
        srv.stop()
        srv.stop()
        assert not srv.running

    def test_start_twice_is_a_noop(self, server):
        port = server.port
        assert server.start() is server
        assert server.port == port

    def test_defaults_to_global_singletons(self):
        srv = TelemetryServer()
        assert srv.registry is get_registry()


class TestConcurrentScrapes:
    """The endpoint under fire: parallel scrapers during live queries."""

    N_SCRAPERS = 6

    @pytest.fixture
    def context_db(self):
        context = ObsContext.fresh(enabled=False)
        db = PointCloudDB(obs=context)
        db.create_pointcloud("pts")
        rng = np.random.default_rng(13)
        db.load_points(
            "pts",
            {
                "x": rng.uniform(0, 100, 10_000),
                "y": rng.uniform(0, 100, 10_000),
                "z": rng.uniform(0, 10, 10_000),
            },
        )
        return context, db

    def test_scrapes_never_fail_while_queries_run(self, context_db):
        context, db = context_db
        server = TelemetryServer(
            port=0,
            registry=context.registry,
            tracer=context.tracer,
            queries=context.queries,
        )
        failures = []
        request_counts = [0] * self.N_SCRAPERS
        stop = threading.Event()

        def scrape(index, path):
            while not stop.is_set():
                try:
                    status, _headers, body = get(server.url + path)
                except Exception as exc:  # any 5xx/parse failure is a bug
                    failures.append((path, repr(exc)))
                    return
                request_counts[index] += 1
                if status != 200:
                    failures.append((path, status))
                    return
                if path == "/metrics" and not body.endswith("# EOF\n"):
                    failures.append((path, "truncated render"))
                    return
                if path == "/debug/queries":
                    snapshot = json.loads(body)
                    if set(snapshot) != {"active", "recent"}:
                        failures.append((path, "malformed snapshot"))
                        return

        with server:
            scrapers = [
                threading.Thread(
                    target=scrape,
                    args=(i, "/metrics" if i % 2 == 0 else "/debug/queries"),
                )
                for i in range(self.N_SCRAPERS)
            ]
            for thread in scrapers:
                thread.start()
            for _ in range(10):
                db.spatial_select("pts", Box(20, 20, 80, 80))
            stop.set()
            for thread in scrapers:
                thread.join(timeout=30.0)
            assert failures == []
            # Consistency: every successful scrape was counted exactly once.
            counter = context.registry.counter("obs.http_requests")
            assert counter.value == sum(request_counts)
        assert all(count > 0 for count in request_counts)

    def test_render_is_byte_stable_when_quiet(self, context_db):
        context, db = context_db
        db.spatial_select("pts", Box(20, 20, 80, 80))
        assert render(context.registry) == render(context.registry)


class TestPortResolution:
    def test_explicit_port_wins(self):
        assert TelemetryServer(port=4321).port == 4321

    def test_default_port(self):
        assert TelemetryServer().port == DEFAULT_PORT == 9464

"""The query daemon over real HTTP: status mapping, overload, faults.

Drives a live :class:`QueryDaemon` on an ephemeral port.  The overload
and drain tests use the fault harness's ``stall_at`` to park requests on
the ``serve.request.admitted`` crash point — deterministic in-flight
load without timing games — and the client-fault tests use
``faults.raw_post`` to behave the way well-written clients don't.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import PointCloudDB
from repro.core.imprints import ImprintsManager
from repro.engine import scan as scan_mod
from repro.obs.context import ObsContext
from repro.serve import wire
from repro.serve.http import QueryDaemon
from repro.serve.quotas import TenantBudget
from repro.serve.service import QueryService, ServiceConfig
from repro.serve.snapshot import SnapshotManager
from tests import faults

N_POINTS = 60_000
BBOX = [10.0, 10.0, 60.0, 60.0]


def make_db(context, n=N_POINTS):
    db = PointCloudDB(obs=context)
    db.manager = ImprintsManager(segment_rows=2048)
    db.create_pointcloud("pts")
    rng = np.random.default_rng(29)
    db.load_points(
        "pts",
        {
            "x": rng.uniform(0, 100, n),
            "y": rng.uniform(0, 100, n),
            "z": rng.uniform(0, 10, n),
        },
    )
    return db


def post(url, payload, headers=None, timeout=30):
    """POST JSON; returns (status, headers, body bytes) without raising."""
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def get(url, timeout=10):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


@pytest.fixture(scope="module")
def daemon():
    context = ObsContext.fresh(enabled=False)
    db = make_db(context)
    manager = SnapshotManager(loader=lambda: db, obs=context)
    config = ServiceConfig(
        max_concurrency=4,
        quotas={"broke": TenantBudget(cpu_seconds=0.0)},
    )
    service = QueryService(manager, config=config, obs=context)
    server = QueryDaemon(service, port=0).start()
    yield server, context
    server.stop()


def tcp_send_buffer_limit():
    """Most bytes a TCP socket's autotuned send buffer grows to (Linux
    ``tcp_wmem`` maximum; the kernel default elsewhere)."""
    try:
        with open("/proc/sys/net/ipv4/tcp_wmem") as f:
            return int(f.read().split()[2])
    except (OSError, IndexError, ValueError):
        return 4 << 20


def small_daemon(context, **config_kwargs):
    """A function-scoped daemon over a small store (overload/drain tests)."""
    db = make_db(context, n=2000)
    manager = SnapshotManager(loader=lambda: db, obs=context)
    service = QueryService(
        manager, config=ServiceConfig(**config_kwargs), obs=context
    )
    return QueryDaemon(service, port=0).start()


class TestHappyPaths:
    def test_spatial_query_json(self, daemon):
        server, _ = daemon
        status, headers, body = post(
            server.url + "/v1/query", {"table": "pts", "bbox": BBOX}
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["meta"]["n_results"] > 0
        assert payload["columns"] == ["x", "y", "z"]
        assert "traceparent" not in headers or headers["traceparent"]

    def test_spatial_query_columnar(self, daemon):
        server, _ = daemon
        status, headers, body = post(
            server.url + "/v1/query",
            {"table": "pts", "bbox": BBOX, "format": "columnar"},
        )
        assert status == 200
        assert headers["Content-Type"] == wire.CONTENT_TYPE
        meta = json.loads(headers["X-Repro-Meta"])
        columns = wire.decode_columns(body)
        assert columns["x"].shape[0] == meta["n_returned"]

    def test_sql_json(self, daemon):
        server, _ = daemon
        status, _, body = post(
            server.url + "/v1/sql", {"sql": "SELECT COUNT(*) FROM pts"}
        )
        assert status == 200
        assert json.loads(body)["rows"][0][0] == N_POINTS

    def test_traceparent_propagates(self, daemon):
        server, _ = daemon
        inbound = "00-000102030405060708090a0b0c0d0e0f-0001020304050607-01"
        status, headers, _ = post(
            server.url + "/v1/query",
            {"table": "pts", "bbox": BBOX, "limit": 1},
            headers={"traceparent": inbound},
        )
        assert status == 200
        assert headers["traceparent"].split("-")[1] == inbound.split("-")[1]

    def test_debug_serve_endpoint(self, daemon):
        server, _ = daemon
        status, body = get(server.url + "/debug/serve")
        assert status == 200
        state = json.loads(body)
        assert state["admission"]["max_concurrency"] == 4
        assert "default" in state["tenants"] or state["tenants"] == {}
        assert state["generation"] == 0

    def test_healthz_reports_service_state(self, daemon):
        server, _ = daemon
        status, body = get(server.url + "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["tables"] == {"pts": N_POINTS}
        assert "admission" in payload


class TestStatusMapping:
    def test_unknown_route_404(self, daemon):
        server, _ = daemon
        status, _, body = post(server.url + "/v1/nope", {})
        assert status == 404
        assert b"/v1/query" in body

    def test_invalid_json_400(self, daemon):
        server, _ = daemon
        response = faults.raw_post(
            server.host, server.port, "/v1/query", b"{not json"
        )
        assert b"400" in response.split(b"\r\n", 1)[0]
        assert b"bad_request" in response

    def test_non_object_body_400(self, daemon):
        server, _ = daemon
        status, _, body = post(server.url + "/v1/query", [1, 2, 3])
        assert status == 400

    def test_unknown_table_404(self, daemon):
        server, _ = daemon
        status, _, body = post(
            server.url + "/v1/query", {"table": "missing", "bbox": BBOX}
        )
        assert status == 404
        payload = json.loads(body)
        assert payload["error"] == "not_found"
        assert "missing" in payload["message"]

    def test_sql_error_400(self, daemon):
        server, _ = daemon
        status, _, body = post(
            server.url + "/v1/sql", {"sql": "SELECT x FROM missing"}
        )
        assert status == 400
        assert json.loads(body)["error"] == "sql_error"

    def test_quota_exhausted_403_with_report(self, daemon):
        server, _ = daemon
        status, _, body = post(
            server.url + "/v1/query",
            {"table": "pts", "bbox": BBOX},
            headers={"X-Tenant": "broke"},
        )
        assert status == 403
        payload = json.loads(body)
        assert payload["error"] == "quota_exceeded"
        assert payload["report"]["budget"]["cpu_seconds"]["exhausted"]

    def test_body_too_large_413(self, daemon):
        server, _ = daemon
        response = faults.raw_post(
            server.host,
            server.port,
            "/v1/query",
            b"{}",
            headers={"Content-Length": str(64 * 1024 * 1024)},
        )
        assert b"413" in response.split(b"\r\n", 1)[0]

    def test_cancelled_query_408_contract(self, daemon):
        """Satellite: over HTTP a timed-out request answers 408 with
        query_id/elapsed_s, the registry record retires as cancelled,
        and query.cancelled increments exactly once."""
        server, context = daemon
        before = context.registry.counter("query.cancelled").value
        scan_mod.probe_hook = lambda _seg: time.sleep(0.02)
        try:
            status, _, body = post(
                server.url + "/v1/query",
                {"table": "pts", "bbox": BBOX, "timeout_s": 0.01},
            )
        finally:
            scan_mod.probe_hook = None
        assert status == 408
        payload = json.loads(body)
        assert payload["error"] == "cancelled"
        assert payload["query_id"]
        assert payload["elapsed_s"] >= 0.01
        assert payload["timeout_s"] == 0.01
        assert (
            context.registry.counter("query.cancelled").value == before + 1
        )
        records = [
            r
            for r in context.queries.recent()
            if r["query_id"] == payload["query_id"]
        ]
        assert len(records) == 1
        assert records[0]["status"] == "cancelled"

    def test_handler_bug_500_daemon_survives(self, daemon, monkeypatch):
        server, _ = daemon
        monkeypatch.setattr(
            server.service,
            "handle",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("bug")),
        )
        status, _, body = post(
            server.url + "/v1/query", {"table": "pts", "bbox": BBOX}
        )
        assert status == 500
        assert json.loads(body)["error"] == "internal"
        monkeypatch.undo()
        status, _, _ = post(
            server.url + "/v1/query",
            {"table": "pts", "bbox": BBOX, "limit": 1},
        )
        assert status == 200


class TestOverload:
    """2x overload: accepted requests complete, the rest shed fast."""

    def test_saturated_sheds_429_with_retry_after(self):
        context = ObsContext.fresh(enabled=False)
        server = small_daemon(
            context, max_concurrency=1, queue_depth=0, retry_after_s=2.0
        )
        release = threading.Event()
        results = []
        try:
            with faults.stall_at("serve.request.admitted", release) as state:
                thread = threading.Thread(
                    target=lambda: results.append(
                        post(
                            server.url + "/v1/query",
                            {"table": "pts", "bbox": BBOX},
                        )
                    ),
                    daemon=True,
                )
                thread.start()
                for _ in range(400):
                    if state["stalled"]:
                        break
                    time.sleep(0.005)
                assert state["stalled"] == 1
                # The slot is held: everything else sheds, fast.
                latencies = []
                for _ in range(5):
                    t0 = time.monotonic()
                    status, headers, body = post(
                        server.url + "/v1/query",
                        {"table": "pts", "bbox": BBOX},
                    )
                    latencies.append(time.monotonic() - t0)
                    assert status == 429
                    assert headers["Retry-After"] == "2"
                    assert json.loads(body)["reason"] == "saturated"
                # Constant-time shed: the median must be well under the
                # 100ms acceptance bound even on a loaded CI box.
                assert sorted(latencies)[2] < 0.1
                release.set()
                thread.join(timeout=10)
            # The accepted request completed despite the overload.
            status, _, body = results[0]
            assert status == 200
            assert json.loads(body)["meta"]["n_results"] > 0
            assert context.registry.counter("serve.shed").value == 5
        finally:
            release.set()
            server.stop()

    def test_drain_rejects_503_then_serves_nothing(self):
        context = ObsContext.fresh(enabled=False)
        server = small_daemon(context, max_concurrency=2)
        try:
            status, _, _ = post(
                server.url + "/v1/query",
                {"table": "pts", "bbox": BBOX, "limit": 1},
            )
            assert status == 200
            server.service.admission.begin_drain()
            status, headers, body = post(
                server.url + "/v1/query", {"table": "pts", "bbox": BBOX}
            )
            assert status == 503
            assert "Retry-After" in headers
            assert json.loads(body)["reason"] == "draining"
        finally:
            server.stop()

    def test_drain_and_stop_closes_listener(self):
        context = ObsContext.fresh(enabled=False)
        server = small_daemon(context)
        url = server.url
        assert server.drain_and_stop(timeout_s=5) is True
        with pytest.raises(Exception):
            get(url + "/healthz", timeout=2)


class TestClientFaults:
    def test_slow_client_still_served(self, daemon):
        server, _ = daemon
        body = json.dumps(
            {"table": "pts", "bbox": BBOX, "limit": 10}
        ).encode()
        response = faults.raw_post(
            server.host,
            server.port,
            "/v1/query",
            body,
            send_chunk=8,
            send_delay_s=0.01,
        )
        head, _, payload = response.partition(b"\r\n\r\n")
        assert b"200" in head.split(b"\r\n", 1)[0]
        assert json.loads(payload)["meta"]["n_returned"] == 10

    def test_mid_response_disconnect_counted_daemon_survives(self, daemon):
        server, context = daemon
        before = context.registry.counter("serve.client_disconnects").value
        # A response the client walks away from, larger than everything
        # the kernel can buffer between the two ends: the server's send
        # buffer is capped by tcp_wmem, the client's receive buffer is
        # pinned small.  The server is therefore still blocked in its
        # write when the RST lands, and that write always fails.
        send_limit = tcp_send_buffer_limit()
        columns = ", ".join(["x", "y", "z"] * (1 + send_limit // (2 << 20)))
        head = faults.raw_post(
            server.host,
            server.port,
            "/v1/sql",
            json.dumps({"sql": f"SELECT {columns} FROM pts"}).encode(),
            read_limit=512,
            reset=True,
            recv_buffer=64 << 10,
        )
        length = int(head.split(b"Content-Length: ", 1)[1].split(b"\r\n", 1)[0])
        assert length > send_limit + (256 << 10)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            counted = (
                context.registry.counter("serve.client_disconnects").value
                - before
            )
            if counted:
                break
            time.sleep(0.05)
        assert counted == 1
        status, _, _ = post(
            server.url + "/v1/query",
            {"table": "pts", "bbox": BBOX, "limit": 1},
        )
        assert status == 200

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_injected_crash_kills_thread_not_daemon(self, daemon):
        """Crash transparency: InjectedCrash is NOT swallowed into a 500
        — the handler thread dies without answering — and the daemon
        keeps serving."""
        server, _ = daemon
        with faults.crash_at("serve.request.received"):
            with pytest.raises(Exception):
                request = urllib.request.Request(
                    server.url + "/v1/query",
                    data=json.dumps({"table": "pts", "bbox": BBOX}).encode(),
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                urllib.request.urlopen(request, timeout=10)
        status, _, _ = post(
            server.url + "/v1/query",
            {"table": "pts", "bbox": BBOX, "limit": 1},
        )
        assert status == 200


class TestProcessLifecycle:
    """The daemon as a real process: signals and store recoverability."""

    @pytest.fixture
    def store(self, tmp_path):
        context = ObsContext.fresh(enabled=False)
        make_db(context, n=20_000).save(tmp_path / "store")
        return tmp_path / "store"

    def _spawn(self, store, tmp_path, extra=()):
        proc = subprocess.Popen(
            [
                sys.executable,
                "-u",
                "-m",
                "repro.cli",
                "serve",
                str(store),
                "--port",
                "0",
                *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": "src",
                "REPRO_FLIGHT_DIR": str(tmp_path / "flight"),
            },
            cwd="/root/repo",
        )
        banner = proc.stdout.readline()
        assert "serving queries on" in banner, (banner, proc.stderr.read())
        url = banner.split("serving queries on ")[1].split(" ")[0]
        return proc, url

    def test_sigterm_drains_and_flight_records(self, store, tmp_path):
        (tmp_path / "flight").mkdir()
        proc, url = self._spawn(store, tmp_path)
        try:
            status, _, _ = post(
                url + "/v1/query",
                {"table": "pts", "bbox": BBOX, "limit": 1},
            )
            assert status == 200
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == -signal.SIGTERM
            # The flight recorder's SIGTERM hook ran after the drain.
            dumps = list((tmp_path / "flight").glob("flight-*.json"))
            assert len(dumps) == 1
            # The listener is gone.
            with pytest.raises(Exception):
                get(url + "/healthz", timeout=2)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_sigkill_mid_query_store_recoverable(self, store, tmp_path):
        """The acceptance criterion: SIGKILL during request handling
        leaves the (read-only) store verifiable and loadable."""
        proc, url = self._spawn(store, tmp_path)
        try:
            threads = [
                threading.Thread(
                    target=post,
                    args=(url + "/v1/sql", {"sql": "SELECT AVG(x) FROM pts"}),
                    kwargs={"timeout": 5},
                    daemon=True,
                )
                for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.01)  # let the queries reach the scan
            proc.kill()
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        report = PointCloudDB.load(store).verify()
        assert report["ok"] is True
        recovered = PointCloudDB.recover(store)
        assert len(recovered.table("pts")) == 20_000

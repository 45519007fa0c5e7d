"""QueryService: the transport-independent request path."""

import threading

import numpy as np
import pytest

from repro.api import PointCloudDB
from repro.core.imprints import ImprintsManager
from repro.engine.catalog import CatalogError
from repro.engine.table import SchemaError
from repro.obs.context import ObsContext
from repro.obs.queries import QueryCancelled
from repro.serve import wire
from repro.serve.admission import AdmissionRejected
from repro.serve.quotas import QuotaExceeded, TenantBudget
from repro.serve.service import BadRequest, QueryService, ServiceConfig
from repro.serve.snapshot import SnapshotManager
from repro.sql.executor import SqlExecutionError
from tests import faults

N_POINTS = 5000
BBOX = [10.0, 10.0, 60.0, 60.0]


def make_db(context, seed=11):
    db = PointCloudDB(obs=context)
    db.manager = ImprintsManager(segment_rows=512)
    db.create_pointcloud("pts")
    rng = np.random.default_rng(seed)
    db.load_points(
        "pts",
        {
            "x": rng.uniform(0, 100, N_POINTS),
            "y": rng.uniform(0, 100, N_POINTS),
            "z": rng.uniform(0, 10, N_POINTS),
            "intensity": rng.integers(0, 255, N_POINTS).astype(np.int32),
        },
    )
    return db


@pytest.fixture
def context():
    return ObsContext.fresh(enabled=False)


@pytest.fixture
def cloud(context):
    db = make_db(context)
    return db, db.table("pts")


def service_for(context, db, config=None):
    manager = SnapshotManager(loader=lambda: db, obs=context)
    return QueryService(manager, config=config, obs=context)


class TestSpatialEndpoint:
    def test_results_match_direct_query(self, context, cloud):
        db, table = cloud
        service = service_for(context, db)
        response = service.handle("query", {"table": "pts", "bbox": BBOX})
        x = table.column("x").values
        y = table.column("y").values
        want = int(
            (
                (x >= BBOX[0])
                & (x <= BBOX[2])
                & (y >= BBOX[1])
                & (y <= BBOX[3])
            ).sum()
        )
        meta = response.payload["meta"]
        assert meta["n_results"] == want
        assert meta["n_returned"] == want
        assert meta["truncated"] is False
        assert meta["query_id"]
        assert response.payload["columns"] == ["x", "y", "z"]
        assert len(response.payload["rows"]) == want

    def test_column_selection(self, context, cloud):
        db, _ = cloud
        service = service_for(context, db)
        response = service.handle(
            "query",
            {"table": "pts", "bbox": BBOX, "columns": ["intensity"]},
        )
        assert response.payload["columns"] == ["intensity"]
        assert all(
            isinstance(row[0], int) for row in response.payload["rows"]
        )

    def test_limit_truncates(self, context, cloud):
        db, _ = cloud
        service = service_for(context, db)
        response = service.handle(
            "query", {"table": "pts", "bbox": BBOX, "limit": 5}
        )
        meta = response.payload["meta"]
        assert meta["n_returned"] == 5
        assert meta["truncated"] is True
        assert len(response.payload["rows"]) == 5

    def test_columnar_format_round_trips(self, context, cloud):
        db, table = cloud
        service = service_for(context, db)
        response = service.handle(
            "query",
            {
                "table": "pts",
                "bbox": BBOX,
                "format": "columnar",
                "columns": ["x", "intensity"],
            },
        )
        assert response.content_type == wire.CONTENT_TYPE
        assert "X-Repro-Meta" in response.headers
        columns = wire.decode_columns(response.encode())
        assert list(columns) == ["x", "intensity"]
        assert columns["x"].dtype == np.float64
        assert columns["intensity"].dtype.kind in "iu"
        assert (columns["x"] >= BBOX[0]).all()
        assert (columns["x"] <= BBOX[2]).all()

    def test_unknown_table_raises_catalog_error(self, context, cloud):
        db, _ = cloud
        with pytest.raises(CatalogError):
            service_for(context, db).handle(
                "query", {"table": "nope", "bbox": BBOX}
            )

    def test_unknown_column_raises_schema_error(self, context, cloud):
        db, _ = cloud
        with pytest.raises(SchemaError):
            service_for(context, db).handle(
                "query",
                {"table": "pts", "bbox": BBOX, "columns": ["nope"]},
            )

    @pytest.mark.parametrize(
        "payload,match",
        [
            ({"bbox": BBOX}, "table"),
            ({"table": "pts"}, "bbox"),
            ({"table": "pts", "bbox": [1, 2, 3]}, "bbox"),
            ({"table": "pts", "bbox": ["a", 0, 1, 1]}, "bad bbox"),
            ({"table": "pts", "bbox": BBOX, "z_range": [1]}, "z_range"),
            ({"table": "pts", "bbox": BBOX, "limit": "ten"}, "limit"),
            ({"table": "pts", "bbox": BBOX, "limit": -1}, "limit"),
            ({"table": "pts", "bbox": BBOX, "timeout_s": 0}, "timeout"),
            ({"table": "pts", "bbox": BBOX, "timeout_s": "x"}, "timeout"),
            ({"table": "pts", "bbox": BBOX, "columns": "x"}, "columns"),
        ],
    )
    def test_bad_requests(self, context, cloud, payload, match):
        db, _ = cloud
        with pytest.raises(BadRequest, match=match):
            service_for(context, db).handle("query", payload)

    def test_unknown_endpoint(self, context, cloud):
        db, _ = cloud
        with pytest.raises(BadRequest, match="endpoint"):
            service_for(context, db).handle("nope", {})


class TestSqlEndpoint:
    def test_rows_and_meta(self, context, cloud):
        db, _ = cloud
        service = service_for(context, db)
        response = service.handle(
            "sql", {"sql": "SELECT COUNT(*) FROM pts"}
        )
        payload = response.payload
        assert payload["rows"][0][0] == N_POINTS
        assert payload["meta"]["query_id"]
        assert payload["meta"]["profile"]

    def test_limit_truncates(self, context, cloud):
        db, _ = cloud
        service = service_for(context, db)
        response = service.handle(
            "sql", {"sql": "SELECT x FROM pts", "limit": 3}
        )
        assert len(response.payload["rows"]) == 3
        assert response.payload["meta"]["truncated"] is True

    def test_columnar_format(self, context, cloud):
        db, _ = cloud
        service = service_for(context, db)
        response = service.handle(
            "sql",
            {"sql": "SELECT x, y FROM pts", "format": "columnar"},
        )
        columns = wire.decode_columns(response.encode())
        assert list(columns) == ["x", "y"]
        assert columns["x"].shape == (N_POINTS,)

    def test_execution_error_propagates_typed(self, context, cloud):
        db, _ = cloud
        with pytest.raises(SqlExecutionError):
            service_for(context, db).handle(
                "sql", {"sql": "SELECT x FROM missing"}
            )

    def test_missing_sql_is_bad_request(self, context, cloud):
        db, _ = cloud
        with pytest.raises(BadRequest, match="sql"):
            service_for(context, db).handle("sql", {"sql": "   "})


class TestDeadlines:
    def test_timeout_ceiling_applies_without_request_timeout(self, context):
        db = make_db(context)
        service = service_for(
            context, db, ServiceConfig(max_timeout_s=2.0)
        )
        assert service._resolve_timeout({}) == 2.0
        assert service._resolve_timeout({"timeout_s": 10}) == 2.0
        assert service._resolve_timeout({"timeout_s": 0.5}) == 0.5

    def test_cancellation_contract(self, context, cloud):
        """Satellite: a timed-out request raises QueryCancelled carrying
        query_id/elapsed_s, the registry retires the record as
        ``cancelled``, and ``query.cancelled`` increments exactly once."""
        from repro.engine import scan as scan_mod

        db, _ = cloud
        service = service_for(context, db)
        before = context.registry.counter("query.cancelled").value

        def slow_probe(_segment):
            import time

            time.sleep(0.02)

        scan_mod.probe_hook = slow_probe
        try:
            with pytest.raises(QueryCancelled) as info:
                service.handle(
                    "query",
                    {"table": "pts", "bbox": BBOX, "timeout_s": 0.01},
                )
        finally:
            scan_mod.probe_hook = None
        exc = info.value
        assert exc.query_id
        assert exc.elapsed_s >= 0.01
        assert exc.timeout_s == 0.01
        assert (
            context.registry.counter("query.cancelled").value == before + 1
        )
        records = [
            r
            for r in context.queries.recent()
            if r["query_id"] == exc.query_id
        ]
        assert len(records) == 1
        assert records[0]["status"] == "cancelled"


class TestQuotas:
    def test_request_crossing_budget_completes_next_is_refused(
        self, context, cloud
    ):
        db, _ = cloud
        config = ServiceConfig(
            quotas={"alice": TenantBudget(rows_touched=1)}
        )
        service = service_for(context, db, config)
        # First request completes (the crossing request always does).
        service.handle(
            "query", {"table": "pts", "bbox": BBOX}, tenant="alice"
        )
        with pytest.raises(QuotaExceeded) as info:
            service.handle(
                "query", {"table": "pts", "bbox": BBOX}, tenant="alice"
            )
        assert info.value.report["budget"]["rows_touched"]["exhausted"]
        # Other tenants are unaffected.
        service.handle(
            "query", {"table": "pts", "bbox": BBOX}, tenant="bob"
        )

    def test_failed_requests_are_charged(self, context, cloud):
        db, _ = cloud
        service = service_for(context, db)
        with pytest.raises(CatalogError):
            service.handle(
                "query", {"table": "nope", "bbox": BBOX}, tenant="t"
            )
        # The failed request still consumed CPU; the ledger saw it.
        report = service.quotas.report("t")
        assert report["budget"]["cpu_seconds"]["used"] > 0

    def test_exhausted_tenant_never_takes_a_slot(self, context, cloud):
        db, _ = cloud
        config = ServiceConfig(
            quotas={"t": TenantBudget(cpu_seconds=0.0)}
        )
        service = service_for(context, db, config)
        with faults.record_crash_points([]) as events:
            with pytest.raises(QuotaExceeded):
                service.handle(
                    "query", {"table": "pts", "bbox": BBOX}, tenant="t"
                )
        # Refused before admission: the admitted crash point never fired.
        assert "serve.request.admitted" not in events


class TestObservability:
    def test_traceparent_adopted_and_echoed(self, context, cloud):
        db, _ = cloud
        service = service_for(context, db)
        inbound = "00-000102030405060708090a0b0c0d0e0f-0001020304050607-01"
        response = service.handle(
            "query",
            {"table": "pts", "bbox": BBOX},
            traceparent=inbound,
        )
        echoed = response.headers["traceparent"]
        assert echoed.split("-")[1] == inbound.split("-")[1]

    def test_request_metrics(self, context, cloud):
        db, _ = cloud
        service = service_for(context, db)
        service.handle("query", {"table": "pts", "bbox": BBOX})
        assert context.registry.counter("serve.requests").value == 1
        assert context.registry.counter("serve.admitted").value == 1
        assert (
            context.registry.histogram("serve.request_seconds").count == 1
        )

    def test_health_report_shape(self, context, cloud):
        db, _ = cloud
        service = service_for(context, db)
        report = service.health_report()
        assert report["tables"] == {"pts": N_POINTS}
        assert report["admission"]["inflight"] == 0
        assert report["pinned_readers"] == 0

    def test_health_report_raises_when_store_unhealthy(self, context):
        db = make_db(context)
        db.health["pts"] = {"ok": False, "error": "checksum mismatch"}
        service = service_for(context, db)
        with pytest.raises(RuntimeError, match="unhealthy"):
            service.health_report()


class TestDrain:
    def test_drain_rejects_new_requests(self, context, cloud):
        db, _ = cloud
        service = service_for(context, db)
        assert service.drain() is True
        with pytest.raises(AdmissionRejected) as info:
            service.handle("query", {"table": "pts", "bbox": BBOX})
        assert info.value.reason == "draining"

    def test_drain_waits_for_inflight(self, context, cloud):
        db, _ = cloud
        service = service_for(context, db)
        release = threading.Event()
        done = []
        with faults.stall_at("serve.request.executed", release) as state:
            thread = threading.Thread(
                target=lambda: done.append(
                    service.handle(
                        "query", {"table": "pts", "bbox": BBOX}
                    )
                ),
                daemon=True,
            )
            thread.start()
            for _ in range(400):
                if state["stalled"]:
                    break
                thread.join(timeout=0.005)
            assert state["stalled"] == 1
            # In-flight request: a bounded drain times out...
            assert service.drain(timeout_s=0.05) is False
            release.set()
            thread.join(timeout=10)
        # ...and succeeds once the request finishes.
        assert service.admission.wait_drained(timeout_s=5) is True
        assert done and done[0].payload["meta"]["n_results"] > 0

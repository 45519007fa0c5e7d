"""Snapshot isolation: readers pin a generation, writers publish past them.

Satellite of the PR 8 service work: a writer publishing mid-scan must
never change an in-flight reader's results.  The interleaving tests
drive a real :class:`QueryService` request and use the fault harness's
``stall_at`` to park it *at each crash point in the request path* while
a new generation is published underneath it — every publish/read
interleaving the request path distinguishes.
"""

import threading

import numpy as np
import pytest

from repro.api import PointCloudDB
from repro.core.imprints import ImprintsManager
from repro.obs.context import ObsContext
from repro.serve.service import QueryService, ServiceConfig
from repro.serve.snapshot import SnapshotManager
from tests import faults

BBOX = [0.0, 0.0, 100.0, 100.0]

SERVE_POINTS = [
    "serve.request.received",
    "serve.request.admitted",
    "serve.request.executed",
]


def make_db(context, fill_value, generation, n=2000):
    """An in-memory store whose x column identifies its generation."""
    db = PointCloudDB(obs=context, threads=1)
    # Small segments => several imprint probes per scan, so the
    # mid-scan stall test has a seam to park on.
    db.manager = ImprintsManager(threads=1, segment_rows=512)
    db.create_pointcloud("pts")
    rng = np.random.default_rng(generation)
    db.load_points(
        "pts",
        {
            "x": np.full(n, float(fill_value)),
            "y": rng.uniform(0, 100, n),
            "z": rng.uniform(0, 10, n),
        },
    )
    db.db.generation = generation
    return db


@pytest.fixture
def context():
    return ObsContext.fresh(enabled=False)


class TestSnapshotManager:
    def test_open_is_idempotent(self, context):
        db = make_db(context, 1.0, 1)
        manager = SnapshotManager(loader=lambda: db, obs=context)
        assert manager.open() is manager.open()
        assert manager.current().generation == 1

    def test_pin_counts_readers(self, context):
        manager = SnapshotManager(
            loader=lambda: make_db(context, 1.0, 1), obs=context
        )
        with manager.pin() as snapshot:
            assert snapshot.pins == 1
            with manager.pin() as again:
                assert again is snapshot
                assert snapshot.pins == 2
        assert snapshot.pins == 0

    def test_publish_swaps_current_but_not_pinned(self, context):
        manager = SnapshotManager(
            loader=lambda: make_db(context, 1.0, 1), obs=context
        )
        with manager.pin() as old:
            manager.publish_db(make_db(context, 2.0, 2))
            assert manager.current().generation == 2
            # The pinned reader's world is unchanged.
            assert old.generation == 1
            assert float(old.db.table("pts").column("x").values[0]) == 1.0
        with manager.pin() as new:
            assert new.generation == 2

    def test_reload_if_changed_on_disk(self, context, tmp_path):
        writer = make_db(context, 1.0, 0)
        writer.db.generation = 0  # save() bumps to 1
        writer.save(tmp_path / "store")
        manager = SnapshotManager(directory=tmp_path / "store", threads=1)
        first = manager.open()
        assert manager.reload_if_changed() is False
        writer.save(tmp_path / "store")  # bumps the on-disk generation
        assert manager.reload_if_changed() is True
        assert manager.current().generation == first.generation + 1

    def test_no_directory_no_loader_raises(self):
        with pytest.raises(ValueError, match="no store directory"):
            SnapshotManager().open()


class TestServiceIsolation:
    """The satellite proper: publish-mid-request never bleeds through."""

    def _service(self, context):
        manager = SnapshotManager(
            loader=lambda: make_db(context, 1.0, 1), obs=context
        )
        return QueryService(
            manager, config=ServiceConfig(max_concurrency=2), obs=context
        )

    def _query(self, service, results, errors):
        try:
            response = service.handle(
                "query",
                {"table": "pts", "bbox": BBOX, "columns": ["x"]},
            )
            results.append(response.payload)
        except BaseException as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)

    # The pin happens between "admitted" and "executed": a request
    # stalled before the pin correctly adopts the new generation, one
    # stalled after its scan keeps the old one.  Either way the
    # response must be entirely one generation — never a torn mix.
    @pytest.mark.parametrize(
        "point,expected_generation",
        [
            ("serve.request.received", 2),
            ("serve.request.admitted", 2),
            ("serve.request.executed", 1),
        ],
    )
    def test_publish_while_stalled_at_each_point(
        self, context, point, expected_generation
    ):
        """Stall one request at each crash point in the request path and
        publish generation 2 underneath it — every publish/read
        interleaving the request path distinguishes."""
        service = self._service(context)
        results, errors = [], []
        release = threading.Event()
        with faults.stall_at(point, release) as state:
            thread = threading.Thread(
                target=self._query,
                args=(service, results, errors),
                daemon=True,
            )
            thread.start()
            for _ in range(400):
                if state["stalled"]:
                    break
                thread.join(timeout=0.005)
            assert state["stalled"] == 1, f"request never reached {point}"
            service.snapshots.publish_db(make_db(context, 2.0, 2))
            release.set()
            thread.join(timeout=10)
        assert not errors, errors
        payload = results[0]
        assert payload["meta"]["generation"] == expected_generation
        assert all(
            row[0] == float(expected_generation) for row in payload["rows"]
        )
        # The next request always sees gen 2.
        after = service.handle(
            "query", {"table": "pts", "bbox": BBOX, "columns": ["x"]}
        )
        assert after.payload["meta"]["generation"] == 2
        assert all(row[0] == 2.0 for row in after.payload["rows"])

    def test_publish_mid_scan_never_changes_results(self, context):
        """The satellite's core claim: a publish landing *while the scan
        is running* (stalled on a segment probe, strictly after the pin)
        leaves the in-flight reader's results untouched."""
        from repro.engine import scan as scan_mod

        service = self._service(context)
        results, errors = [], []
        release = threading.Event()
        probed = threading.Event()

        def probe(_segment):
            probed.set()
            release.wait(timeout=10)

        def query():
            try:
                # A bbox that cuts through segments on y forces real
                # imprint probes (a full-extent box is answered from
                # zone maps alone, never reaching the probe hook).
                response = service.handle(
                    "query",
                    {
                        "table": "pts",
                        "bbox": [0.0, 0.0, 100.0, 50.0],
                        "columns": ["x"],
                    },
                )
                results.append(response.payload)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        scan_mod.probe_hook = probe
        try:
            thread = threading.Thread(target=query, daemon=True)
            thread.start()
            assert probed.wait(timeout=10), "scan never probed a segment"
            service.snapshots.publish_db(make_db(context, 2.0, 2))
            release.set()
            thread.join(timeout=10)
        finally:
            scan_mod.probe_hook = None
        assert not errors, errors
        payload = results[0]
        assert payload["meta"]["generation"] == 1
        assert payload["meta"]["n_results"] > 0
        assert all(row[0] == 1.0 for row in payload["rows"])

    def test_crash_points_fire_in_order(self, context):
        service = self._service(context)
        events = []
        with faults.record_crash_points(events):
            service.handle("query", {"table": "pts", "bbox": BBOX})
        serve_events = [e for e in events if e.startswith("serve.")]
        assert serve_events == SERVE_POINTS

    @pytest.mark.parametrize("point", SERVE_POINTS)
    def test_crash_at_each_point_releases_the_slot(self, context, point):
        """An injected kill anywhere in the request path must propagate
        (crash transparency) AND leave the daemon able to serve the next
        request — no leaked admission slot, no leaked pin."""
        service = self._service(context)
        with faults.crash_at(point):
            with pytest.raises(faults.InjectedCrash):
                service.handle("query", {"table": "pts", "bbox": BBOX})
        assert service.admission.inflight == 0
        assert service.snapshots.current().pins == 0
        response = service.handle(
            "query", {"table": "pts", "bbox": BBOX, "columns": ["x"]}
        )
        assert response.payload["meta"]["n_results"] == 2000

    def test_sql_sessions_do_not_cross_generations(self, context):
        """A pooled session built on gen 1 must not serve gen 2 (its
        relations snapshot gen 1's columns)."""
        service = self._service(context)
        first = service.handle("sql", {"sql": "SELECT AVG(x) FROM pts"})
        assert first.payload["rows"][0][0] == pytest.approx(1.0)
        assert service.sessions.built == 1
        service.snapshots.publish_db(make_db(context, 2.0, 2))
        second = service.handle("sql", {"sql": "SELECT AVG(x) FROM pts"})
        assert second.payload["rows"][0][0] == pytest.approx(2.0)
        assert service.sessions.built == 2  # pool miss: new generation
        # Same generation again: the pooled session is reused.
        third = service.handle("sql", {"sql": "SELECT AVG(x) FROM pts"})
        assert third.payload["rows"][0][0] == pytest.approx(2.0)
        assert service.sessions.built == 2

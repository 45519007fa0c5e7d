"""The in-flight query registry: identity, progress, deadlines."""

import contextvars
import json
import os
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest

import repro.obs as obs_package
from repro import Box, PointCloudDB
from repro.core.imprints import ImprintsManager
from repro.engine import scan as scan_mod
from repro.gis.geometry import Polygon
from repro.obs.context import ObsContext
from repro.obs.metrics import MetricsRegistry
from repro.obs.queries import (
    ActiveQuery,
    QueryCancelled,
    QueryRegistry,
    check_deadline,
    current_query,
    get_queries,
)
from repro.obs.server import TelemetryServer
from repro.obs.trace import Tracer


@pytest.fixture
def probe_hook():
    """Install a segment-probe hook; always uninstalled afterwards."""
    installed = []

    def install(hook):
        scan_mod.probe_hook = hook
        installed.append(hook)

    yield install
    scan_mod.probe_hook = None


#: The segmented access paths the scanner drives: one axis's imprint
#: vectors (what a cold default filter has), packed blocks
#: (``use_imprints=False`` on a compressed table) and the imprints of both
#: axes fused.  All must cancel and report progress alike.
ACCESS_PATHS = pytest.mark.parametrize("path", ["imprint", "packed", "fused"])


def make_db(context, n=20_000, segment_rows=2048, seed=7, path="imprint"):
    """A db with many small segments (forces visible progress); for
    ``packed`` the columns also carry compressed mirrors of that grain,
    for ``fused`` the x and y imprints are already built."""
    db = PointCloudDB(obs=context)
    db.manager = ImprintsManager(segment_rows=segment_rows)
    db.create_pointcloud("pts")
    rng = np.random.default_rng(seed)
    db.load_points(
        "pts",
        {
            "x": rng.uniform(0, 100, n),
            "y": rng.uniform(0, 100, n),
            "z": rng.uniform(0, 10, n),
        },
    )
    if path == "packed":
        db.compress("pts", segment_rows=segment_rows)
    if path == "fused":
        for column in "xy":
            db.manager.ensure(db.table("pts"), column)
    return db


class TestActiveQuery:
    def test_progress_zero_before_any_scan(self):
        query = ActiveQuery("q1", "spatial")
        assert query.progress == 0.0

    def test_progress_ratio_and_clamp(self):
        query = ActiveQuery("q1", "spatial")
        query.add_segments(total=4, done=1)
        assert query.progress == pytest.approx(0.25)
        query.add_segments(done=5)
        assert query.progress == 1.0

    def test_to_dict_is_json_ready(self):
        query = ActiveQuery("q1", "sql", detail={"sql": "SELECT 1"})
        query.set_phase("execute")
        query.add_segments(total=2, done=2)
        record = json.loads(json.dumps(query.to_dict()))
        assert record["query_id"] == "q1"
        assert record["kind"] == "sql"
        assert record["phase"] == "execute"
        assert record["progress"] == 1.0
        assert record["status"] == "running"

    def test_deadline_check_raises_typed_error(self):
        query = ActiveQuery("q1", "spatial", timeout_s=0.0, deadline=0.0)
        with pytest.raises(QueryCancelled) as err:
            query.check_deadline()
        assert err.value.query_id == "q1"
        assert err.value.timeout_s == 0.0
        assert err.value.elapsed_s >= 0.0

    def test_no_deadline_never_cancels(self):
        ActiveQuery("q1", "spatial").check_deadline()


class TestTrack:
    def test_lifecycle_active_then_recent(self):
        registry = QueryRegistry()
        with registry.track("spatial", detail={"table": "pts"}) as query:
            assert query.query_id.startswith("q")
            assert len(registry.active()) == 1
            assert registry.active()[0] is query
            assert current_query() is query
        assert len(registry.active()) == 0
        assert current_query() is None
        (record,) = registry.recent()
        assert record["query_id"] == query.query_id
        assert record["status"] == "finished"

    def test_query_ids_are_unique(self):
        registry = QueryRegistry()
        ids = []
        for _ in range(3):
            with registry.track("sql") as query:
                ids.append(query.query_id)
        assert len(set(ids)) == 3

    def test_error_recorded_and_reraised(self):
        context = ObsContext.fresh(enabled=False)
        with context.activate():
            with pytest.raises(ValueError):
                with context.queries.track("sql"):
                    raise ValueError("bad query")
            (record,) = context.queries.recent()
            assert record["status"] == "error"
            assert record["error"] == "ValueError"
            assert context.registry.counter("query.errors").value == 1

    def test_cancel_recorded_with_counter(self):
        context = ObsContext.fresh(enabled=False)
        with context.activate():
            with pytest.raises(QueryCancelled):
                with context.queries.track("spatial", timeout_s=0.001):
                    time.sleep(0.01)
                    check_deadline()
            (record,) = context.queries.recent()
            assert record["status"] == "cancelled"
            assert record["timeout_s"] == 0.001
            assert context.registry.counter("query.cancelled").value == 1

    def test_active_gauge_tracks_depth(self):
        context = ObsContext.fresh(enabled=False)
        with context.activate():
            gauge = context.registry.gauge("query.active")
            with context.queries.track("sql"):
                assert gauge.value == 1.0
                with context.queries.track("spatial"):
                    assert gauge.value == 2.0
            assert gauge.value == 0.0

    def test_nested_queries_inherit_identity_and_deadline(self):
        registry = QueryRegistry()
        with registry.track("sql", timeout_s=5.0) as outer:
            with registry.track("spatial", timeout_s=99.0) as inner:
                assert inner.parent_id == outer.query_id
                # The tighter (parent) deadline wins.
                assert inner.deadline == pytest.approx(outer.deadline)
            with registry.track("spatial") as untimed:
                # No own timeout still inherits the parent deadline.
                assert untimed.deadline == pytest.approx(outer.deadline)

    def test_check_deadline_is_a_noop_untracked(self):
        assert current_query() is None
        check_deadline()

    def test_recent_ring_is_bounded(self):
        registry = QueryRegistry(max_recent=4)
        for _ in range(10):
            with registry.track("sql"):
                pass
        assert len(registry.recent()) == 4


def in_context_thread(fn):
    """Run ``fn`` on a new thread under a copy of this thread's
    contextvars (the form docs/architecture.md asks for); re-raise what
    it raised."""
    ctx = contextvars.copy_context()
    outcome = {}

    def target():
        try:
            outcome["value"] = ctx.run(fn)
        except BaseException as exc:  # re-raised on the caller's thread
            outcome["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join()
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("value")


class TestWorkerPropagation:
    def test_workers_see_the_deadline(self):
        """A thread started under ``copy_context`` inherits the active
        query, so an expired deadline cancels there too."""
        registry = QueryRegistry()
        with pytest.raises(QueryCancelled):
            with registry.track("spatial", timeout_s=0.001):
                time.sleep(0.01)
                in_context_thread(check_deadline)
        (record,) = registry.recent()
        assert record["status"] == "cancelled"

    def test_workers_see_the_active_query(self):
        registry = QueryRegistry()
        with registry.track("spatial") as query:
            assert in_context_thread(current_query) is query


class TestQueryIntegration:
    def test_spatial_stats_carry_query_id(self):
        context = ObsContext.fresh(enabled=False)
        db = make_db(context, n=5000)
        result = db.spatial_select("pts", Box(10, 10, 60, 60))
        assert result.stats.query_id.startswith("q")
        (record,) = context.queries.recent()
        assert record["query_id"] == result.stats.query_id
        assert record["kind"] == "spatial"
        assert record["detail"]["table"] == "pts"

    def test_session_records_last_query_id(self):
        context = ObsContext.fresh(enabled=False)
        db = make_db(context, n=5000)
        session = db._session()
        session.execute("SELECT count(*) FROM pts WHERE x < 50")
        assert session.last_query_id is not None
        records = [
            r for r in context.queries.recent() if r["kind"] == "sql"
        ]
        assert records[0]["query_id"] == session.last_query_id

    @ACCESS_PATHS
    def test_timeout_cancels_a_real_scan(self, probe_hook, path):
        context = ObsContext.fresh(enabled=False)
        db = make_db(context, path=path)
        probe_hook(lambda seg: time.sleep(0.02))
        with pytest.raises(QueryCancelled) as err:
            db.spatial_select(
                "pts",
                Box(25, 25, 75, 75),
                use_imprints=path != "packed",
                timeout_s=0.01,
            )
        (record,) = context.queries.recent()
        assert record["status"] == "cancelled"
        assert record["query_id"] == err.value.query_id
        assert context.registry.counter("query.cancelled").value == 1

    def test_timeout_after_the_last_probe_cancels_refine(self, probe_hook):
        """A deadline that fires after the filter's last segment probe is
        noticed when refinement starts, not after it ran to completion."""
        context = ObsContext.fresh(enabled=False)
        db = make_db(context, path="fused")
        quad = Polygon([(20, 25), (80, 20), (75, 80), (25, 70)])
        probed = []
        probe_hook(probed.append)
        db.spatial_select("pts", quad)
        last = probed[-1]
        probe_hook(lambda seg: time.sleep(0.5) if seg == last else None)
        with pytest.raises(QueryCancelled) as err:
            db.spatial_select("pts", quad, timeout_s=0.25)
        (record,) = [
            r
            for r in context.queries.recent()
            if r["query_id"] == err.value.query_id
        ]
        assert record["status"] == "cancelled"
        assert record["phase"] == "refine"

    def test_sql_timeout_cancels(self, probe_hook):
        context = ObsContext.fresh(enabled=False)
        db = make_db(context)
        probe_hook(lambda seg: time.sleep(0.02))
        with pytest.raises(QueryCancelled):
            db.sql("SELECT count(*) FROM pts WHERE x < 75", timeout_s=0.01)
        records = [r for r in context.queries.recent() if r["kind"] == "sql"]
        assert records[0]["status"] == "cancelled"

    def test_untimed_queries_still_finish(self, probe_hook):
        context = ObsContext.fresh(enabled=False)
        db = make_db(context, n=5000)
        probe_hook(lambda seg: None)
        result = db.spatial_select("pts", Box(10, 10, 60, 60))
        assert len(result) > 0


class TestProgress:
    @ACCESS_PATHS
    def test_progress_is_monotonic_during_a_scan(self, probe_hook, path):
        """Each probe ticks the record forward; skips are credited up
        front — so progress observed from the hook never decreases."""
        context = ObsContext.fresh(enabled=False)
        db = make_db(context, path=path)
        observed = []
        probe_hook(lambda seg: observed.append(current_query().progress))
        db.spatial_select(
            "pts", Box(25, 25, 75, 75), use_imprints=path != "packed"
        )
        assert len(observed) > 2
        assert observed == sorted(observed)
        assert observed[-1] > observed[0]
        (record,) = context.queries.recent()
        assert record["progress"] == 1.0
        assert record["segments_total"] > 0
        assert record["segments_done"] == record["segments_total"]

    def test_debug_queries_shows_live_monotonic_progress(self, probe_hook):
        """The acceptance introspection test: poll /debug/queries while a
        slowed-down scan runs and watch its progress climb."""
        context = ObsContext.fresh(enabled=False)
        db = make_db(context)
        probe_hook(lambda seg: time.sleep(0.01))
        server = TelemetryServer(
            port=0,
            registry=context.registry,
            tracer=context.tracer,
            queries=context.queries,
        )
        samples = []
        with server:
            url = server.url + "/debug/queries"
            worker = threading.Thread(
                target=lambda: db.spatial_select(
                    "pts", Box(25, 25, 75, 75)
                )
            )
            worker.start()
            deadline = time.monotonic() + 30.0
            while worker.is_alive() and time.monotonic() < deadline:
                with urllib.request.urlopen(url, timeout=5) as response:
                    snapshot = json.loads(response.read().decode("utf-8"))
                for query in snapshot["active"]:
                    samples.append((query["query_id"], query["progress"]))
                time.sleep(0.005)
            worker.join(timeout=30.0)
        assert samples, "never caught the query in flight"
        by_query = {}
        for query_id, progress in samples:
            by_query.setdefault(query_id, []).append(progress)
        for progresses in by_query.values():
            assert progresses == sorted(progresses)
        assert any(
            0.0 < p < 1.0 for ps in by_query.values() for p in ps
        ), "never observed a partial progress value"


class TestGlobalRegistry:
    def test_get_queries_without_context_is_the_singleton(self):
        assert get_queries() is get_queries()

    def test_track_publishes_on_the_global_registry(self):
        registry = get_queries()
        with registry.track("sql") as query:
            pass
        # recent() is newest-first (and bounded, so counting is unreliable
        # once the full suite has filled the ring).
        assert registry.recent()[0]["query_id"] == query.query_id


class TestPerQueryObsCost:
    """The per-query observers cost no more ``repro/obs/`` work than the
    hand-wired front doors they replaced (counted with ``sys.setprofile``,
    as ``tests/reachability.py`` does)."""

    #: ``repro/obs/`` Python calls of the warm query below with the
    #: per-query wiring written out at each front door.
    HAND_WIRED_OBS_CALLS = 95

    def test_small_box_obs_calls(self):
        context = ObsContext.fresh(enabled=False)
        db = make_db(context)
        box = Box(40, 40, 42, 42)
        db.spatial_select("pts", box)  # warm: imprints built, metrics made
        obs_dir = os.path.dirname(obs_package.__file__) + os.sep
        calls = 0
        previous = sys.getprofile()

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_filename.startswith(obs_dir):
                calls += 1
            if previous is not None:
                previous(frame, event, arg)

        sys.setprofile(profile)
        try:
            result = db.spatial_select("pts", box)
        finally:
            sys.setprofile(previous)
        assert len(result) > 0
        assert context.tracer.enabled is False and db.slow_log is None
        assert calls <= self.HAND_WIRED_OBS_CALLS

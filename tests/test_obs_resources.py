"""Per-query resource attribution: CPU, allocations, data touched."""

import threading

import numpy as np
import pytest

from repro import Box, PointCloudDB
from repro.obs import resources
from repro.obs.resources import ResourceTracker, ResourceUsage


class TestTracker:
    def test_no_tracker_means_no_current(self):
        assert resources.current() is None

    def test_current_inside_context(self):
        with ResourceTracker() as tracker:
            assert resources.current() is tracker
        assert resources.current() is None

    def test_trackers_nest_and_unwind(self):
        with ResourceTracker() as outer:
            with ResourceTracker() as inner:
                assert resources.current() is inner
            assert resources.current() is outer

    def test_caller_cpu_measured_at_exit(self):
        with ResourceTracker() as tracker:
            sum(i * i for i in range(200_000))
        assert tracker.usage.cpu_seconds > 0.0

    def test_add_touched_propagates_to_parents(self):
        with ResourceTracker() as outer:
            with ResourceTracker() as inner:
                inner.add_scan(rows=10, encoded=16, materialized=64)
        for tracker in (inner, outer):
            assert tracker.usage.rows_touched == 10
            assert tracker.usage.encoded_bytes == 16
            assert tracker.usage.materialized_bytes == 64
            assert tracker.usage.bytes_touched == 80

    def test_worker_threads_have_their_own_stack(self):
        seen = []
        with ResourceTracker():
            thread = threading.Thread(
                target=lambda: seen.append(resources.current())
            )
            thread.start()
            thread.join()
        assert seen == [None]

    def test_tracemalloc_opt_in_records_peak(self):
        import tracemalloc

        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            with ResourceTracker() as tracker:
                _scratch = bytearray(4 * 1024 * 1024)
        finally:
            if not was_tracing and tracemalloc.is_tracing():
                tracemalloc.stop()
        assert tracker.usage.peak_alloc_bytes >= 4 * 1024 * 1024

    def test_peak_is_none_when_sampling_off(self):
        import tracemalloc

        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc already on in this process")
        with ResourceTracker() as tracker:
            pass
        assert tracker.usage.peak_alloc_bytes is None

    def test_usage_to_dict_is_json_friendly(self):
        usage = ResourceUsage(
            cpu_seconds=0.5, rows_touched=3, encoded_bytes=8, materialized_bytes=16
        )
        assert usage.to_dict() == {
            "cpu_seconds": 0.5,
            "peak_alloc_bytes": None,
            "rows_touched": 3,
            "bytes_touched": 24,
            "encoded_bytes": 8,
            "materialized_bytes": 16,
        }


class TestQueryIntegration:
    @pytest.fixture(scope="class")
    def db(self):
        db = PointCloudDB()
        db.create_pointcloud("pts")
        rng = np.random.default_rng(11)
        db.load_points(
            "pts",
            {
                "x": rng.uniform(0, 100, 20_000),
                "y": rng.uniform(0, 100, 20_000),
                "z": rng.uniform(0, 10, 20_000),
            },
        )
        return db

    def test_spatial_query_stats_carry_resources(self, db):
        result = db.spatial_select("pts", Box(20, 20, 70, 70))
        usage = result.stats.resources
        assert usage.cpu_seconds > 0.0
        assert usage.rows_touched > 0
        assert usage.bytes_touched > 0

    def test_imprint_skips_cost_nothing(self, db):
        """A query outside the data's bbox touches (almost) no bytes —
        the attribution reflects what the index earned, the paper's
        whole point."""
        hit = db.spatial_select("pts", Box(0, 0, 100, 100))
        miss = db.spatial_select("pts", Box(5000, 5000, 6000, 6000))
        assert len(miss) == 0
        assert (
            miss.stats.resources.bytes_touched
            < hit.stats.resources.bytes_touched
        )

    def test_sql_session_records_last_resources(self, db):
        session_result = db.sql("SELECT avg(z) FROM pts WHERE x < 50")
        assert len(session_result.rows) == 1

    def test_explain_analyze_footer_shows_attribution(self, db):
        text = db.explain_analyze("SELECT count(*) FROM pts WHERE x < 25")
        assert "cpu:" in text
        assert "touched:" in text
        assert "rows" in text

    def test_cpu_seconds_histogram_observes_queries(self, db):
        from repro.obs.metrics import get_registry

        hist = get_registry().histogram("query.cpu_seconds")
        before = hist.snapshot()["count"]
        db.spatial_select("pts", Box(10, 10, 30, 30))
        assert hist.snapshot()["count"] == before + 1

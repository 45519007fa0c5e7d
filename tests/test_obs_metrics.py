"""The metrics registry: counters, gauges, histograms, snapshots."""

import math
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.metrics import (
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("hits")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_reset(self):
        c = Counter("hits")
        c.inc(3)
        c.reset()
        assert c.value == 0

    def test_thread_safe_increments_under_pool(self):
        c = Counter("hits")
        per_task = 200
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(lambda _i: [c.inc() for _ in range(per_task)], range(8)))
        assert c.value == 8 * per_task


class TestGauge:
    def test_set_and_inc(self):
        g = Gauge("depth")
        g.set(2.5)
        g.inc()
        g.inc(-0.5)
        assert g.value == 3.0


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper(self):
        h = Histogram("lat", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 2.0, 4.0, 9.0):
            h.observe(value)
        buckets = h.snapshot()["buckets"]
        assert [b["count"] for b in buckets] == [2, 2, 1, 1]
        assert [b["le"] for b in buckets] == [1.0, 2.0, 4.0, None]

    def test_count_sum_min_max(self):
        h = Histogram("lat", bounds=(1.0,))
        h.observe(0.25)
        h.observe(0.75)
        snap = h.snapshot()
        assert snap["count"] == 2
        assert snap["sum"] == pytest.approx(1.0)
        assert snap["min"] == 0.25
        assert snap["max"] == 0.75

    def test_percentile_returns_bucket_edge(self):
        h = Histogram("lat", bounds=(1.0, 2.0, 4.0))
        for _ in range(90):
            h.observe(0.5)  # le=1.0 bucket
        for _ in range(10):
            h.observe(3.0)  # le=4.0 bucket
        assert h.percentile(0.5) == 1.0
        assert h.percentile(0.99) == 4.0

    def test_percentile_overflow_returns_observed_max(self):
        h = Histogram("lat", bounds=(1.0,))
        h.observe(17.0)
        assert h.percentile(0.99) == 17.0

    def test_percentile_empty_is_nan(self):
        h = Histogram("lat", bounds=(1.0,))
        assert math.isnan(h.percentile(0.5))

    def test_percentile_bounds_validated(self):
        h = Histogram("lat", bounds=(1.0,))
        with pytest.raises(ValueError):
            h.percentile(1.5)

    def test_snapshot_includes_percentiles_when_nonempty(self):
        h = Histogram("lat")
        h.observe(0.003)
        snap = h.snapshot()
        assert snap["p50"] in LATENCY_BUCKETS_S
        assert {"p90", "p99"} <= set(snap)

    def test_default_bounds_are_sorted(self):
        assert list(LATENCY_BUCKETS_S) == sorted(LATENCY_BUCKETS_S)

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("lat", bounds=())

    def test_reset(self):
        h = Histogram("lat", bounds=(1.0,))
        h.observe(0.5)
        h.reset()
        assert h.count == 0
        assert math.isnan(h.percentile(0.5))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.histogram("h") is r.histogram("h")

    def test_kind_mismatch_raises(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(ValueError):
            r.gauge("x")

    def test_snapshot_groups_by_kind(self):
        r = MetricsRegistry()
        r.counter("c").inc(2)
        r.gauge("g").set(1.5)
        r.histogram("h").observe(0.01)
        snap = r.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1

    def test_names_and_reset(self):
        r = MetricsRegistry()
        r.counter("c").inc()
        r.histogram("h").observe(1.0)
        assert set(r.names()) == {"c", "h"}
        r.reset()
        assert r.counter("c").value == 0
        assert r.histogram("h").count == 0

    def test_global_registry_is_shared(self):
        assert get_registry() is get_registry()


class TestEngineIntegration:
    def test_spatial_query_populates_registry(self):
        import numpy as np

        from repro import PointCloudDB
        from repro.gis.envelope import Box

        registry = get_registry()
        registry.reset()
        db = PointCloudDB()
        db.create_pointcloud("pts")
        rng = np.random.default_rng(11)
        n = 4000
        db.load_points(
            "pts",
            {
                "x": rng.uniform(0, 100, n),
                "y": rng.uniform(0, 100, n),
                "z": rng.uniform(0, 10, n),
            },
        )
        db.spatial_select("pts", Box(10, 10, 60, 60))
        snap = db.metrics()
        assert snap["counters"]["query.count"] == 1
        assert "query.total_seconds" in snap["histograms"]
        assert snap["counters"]["load.points"] == n

"""The sampling profiler: stack aggregation, attribution, exports."""

import json
import threading
import time

import numpy as np
import pytest

from repro import Box, PointCloudDB
from repro.cli import main
from repro.engine import scan
from repro.engine.compressed import CompressedColumn
from repro.engine.kernels import RangePredicate
from repro.obs.context import ObsContext
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import (
    DEFAULT_RATE_HZ,
    SPEEDSCOPE_SCHEMA,
    Profile,
    SamplingProfiler,
    StackAggregate,
    capture,
    get_profiler,
    maybe_profiler,
    reset_profiler,
)
from repro.obs.queries import QueryRegistry, current_query
from repro.obs.slowlog import read_records


@pytest.fixture(autouse=True)
def _isolate_process_profiler():
    """No test leaves a process-wide sampler behind."""
    reset_profiler()
    yield
    reset_profiler()


@pytest.fixture
def busy_thread():
    """A background thread spinning in a recognisable function."""
    stop = threading.Event()

    def _burn_cpu():
        acc = 0
        while not stop.is_set():
            acc += sum(range(200))
        return acc

    thread = threading.Thread(target=_burn_cpu, daemon=True)
    thread.start()
    yield thread
    stop.set()
    thread.join(timeout=5.0)


def sample_until(profiler, predicate, attempts=2000):
    """Sweep until ``predicate(profile)`` holds (racy threads settle)."""
    for _ in range(attempts):
        profiler.sample_once()
        snapshot = profiler.profile()
        if predicate(snapshot):
            return snapshot
    return profiler.profile()


class TestStackAggregate:
    def test_add_folds_identical_stacks(self):
        agg = StackAggregate()
        agg.add(("a.f", "b.g"))
        agg.add(("a.f", "b.g"))
        agg.add(("a.f", "c.h"), count=3)
        assert agg.samples == 5
        assert agg.counts[("a.f", "b.g")] == 2
        assert agg.counts[("a.f", "c.h")] == 3

    def test_hot_frames_rank_by_leaf_self_time(self):
        agg = StackAggregate()
        agg.add(("a.f", "b.g"), count=2)
        agg.add(("c.h", "b.g"), count=2)  # same leaf via another path
        agg.add(("a.f", "d.k"), count=3)
        assert agg.hot_frames(top=2) == [("b.g", 4), ("d.k", 3)]

    def test_collapsed_is_flamegraph_input(self):
        agg = StackAggregate()
        agg.add(("a.f", "b.g"), count=2)
        agg.add(("a.f",), count=1)
        assert agg.collapsed() == "a.f 1\na.f;b.g 2\n"

    def test_collapsed_empty(self):
        assert StackAggregate().collapsed() == ""

    def test_speedscope_document_shape(self):
        agg = StackAggregate()
        agg.add(("a.f", "b.g"), count=10)
        agg.add(("a.f", "c.h"), count=10)
        doc = agg.speedscope("unit", rate_hz=100.0)
        assert doc["$schema"] == SPEEDSCOPE_SCHEMA
        # Frames dedup: a.f appears once even though two stacks share it.
        names = [frame["name"] for frame in doc["shared"]["frames"]]
        assert sorted(names) == ["a.f", "b.g", "c.h"]
        (profile,) = doc["profiles"]
        assert profile["type"] == "sampled"
        assert profile["unit"] == "seconds"
        # Sample rows are frame indexes root->leaf; weights are seconds.
        for row, weight in zip(profile["samples"], profile["weights"]):
            assert [names[i] for i in row][0] == "a.f"
            assert weight == pytest.approx(10 / 100.0)
        assert profile["endValue"] == pytest.approx(0.2)

    def test_summary_digest(self):
        agg = StackAggregate()
        agg.add(("a.f", "b.g"), count=4)
        digest = agg.summary(top=3)
        assert digest["samples"] == 4
        assert digest["hot_frames"] == [{"frame": "b.g", "samples": 4}]
        assert digest["hot_stacks"][0]["stack"] == ["a.f", "b.g"]


class TestProfileExport:
    def test_speedscope_json_round_trips(self):
        agg = StackAggregate()
        agg.add(("a.f",), count=2)
        profile = Profile(agg, {}, rate_hz=50.0, seconds=1.5)
        doc = json.loads(profile.speedscope_json(name="x"))
        assert doc["name"] == "x"
        assert profile.collapsed() == "a.f 2\n"
        summary = profile.summary()
        assert summary["rate_hz"] == 50.0
        assert summary["seconds"] == 1.5


class TestThreadBinding:
    def test_bind_and_unbind(self):
        registry = QueryRegistry()
        with registry.track("spatial") as query:
            ident = threading.get_ident()
            assert registry.thread_map()[ident] is query
        assert registry.thread_map().get(threading.get_ident()) is None

    def test_nested_track_restores_parent_binding(self):
        registry = QueryRegistry()
        ident = threading.get_ident()
        with registry.track("sql") as outer:
            with registry.track("spatial") as inner:
                assert registry.thread_map().get(ident) is inner
            assert registry.thread_map().get(ident) is outer
        assert registry.thread_map().get(ident) is None


class TestSamplingProfiler:
    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError):
            SamplingProfiler(rate_hz=0)

    def test_sample_once_sees_busy_thread(self, busy_thread):
        profiler = SamplingProfiler(
            rate_hz=100.0, queries=QueryRegistry(), registry=MetricsRegistry()
        )
        profile = sample_until(
            profiler,
            lambda p: any(
                any(label.startswith("test_obs_profiler.") for label in stack)
                for stack in p.aggregate.counts
            ),
        )
        assert profile.aggregate.samples > 0
        assert any(
            any(label.startswith("test_obs_profiler.") for label in stack)
            for stack in profile.aggregate.counts
        )

    def test_samples_attribute_to_owning_query(self):
        registry = QueryRegistry()
        metrics = MetricsRegistry()
        profiler = SamplingProfiler(
            rate_hz=100.0, queries=registry, registry=metrics
        )
        ready = threading.Event()
        stop = threading.Event()
        holder = {}

        def _query_burn():
            with registry.track("spatial", detail={"table": "pts"}) as query:
                holder["query"] = query
                ready.set()
                acc = 0
                while not stop.is_set():
                    acc += sum(range(200))

        thread = threading.Thread(target=_query_burn, daemon=True)
        thread.start()
        assert ready.wait(5.0)
        try:
            profile = sample_until(
                profiler,
                lambda p: holder["query"].query_id in p.per_query
                and p.per_query[holder["query"].query_id].samples > 0,
            )
        finally:
            stop.set()
            thread.join(timeout=5.0)
        per_query = profile.per_query[holder["query"].query_id]
        assert per_query.samples > 0
        assert profiler.query_summary(holder["query"].query_id)["samples"] > 0
        assert profiler.query_summary(None) is None
        assert profiler.query_summary("no-such-query") is None
        assert metrics.snapshot()["counters"]["profiler.sweeps"] > 0

    def test_start_stop_lifecycle_and_gauges(self, busy_thread):
        metrics = MetricsRegistry()
        profiler = SamplingProfiler(
            rate_hz=200.0, queries=QueryRegistry(), registry=metrics
        )
        profiler.start()
        assert profiler.running
        assert metrics.snapshot()["gauges"]["profiler.running"] == 1.0
        assert metrics.snapshot()["gauges"]["profiler.rate_hz"] == 200.0
        deadline = time.monotonic() + 5.0
        while (
            profiler.profile().aggregate.samples == 0
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        profiler.stop()
        assert not profiler.running
        assert metrics.snapshot()["gauges"]["profiler.running"] == 0.0
        profile = profiler.profile()
        assert profile.aggregate.samples > 0
        assert profile.seconds > 0
        assert profiler.hot_summary()["samples"] == profile.aggregate.samples

    def test_hot_summary_none_without_samples(self):
        profiler = SamplingProfiler(
            rate_hz=10.0, queries=QueryRegistry(), registry=MetricsRegistry()
        )
        assert profiler.hot_summary() is None

    def test_sampler_filters_its_own_machinery(self, busy_thread):
        # A capture's caller parks inside profiler.capture for the whole
        # window; that wait is scaffolding and must not show up.
        profile = capture(
            seconds=0.2,
            rate_hz=200.0,
            queries=QueryRegistry(),
            registry=MetricsRegistry(),
        )
        assert profile.aggregate.samples > 0
        for stack in profile.aggregate.counts:
            assert not any(label.startswith("profiler.") for label in stack)


class TestPackedScanCapture:
    def test_hot_frames_land_in_packed_kernels(self):
        """Acceptance: a compressed-scan capture blames the scan layer."""
        rng = np.random.default_rng(11)
        column = CompressedColumn.from_values(
            "v", rng.integers(0, 1_000_000, 600_000), segment_rows=8192
        )
        stop = threading.Event()

        def _scan_loop():
            while not stop.is_set():
                column.select(RangePredicate(100_000, 200_000))

        thread = threading.Thread(target=_scan_loop, daemon=True)
        thread.start()
        try:
            profile = capture(
                seconds=1.0,
                rate_hz=199.0,
                queries=QueryRegistry(),
                registry=MetricsRegistry(),
            )
        finally:
            stop.set()
            thread.join(timeout=5.0)
        assert profile.aggregate.samples > 0
        hot = profile.hot_frames(top=5)
        scan_layers = ("kernels.", "compressed.", "compression.")
        assert any(
            frame.startswith(scan_layers) for frame, _ in hot
        ), f"expected packed-scan frames in {hot}"
        # And the export formats carry the same stacks.
        doc = profile.speedscope(name="packed")
        names = {frame["name"] for frame in doc["shared"]["frames"]}
        assert any(name.startswith(scan_layers) for name in names)
        assert "compressed" in profile.collapsed()


class TestProcessSingleton:
    def test_maybe_profiler_never_creates(self):
        assert maybe_profiler() is None

    def test_get_profiler_is_singleton(self):
        first = get_profiler(rate_hz=DEFAULT_RATE_HZ)
        assert get_profiler() is first
        assert maybe_profiler() is first
        reset_profiler()
        assert maybe_profiler() is None

    def test_reset_stops_a_running_profiler(self):
        profiler = get_profiler(rate_hz=50.0)
        profiler.start()
        assert profiler.running
        reset_profiler()
        assert not profiler.running


class TestEmbeddings:
    def test_flight_dump_embeds_hot_stack_snapshot(self, tmp_path, busy_thread):
        from repro.obs.flight import FlightRecorder

        profiler = get_profiler(rate_hz=100.0)
        for _ in range(100):
            if profiler.sample_once():
                break
        recorder = FlightRecorder(directory=tmp_path)
        path = recorder.dump("test_dump")
        record = json.loads(path.read_text())
        assert record["profile"]["samples"] > 0
        assert record["profile"]["hot_frames"]
        assert record["profile"]["rate_hz"] == 100.0

    def test_flight_dump_without_profiler_omits_profile(self, tmp_path):
        from repro.obs.flight import FlightRecorder

        recorder = FlightRecorder(directory=tmp_path)
        path = recorder.dump("test_dump")
        assert "profile" not in json.loads(path.read_text())

    def test_slowlog_helper_digests_the_owning_query(self, tmp_path, monkeypatch):
        db = PointCloudDB(
            slow_query_s=0.0,
            slow_query_log=tmp_path / "slow.jsonl",
            obs=ObsContext.fresh(enabled=False),
        )
        db.create_pointcloud("pts")
        rng = np.random.default_rng(7)
        db.load_points(
            "pts",
            {name: rng.uniform(0, 100, 2000) for name in ("x", "y", "z")},
        )
        box = Box(10, 10, 60, 60)
        db.spatial_select("pts", box)  # no profiler running
        profiler = get_profiler(rate_hz=100.0)

        def sampled(_segment):
            # What a sweep that caught this thread mid-probe records.
            with profiler._lock:
                agg = StackAggregate()
                agg.add(("kernels.range_mask",), count=3)
                profiler._per_query[current_query().query_id] = agg

        monkeypatch.setattr(scan, "probe_hook", sampled)
        db.spatial_select("pts", box)
        monkeypatch.setattr(scan, "probe_hook", None)
        db.spatial_select("pts", box)  # never sampled
        unprofiled, owner, other = read_records(db.slow_log.path)
        assert "hot_stacks" not in unprofiled
        digest = owner["hot_stacks"]
        assert digest["samples"] == 3
        assert digest["hot_frames"][0]["frame"] == "kernels.range_mask"
        assert "hot_stacks" not in other


class TestProfileCli:
    @pytest.fixture(scope="class")
    def db_dir(self, tmp_path_factory):
        tiles = tmp_path_factory.mktemp("profile_tiles")
        assert (
            main(
                [
                    "generate",
                    "--points",
                    "5000",
                    "--tiles",
                    "1",
                    "--seed",
                    "3",
                    "--out",
                    str(tiles),
                ]
            )
            == 0
        )
        directory = tmp_path_factory.mktemp("profile_db")
        assert main(["load", str(tiles), "--db", str(directory)]) == 0
        return directory

    def test_needs_a_query(self, db_dir, capsys):
        assert main(["profile", str(db_dir)]) == 1
        assert "--sql or --wkt" in capsys.readouterr().err

    def test_sql_profile_exports_both_formats(self, db_dir, tmp_path, capsys):
        out = tmp_path / "profile.speedscope.json"
        collapsed = tmp_path / "profile.collapsed.txt"
        code = main(
            [
                "profile",
                str(db_dir),
                "--sql",
                "SELECT count(*) FROM points WHERE z > 2",
                "--duration",
                "0.4",
                "--rate",
                "250",
                "--out",
                str(out),
                "--collapsed",
                str(collapsed),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "profiled" in err and "samples" in err
        doc = json.loads(out.read_text())
        assert doc["$schema"] == SPEEDSCOPE_SCHEMA
        assert doc["profiles"][0]["type"] == "sampled"
        # A repeated tiny query at 250 Hz over 0.4 s yields samples, and
        # every collapsed line ends in a count.
        for line in collapsed.read_text().splitlines():
            assert line.rsplit(" ", 1)[1].isdigit()

    def test_default_output_is_collapsed_stdout(self, db_dir, capsys):
        code = main(
            [
                "profile",
                str(db_dir),
                "--wkt",
                "POLYGON((85000 445000, 87000 445000, 87000 447000, "
                "85000 447000, 85000 445000))",
                "--duration",
                "0.3",
                "--rate",
                "250",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            assert line.rsplit(" ", 1)[1].isdigit()

"""The span tracer: nesting, thread-safety, exporters, tree rendering."""

import json
import threading

import pytest

from repro.obs.trace import (
    NOOP_SPAN,
    Tracer,
    format_tree,
    from_json,
    get_tracer,
    maybe_span,
    to_chrome,
    to_json,
)


@pytest.fixture
def tracer():
    """The global tracer, enabled for the test and restored after."""
    t = get_tracer()
    was_enabled = t.enabled
    t.enable()
    yield t
    t.clear()
    if not was_enabled:
        t.disable()


class TestNesting:
    def test_nested_spans_link_parent_and_trace(self, tracer):
        with tracer.capture() as spans:
            with tracer.span("outer") as outer:
                with tracer.span("middle") as middle:
                    with tracer.span("inner") as inner:
                        pass

        assert [s.name for s in spans] == ["inner", "middle", "outer"]
        assert middle.parent_id == outer.span_id
        assert inner.parent_id == middle.span_id
        assert outer.parent_id is None
        assert {s.trace_id for s in spans} == {outer.trace_id}

    def test_sibling_spans_share_parent(self, tracer):
        with tracer.capture() as spans:
            with tracer.span("root") as root:
                with tracer.span("first"):
                    pass
                with tracer.span("second"):
                    pass
        children = [s for s in spans if s.name != "root"]
        assert all(s.parent_id == root.span_id for s in children)

    def test_separate_roots_get_separate_traces(self, tracer):
        with tracer.capture() as spans:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b = spans
        assert a.trace_id != b.trace_id

    def test_attributes_and_set(self, tracer):
        with tracer.capture() as spans:
            with tracer.span("op", table="points") as span:
                span.set(rows_out=42)
        assert spans[0].attributes == {"table": "points", "rows_out": 42}

    def test_exception_marks_span(self, tracer):
        with tracer.capture() as spans:
            with pytest.raises(RuntimeError):
                with tracer.span("boom"):
                    raise RuntimeError("x")
        assert spans[0].attributes["error"] == "RuntimeError"

    def test_span_times_even_when_disabled(self):
        t = Tracer(enabled=False)
        with t.span("untimed?") as span:
            pass
        assert span.seconds >= 0.0
        assert span.span_id == 0  # never recorded

    def test_maybe_span_disabled_is_shared_noop(self):
        t = get_tracer()
        was_enabled = t.enabled
        t.disable()
        try:
            span = maybe_span("anything", key="value")
            assert span is NOOP_SPAN
            with span as s:
                s.set(rows=1)
        finally:
            if was_enabled:
                t.enable()


def run_on_threads(tracer, parent, n):
    """One ``task`` span on each of ``n`` new threads, parented
    explicitly to ``parent`` (threads do not inherit the span stack)."""

    def task(i):
        with tracer.span("task", parent=parent) as span:
            span.set(index=i)

    threads = [threading.Thread(target=task, args=(i,)) for i in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestThreadSafety:
    def test_explicit_parent_crosses_threads(self, tracer):
        with tracer.capture() as spans:
            with tracer.span("caller") as caller:
                run_on_threads(tracer, caller, 4)
        tasks = [s for s in spans if s.name == "task"]
        assert len(tasks) == 4
        assert all(s.parent_id == caller.span_id for s in tasks)
        assert all(s.trace_id == caller.trace_id for s in tasks)
        assert sorted(s.attributes["index"] for s in tasks) == list(range(4))

    def test_concurrent_spans_do_not_corrupt_buffer(self, tracer):
        n_threads, per_thread = 4, 50

        def spin():
            for i in range(per_thread):
                with tracer.span("worker.op") as span:
                    span.set(i=i)

        with tracer.capture() as spans:
            threads = [threading.Thread(target=spin) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        ours = [s for s in spans if s.name == "worker.op"]
        assert len(ours) == n_threads * per_thread
        assert len({s.span_id for s in ours}) == len(ours)

    def test_capture_restores_enabled_state(self):
        t = get_tracer()
        was_enabled = t.enabled
        t.disable()
        try:
            with t.capture() as spans:
                assert t.enabled
                with t.span("inside"):
                    pass
            assert not t.enabled
            assert [s.name for s in spans] == ["inside"]
        finally:
            if was_enabled:
                t.enable()


class TestRingBuffer:
    def test_ring_buffer_drops_oldest(self):
        t = Tracer(max_spans=8, enabled=True)
        for i in range(20):
            with t.span(f"s{i}"):
                pass
        names = [s.name for s in t.spans()]
        assert len(names) == 8
        assert names == [f"s{i}" for i in range(12, 20)]

    def test_drops_increment_counter(self):
        from repro.obs.metrics import get_registry

        counter = get_registry().counter("trace.spans_dropped")
        before = counter.value
        t = Tracer(max_spans=4, enabled=True)
        for i in range(10):
            with t.span(f"s{i}"):
                pass
        assert counter.value - before == 6  # 10 finished, buffer holds 4

    def test_traces_group_by_trace_id(self):
        t = Tracer(enabled=True)
        for _ in range(3):
            with t.span("root"):
                with t.span("child"):
                    pass
        groups = t.traces()
        assert len(groups) == 3
        assert all(len(g) == 2 for g in groups)

    def test_last_traces(self):
        t = Tracer(enabled=True)
        for i in range(5):
            with t.span(f"q{i}"):
                pass
        assert [s.name for s in t.last_traces(2)] == ["q3", "q4"]
        assert t.last_traces(0) == []


class TestExporters:
    def _sample_spans(self, tracer):
        with tracer.capture() as spans:
            with tracer.span("parent", table="points") as span:
                span.set(rows_out=7)
                with tracer.span("child"):
                    pass
        return spans

    def test_json_round_trip(self, tracer):
        spans = self._sample_spans(tracer)
        rebuilt = from_json(to_json(spans))
        assert len(rebuilt) == len(spans)
        for orig, copy in zip(spans, rebuilt):
            assert copy.name == orig.name
            assert copy.span_id == orig.span_id
            assert copy.parent_id == orig.parent_id
            assert copy.trace_id == orig.trace_id
            assert copy.attributes == {
                str(k): v for k, v in orig.attributes.items()
            }
            assert copy.seconds == pytest.approx(orig.seconds)

    def test_chrome_schema(self, tracer):
        spans = self._sample_spans(tracer)
        payload = json.loads(to_chrome(spans))
        metadata = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        events = [e for e in payload["traceEvents"] if e["ph"] != "M"]
        assert len(events) == len(spans)
        assert metadata  # process/thread names lead the event list
        for event in events:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"} <= set(
                event
            )
            assert event["ph"] == "X"
            assert event["dur"] >= 0.0
        by_name = {e["name"]: e for e in events}
        assert by_name["parent"]["args"]["rows_out"] == 7
        # Microsecond timestamps: the child's interval nests in the parent's.
        parent, child = by_name["parent"], by_name["child"]
        assert parent["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1.0

    def test_chrome_sanitises_numpy_attributes(self, tracer):
        import numpy as np

        with tracer.capture() as spans:
            with tracer.span("np") as span:
                span.set(rows=np.int64(9), frac=np.float64(0.5))
        payload = json.loads(to_chrome(spans))
        events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert events[0]["args"] == {"rows": 9, "frac": 0.5}

    def test_chrome_metadata_names_process_and_threads(self, tracer):
        with tracer.capture() as spans:
            with tracer.span("caller") as caller:
                run_on_threads(tracer, caller, 2)
        payload = json.loads(to_chrome(spans))
        events = payload["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        # Metadata events lead the list so viewers name lanes up front.
        assert events[: len(metadata)] == metadata
        process = [e for e in metadata if e["name"] == "process_name"]
        assert len(process) == 1
        assert process[0]["args"]["name"] == "repro-gis"
        thread_meta = [e for e in metadata if e["name"] == "thread_name"]
        span_tids = {e["tid"] for e in events if e["ph"] == "X"}
        assert {e["tid"] for e in thread_meta} == span_tids
        assert all(e["args"]["name"] for e in thread_meta)


class TestFormatTree:
    def test_tree_indents_children_in_start_order(self, tracer):
        with tracer.capture() as spans:
            with tracer.span("root"):
                with tracer.span("first") as f:
                    f.set(rows_in=10)
                with tracer.span("second"):
                    pass
        text = format_tree(spans)
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  first")
        assert lines[2].startswith("  second")
        assert "ms" in lines[0]
        assert "rows_in=10" in lines[1]

    def test_orphan_spans_render_as_roots(self, tracer):
        with tracer.capture() as spans:
            with tracer.span("root"):
                with tracer.span("kept"):
                    pass
        # Drop the root: the child's parent is now missing from the set.
        orphans = [s for s in spans if s.name == "kept"]
        text = format_tree(orphans)
        assert text.splitlines()[0].startswith("kept")


class TestEnvSwitch:
    def test_env_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert Tracer().enabled

    def test_env_falsy_values_disable(self, monkeypatch):
        for value in ("", "0", "false", "no", "off"):
            monkeypatch.setenv("REPRO_TRACE", value)
            assert not Tracer().enabled

    def test_env_unset_disables(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert not Tracer().enabled

"""Scoped observability contexts and cross-process trace propagation."""

import numpy as np
import pytest

from repro import Box, PointCloudDB
from repro.obs.context import (
    ObsContext,
    current_context,
    default_context,
    format_traceparent,
    parse_traceparent,
)
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.queries import QueryRegistry, get_queries
from repro.obs.trace import Tracer, get_tracer


class TestTraceparent:
    def test_format_round_trips(self):
        token = format_traceparent(0xABCDEF, 0x1234)
        remote = parse_traceparent(token)
        assert remote.trace_id == 0xABCDEF
        assert remote.span_id == 0x1234

    def test_format_shape(self):
        token = format_traceparent(1, 2)
        version, trace_hex, span_hex, flags = token.split("-")
        assert version == "00"
        assert len(trace_hex) == 32
        assert len(span_hex) == 16
        assert flags == "01"

    @pytest.mark.parametrize(
        "token",
        [
            "not-a-token",
            "00-abc-def",  # too few parts
            "01-" + "a" * 32 + "-" + "b" * 16 + "-01",  # unknown version
            "00-" + "a" * 31 + "-" + "b" * 16 + "-01",  # short trace id
            "00-" + "a" * 32 + "-" + "b" * 15 + "-01",  # short span id
            "00-" + "g" * 32 + "-" + "b" * 16 + "-01",  # non-hex
            "00-" + "0" * 32 + "-" + "b" * 16 + "-01",  # zero trace id
            "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # zero span id
        ],
    )
    def test_malformed_tokens_rejected(self, token):
        with pytest.raises(ValueError):
            parse_traceparent(token)


class TestResolution:
    def test_without_activation_getters_return_singletons(self):
        assert get_registry() is default_context().registry
        assert get_tracer() is default_context().tracer
        assert get_queries() is default_context().queries

    def test_activate_redirects_getters(self):
        context = ObsContext.fresh(enabled=False)
        with context.activate():
            assert get_registry() is context.registry
            assert get_tracer() is context.tracer
            assert get_queries() is context.queries
            assert current_context() is context
        assert get_registry() is not context.registry
        assert current_context() is default_context()

    def test_activations_nest_and_unwind(self):
        outer = ObsContext.fresh(enabled=False)
        inner = ObsContext.fresh(enabled=False)
        with outer.activate():
            with inner.activate():
                assert current_context() is inner
            assert current_context() is outer

    def test_contexts_do_not_share_metrics(self):
        a = ObsContext.fresh(enabled=False)
        b = ObsContext.fresh(enabled=False)
        with a.activate():
            get_registry().counter("sql.queries").inc(3)
        with b.activate():
            assert get_registry().counter("sql.queries").value == 0
        assert a.registry.counter("sql.queries").value == 3

    def test_default_context_is_stable(self):
        assert default_context() is default_context()


class TestAdoption:
    def test_fresh_with_traceparent_joins_the_trace(self):
        token = format_traceparent(0xFEED, 0xBEEF)
        context = ObsContext.fresh(traceparent=token, enabled=True)
        with context.tracer.span("child.root") as span:
            assert span.trace_id == 0xFEED
            assert span.parent_id == 0xBEEF

    def test_child_spans_stay_in_the_adopted_trace(self):
        context = ObsContext.fresh(
            traceparent=format_traceparent(7, 9), enabled=True
        )
        with context.tracer.span("root"):
            with context.tracer.span("leaf") as leaf:
                assert leaf.trace_id == 7

    def test_traceparent_prefers_the_open_span(self):
        context = ObsContext.fresh(enabled=True)
        with context.tracer.span("q") as span:
            token = context.traceparent()
        assert token is not None
        remote = parse_traceparent(token)
        assert remote.trace_id == span.trace_id
        assert remote.span_id == span.span_id

    def test_traceparent_repropagates_adopted_token(self):
        token = format_traceparent(11, 13)
        context = ObsContext.fresh(traceparent=token, enabled=False)
        assert context.traceparent() == token

    def test_traceparent_none_without_any_trace(self):
        assert ObsContext.fresh(enabled=False).traceparent() is None

    def test_round_trip_across_contexts(self):
        """Parent context → token → child context: one stitched trace."""
        parent = ObsContext.fresh(enabled=True)
        with parent.tracer.span("scatter") as root:
            token = parent.traceparent()
        child = ObsContext.fresh(traceparent=token, enabled=True)
        with child.tracer.span("gather") as remote_span:
            pass
        assert remote_span.trace_id == root.trace_id
        assert remote_span.parent_id == root.span_id


class TestFlight:
    def test_custom_context_gets_its_own_recorder(self):
        context = ObsContext.fresh(enabled=False)
        recorder = context.flight()
        assert isinstance(recorder, FlightRecorder)
        assert recorder.registry is context.registry
        assert recorder.queries is context.queries
        assert context.flight() is recorder  # cached

    def test_default_context_hands_back_the_global_recorder(self):
        from repro.obs.flight import get_flight_recorder

        assert default_context().flight() is get_flight_recorder()


class TestDatabaseIsolation:
    def _make_db(self, context):
        db = PointCloudDB(obs=context)
        db.create_pointcloud("pts")
        rng = np.random.default_rng(3)
        db.load_points(
            "pts",
            {
                "x": rng.uniform(0, 100, 4000),
                "y": rng.uniform(0, 100, 4000),
                "z": rng.uniform(0, 10, 4000),
            },
        )
        return db

    def test_two_databases_observe_independently(self):
        ctx_a = ObsContext.fresh(enabled=False)
        ctx_b = ObsContext.fresh(enabled=False)
        db_a = self._make_db(ctx_a)
        self._make_db(ctx_b)
        db_a.spatial_select("pts", Box(10, 10, 60, 60))
        hist_a = ctx_a.registry.histogram("query.total_seconds")
        hist_b = ctx_b.registry.histogram("query.total_seconds")
        assert hist_a.snapshot()["count"] == 1
        assert hist_b.snapshot()["count"] == 0

    def test_db_traces_stay_in_their_context(self):
        context = ObsContext.fresh(enabled=True)
        db = self._make_db(context)
        global_tracer = default_context().tracer
        before = len(global_tracer.spans())
        db.spatial_select("pts", Box(10, 10, 60, 60))
        assert any(span.name == "query.spatial" for span in db.trace_spans())
        # Nothing leaked into the process-wide tracer.
        assert len(global_tracer.spans()) == before

    def test_active_queries_view(self):
        context = ObsContext.fresh(enabled=False)
        db = self._make_db(context)
        db.spatial_select("pts", Box(10, 10, 60, 60))
        snapshot = db.active_queries()
        assert snapshot["active"] == []
        assert snapshot["recent"][0]["kind"] == "spatial"
        assert snapshot["recent"][0]["status"] == "finished"

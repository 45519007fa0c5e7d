"""Tests for thematic range-predicate push-down through column imprints."""

import numpy as np
import pytest

from repro.core.imprints import ImprintsManager
from repro.engine.table import Table
from repro.sql.executor import Session


@pytest.fixture()
def session():
    rng = np.random.default_rng(17)
    n = 8000
    t = Table(
        "pts",
        [
            ("x", "float64"),
            ("y", "float64"),
            ("z", "float64"),
            ("intensity", "uint16"),
        ],
    )
    t.append_columns(
        {
            "x": rng.uniform(0, 100, n),
            "y": rng.uniform(0, 100, n),
            "z": rng.normal(10, 5, n),
            "intensity": rng.integers(0, 4000, n).astype(np.uint16),
        }
    )
    session = Session(manager=ImprintsManager())
    session.register_table(t)
    session._raw = t
    return session


class TestRangePushdown:
    def test_between_builds_imprint(self, session):
        assert session.manager.builds == 0
        got = session.execute(
            "SELECT count(*) FROM pts WHERE z BETWEEN 5 AND 15"
        ).scalar()
        # The range predicate went through a lazily built z imprint.
        assert session.manager.builds == 1
        assert session.manager.get(session._raw, "z") is not None
        zs = session._raw.column("z").values
        assert got == int(((zs >= 5) & (zs <= 15)).sum())

    @pytest.mark.parametrize(
        "predicate,reference",
        [
            ("z > 12", lambda z: z > 12),
            ("z >= 12", lambda z: z >= 12),
            ("z < 3", lambda z: z < 3),
            ("z <= 3", lambda z: z <= 3),
            ("12 < z", lambda z: z > 12),
            ("3 >= z", lambda z: z <= 3),
        ],
    )
    def test_comparison_directions(self, session, predicate, reference):
        got = session.execute(
            f"SELECT count(*) FROM pts WHERE {predicate}"
        ).scalar()
        zs = session._raw.column("z").values
        assert got == int(reference(zs).sum())
        assert session.manager.builds == 1

    def test_equality_pushdown(self, session):
        ints = session._raw.column("intensity").values
        value = int(ints[0])
        got = session.execute(
            f"SELECT count(*) FROM pts WHERE intensity = {value}"
        ).scalar()
        assert got == int((ints == value).sum())
        assert session.manager.get(session._raw, "intensity") is not None

    def test_range_plus_residual(self, session):
        got = session.execute(
            "SELECT count(*) FROM pts WHERE z > 10 AND intensity < 1000"
        ).scalar()
        zs = session._raw.column("z").values
        ints = session._raw.column("intensity").values
        assert got == int(((zs > 10) & (ints < 1000)).sum())
        # Only ONE imprint is used; the second conjunct runs as residual.
        assert session.manager.builds == 1

    def test_spatial_beats_range(self, session):
        """With a spatial conjunct present, the range predicate stays
        residual (candidates already narrowed)."""
        got = session.execute(
            "SELECT count(*) FROM pts WHERE z > 10 AND "
            "ST_Contains(ST_MakeEnvelope(10, 10, 40, 40), ST_Point(x, y))"
        ).scalar()
        t = session._raw
        xs, ys, zs = (
            t.column("x").values,
            t.column("y").values,
            t.column("z").values,
        )
        want = int(
            (
                (xs >= 10) & (xs <= 40) & (ys >= 10) & (ys <= 40) & (zs > 10)
            ).sum()
        )
        assert got == want
        # Spatial imprint built (x or y), z left alone.
        assert session.manager.get(t, "z") is None

    def test_not_between_stays_residual(self, session):
        got = session.execute(
            "SELECT count(*) FROM pts WHERE z NOT BETWEEN 5 AND 15"
        ).scalar()
        zs = session._raw.column("z").values
        assert got == int((~((zs >= 5) & (zs <= 15))).sum())

    def test_string_columns_not_pushed(self):
        session = Session()
        session.register_columns(
            "tags", {"k": [1, 2, 3], "name": ["a", "b", "a"]}
        )
        got = session.execute("SELECT count(*) FROM tags WHERE name = 'a'")
        assert got.scalar() == 2

    def test_column_to_column_not_pushed(self, session):
        got = session.execute("SELECT count(*) FROM pts WHERE z > x").scalar()
        t = session._raw
        want = int((t.column("z").values > t.column("x").values).sum())
        assert got == want
        # No constant side -> no imprint involvement.
        assert session.manager.builds == 0


@pytest.fixture()
def packed_session():
    """A session over LAS-style integer coordinates with compressed
    execution mirrors built (and no imprints yet)."""
    rng = np.random.default_rng(29)
    n = 40_000
    t = Table("pts", [("x", "int64"), ("z", "int64"), ("cls", "uint8")])
    t.append_columns(
        {
            "x": np.sort(rng.integers(0, 200_000, n)),
            "z": rng.integers(-500, 4000, n),
            "cls": rng.integers(0, 3, n).astype(np.uint8),
        }
    )
    t.compress(segment_rows=4096)
    session = Session(manager=ImprintsManager())
    session.register_table(t)
    session._raw = t
    return session


class TestPackedPushdown:
    def test_packed_serves_range_without_imprint(self, packed_session):
        got = packed_session.execute(
            "SELECT count(*) FROM pts WHERE x BETWEEN 50000 AND 60000"
        ).scalar()
        xs = packed_session._raw.column("x").values
        assert got == int(((xs >= 50_000) & (xs <= 60_000)).sum())
        # The packed mirror absorbed the predicate: no imprint was built.
        assert packed_session.manager.builds == 0

    def test_built_imprint_beats_packed(self, packed_session):
        t = packed_session._raw
        packed_session.manager.ensure(t, "x")
        assert packed_session.manager.builds == 1
        got = packed_session.execute(
            "SELECT count(*) FROM pts WHERE x BETWEEN 50000 AND 60000"
        ).scalar()
        xs = t.column("x").values
        assert got == int(((xs >= 50_000) & (xs <= 60_000)).sum())
        plan = packed_session.explain(
            "SELECT count(*) FROM pts WHERE x BETWEEN 50000 AND 60000"
        )
        assert "via imprint on 'x'" in plan

    def test_no_manager_still_pushes_packed(self, packed_session):
        session = Session(manager=None)
        session.register_table(packed_session._raw)
        got = session.execute(
            "SELECT count(*) FROM pts WHERE z >= 1000"
        ).scalar()
        zs = packed_session._raw.column("z").values
        assert got == int((zs >= 1000).sum())

    def test_explain_names_packed_access(self, packed_session):
        plan = packed_session.explain(
            "SELECT count(*) FROM pts WHERE x BETWEEN 50000 AND 60000"
        )
        assert "range filter via packed segments on 'x'" in plan

    def test_explain_analyze_reports_encoded_bytes(self, packed_session):
        text = packed_session.explain_analyze(
            "SELECT count(*) FROM pts WHERE x BETWEEN 50000 AND 60000"
        )
        lines = text.splitlines()
        range_line = next(l for l in lines if "filter.range" in l)
        assert "access=packed" in range_line
        # The nested select operator reports the bytes split: encoded
        # payloads scanned vs rows decoded (late materialization).
        select_line = next(l for l in lines if "select.range" in l)
        assert "encoded_bytes=" in select_line
        assert "materialized_bytes=" in select_line
        assert "segments_skipped=" in select_line

    def test_packed_parity_across_plain_rerun(self, packed_session):
        sql = "SELECT count(*) FROM pts WHERE z > 2000 AND cls = 1"
        packed_count = packed_session.execute(sql).scalar()
        for name in ("x", "z", "cls"):
            packed_session._raw.column(name).adopt_packed(None)
        assert packed_session.execute(sql).scalar() == packed_count

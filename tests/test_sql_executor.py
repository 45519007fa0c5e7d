"""Integration tests for the SQL executor, incl. the imprints push-down."""

import re

import numpy as np
import pytest

from repro.core.imprints import ImprintsManager
from repro.engine.table import Table
from repro.gis.geometry import LineString, Polygon
from repro.sql.executor import Session, SqlExecutionError


@pytest.fixture()
def session():
    rng = np.random.default_rng(0)
    n = 5000
    table = Table(
        "pts",
        [
            ("x", "float64"),
            ("y", "float64"),
            ("z", "float64"),
            ("classification", "uint8"),
            ("intensity", "uint16"),
        ],
    )
    table.append_columns(
        {
            "x": rng.uniform(0, 100, n),
            "y": rng.uniform(0, 100, n),
            "z": rng.normal(10, 5, n),
            "classification": rng.choice(
                np.array([2, 6, 9], dtype=np.uint8), n
            ),
            "intensity": rng.integers(0, 1000, n).astype(np.uint16),
        }
    )
    session = Session()
    session.register_table(table)

    zones = {
        "zone_id": np.array([1, 2]),
        "code": np.array([12210, 31000]),
        "geom": [
            Polygon([(10, 10), (30, 10), (30, 30), (10, 30)]),
            Polygon([(50, 50), (80, 50), (80, 90), (50, 90)]),
        ],
        "label": ["fast transit", "forest"],
    }
    session.register_columns("zones", zones)
    session._raw = table  # keep for reference computations in tests
    return session


class TestBasicSelect:
    def test_projection(self, session):
        result = session.execute("SELECT x, y FROM pts LIMIT 5")
        assert result.columns == ["x", "y"]
        assert len(result) == 5

    def test_star(self, session):
        result = session.execute("SELECT * FROM pts LIMIT 1")
        assert "pts.x" in result.columns
        assert len(result.columns) == 5

    def test_arithmetic_and_alias(self, session):
        result = session.execute("SELECT z * 2 AS double_z FROM pts LIMIT 3")
        assert result.columns == ["double_z"]
        zs = session._raw.column("z").values
        assert result.rows[0][0] == pytest.approx(zs[0] * 2)

    def test_where_comparison(self, session):
        result = session.execute("SELECT x FROM pts WHERE x < 10")
        xs = session._raw.column("x").values
        assert len(result) == int((xs < 10).sum())

    def test_where_in_and_between(self, session):
        result = session.execute(
            "SELECT x FROM pts WHERE classification IN (2, 9) "
            "AND x BETWEEN 40 AND 60"
        )
        xs = session._raw.column("x").values
        cls = session._raw.column("classification").values
        want = int((np.isin(cls, [2, 9]) & (xs >= 40) & (xs <= 60)).sum())
        assert len(result) == want

    def test_order_by_and_limit(self, session):
        result = session.execute("SELECT x FROM pts ORDER BY x DESC LIMIT 3")
        xs = np.sort(session._raw.column("x").values)[::-1][:3]
        got = [row[0] for row in result.rows]
        np.testing.assert_allclose(got, xs)

    def test_unknown_table(self, session):
        with pytest.raises(SqlExecutionError):
            session.execute("SELECT x FROM ghosts")

    def test_unknown_column(self, session):
        with pytest.raises(SqlExecutionError):
            session.execute("SELECT bogus FROM pts")


#: Statements a client gets wrong: each must be a typed SQL error from
#: both ``execute`` and ``explain`` (the daemon answers 400, not 500).
CLIENT_ERRORS = {
    "degenerate_envelope": (
        "SELECT count(*) FROM pts WHERE "
        "ST_Contains(ST_MakeEnvelope(10, 10, 0, 0), ST_Point(x, y))",
        "ST_MakeEnvelope",
    ),
    "unknown_function": ("SELECT nosuchfn(x) FROM pts", "unknown function 'nosuchfn'"),
    "malformed_wkt": (
        "SELECT count(*) FROM pts WHERE "
        "ST_Contains(ST_GeomFromText('POLYGON((0 0, 1 1))'), ST_Point(x, y))",
        "st_geomfromtext",
    ),
}


class TestClientErrors:
    @pytest.mark.parametrize("case", sorted(CLIENT_ERRORS))
    def test_typed_from_execute_and_explain(self, session, case):
        sql, message = CLIENT_ERRORS[case]
        for run in (session.execute, session.explain):
            with pytest.raises(SqlExecutionError, match=re.escape(message)):
                run(sql)


class TestAggregates:
    def test_count_star(self, session):
        assert session.execute("SELECT count(*) FROM pts").scalar() == 5000

    def test_avg(self, session):
        got = session.execute("SELECT avg(z) FROM pts").scalar()
        assert got == pytest.approx(session._raw.column("z").values.mean())

    def test_min_max_sum(self, session):
        result = session.execute("SELECT min(z), max(z), sum(z) FROM pts")
        zs = session._raw.column("z").values
        assert result.rows[0][0] == pytest.approx(zs.min())
        assert result.rows[0][1] == pytest.approx(zs.max())
        assert result.rows[0][2] == pytest.approx(zs.sum())

    def test_group_by(self, session):
        result = session.execute(
            "SELECT classification, count(*) FROM pts GROUP BY classification"
        )
        cls = session._raw.column("classification").values
        want = {int(c): int((cls == c).sum()) for c in np.unique(cls)}
        got = {int(row[0]): row[1] for row in result.rows}
        assert got == want

    def test_group_by_avg(self, session):
        result = session.execute(
            "SELECT classification, avg(z) FROM pts GROUP BY classification"
        )
        cls = session._raw.column("classification").values
        zs = session._raw.column("z").values
        for code, mean_z in result.rows:
            assert mean_z == pytest.approx(zs[cls == code].mean())

    def test_aggregate_on_empty_group(self, session):
        result = session.execute("SELECT avg(z) FROM pts WHERE x > 1000")
        assert result.rows[0][0] is None

    def test_aggregate_arithmetic(self, session):
        got = session.execute("SELECT max(z) - min(z) FROM pts").scalar()
        zs = session._raw.column("z").values
        assert got == pytest.approx(zs.max() - zs.min())


class TestSpatialPushdown:
    WKT = "POLYGON ((20 20, 60 25, 50 70, 25 60, 20 20))"

    def _reference(self, session, polygon=None):
        from repro.gis import loads
        from repro.gis.predicates import points_satisfy

        geom = loads(polygon or self.WKT)
        xs = session._raw.column("x").values
        ys = session._raw.column("y").values
        return points_satisfy(xs, ys, geom)

    def test_st_contains_matches_reference(self, session):
        result = session.execute(
            f"SELECT count(*) FROM pts WHERE "
            f"ST_Contains(ST_GeomFromText('{self.WKT}'), ST_Point(x, y))"
        )
        assert result.scalar() == int(self._reference(session).sum())

    def test_pushdown_builds_imprints(self, session):
        assert session.manager.builds == 0
        session.execute(
            f"SELECT count(*) FROM pts WHERE "
            f"ST_Contains(ST_GeomFromText('{self.WKT}'), ST_Point(x, y))"
        )
        # The cascade builds at least the first-axis imprint lazily.
        assert session.manager.builds >= 1

    def test_st_dwithin(self, session):
        from repro.gis.predicates import points_satisfy

        line = LineString([(0, 50), (100, 50)])
        result = session.execute(
            "SELECT count(*) FROM pts WHERE "
            "ST_DWithin(ST_GeomFromText('LINESTRING (0 50, 100 50)'),"
            " ST_Point(x, y), 5)"
        )
        xs = session._raw.column("x").values
        ys = session._raw.column("y").values
        want = int(points_satisfy(xs, ys, line, "dwithin", 5.0).sum())
        assert result.scalar() == want

    def test_spatial_plus_thematic(self, session):
        result = session.execute(
            f"SELECT count(*) FROM pts WHERE classification = 6 AND "
            f"ST_Contains(ST_GeomFromText('{self.WKT}'), ST_Point(x, y))"
        )
        mask = self._reference(session)
        cls = session._raw.column("classification").values
        assert result.scalar() == int((mask & (cls == 6)).sum())

    def test_envelope_function(self, session):
        result = session.execute(
            "SELECT count(*) FROM pts WHERE "
            "ST_Contains(ST_MakeEnvelope(10, 10, 20, 30), ST_Point(x, y))"
        )
        xs = session._raw.column("x").values
        ys = session._raw.column("y").values
        want = int(((xs >= 10) & (xs <= 20) & (ys >= 10) & (ys <= 30)).sum())
        assert result.scalar() == want


class TestJoins:
    def test_thematic_spatial_join(self, session):
        """The Scenario-2 signature query: points near fast-transit zones."""
        result = session.execute(
            "SELECT count(*) FROM pts p, zones u WHERE u.code = 12210 AND "
            "ST_Contains(u.geom, ST_Point(p.x, p.y))"
        )
        from repro.gis.predicates import points_satisfy

        xs = session._raw.column("x").values
        ys = session._raw.column("y").values
        zone = Polygon([(10, 10), (30, 10), (30, 30), (10, 30)])
        assert result.scalar() == int(points_satisfy(xs, ys, zone).sum())

    def test_avg_elevation_near_zone(self, session):
        result = session.execute(
            "SELECT u.label, avg(p.z) FROM pts p, zones u "
            "WHERE ST_Contains(u.geom, ST_Point(p.x, p.y)) "
            "GROUP BY u.label"
        )
        assert len(result) == 2
        labels = {row[0] for row in result.rows}
        assert labels == {"fast transit", "forest"}

    def test_join_on_syntax(self, session):
        result = session.execute(
            "SELECT count(*) FROM pts p JOIN zones u ON "
            "ST_Contains(u.geom, ST_Point(p.x, p.y)) WHERE u.zone_id = 2"
        )
        from repro.gis.predicates import points_satisfy

        xs = session._raw.column("x").values
        ys = session._raw.column("y").values
        zone = Polygon([(50, 50), (80, 50), (80, 90), (50, 90)])
        assert result.scalar() == int(points_satisfy(xs, ys, zone).sum())

    def test_dwithin_join_with_zone_distance(self, session):
        result = session.execute(
            "SELECT u.zone_id, count(*) FROM pts p, zones u "
            "WHERE ST_DWithin(u.geom, ST_Point(p.x, p.y), 5) "
            "GROUP BY u.zone_id"
        )
        assert len(result) == 2

    def test_duplicate_binding_rejected(self, session):
        with pytest.raises(SqlExecutionError):
            session.execute("SELECT 1 FROM pts, pts")


class TestStaleness:
    def test_session_sees_appends_to_registered_table(self):
        """A long-lived session must stay consistent when the backing
        table grows after registration (imprints rebuild + re-snapshot)."""
        rng = np.random.default_rng(3)
        table = Table("pts", [("x", "float64"), ("y", "float64")])
        table.append_columns(
            {"x": rng.uniform(0, 100, 1000), "y": rng.uniform(0, 100, 1000)}
        )
        session = Session()
        session.register_table(table)
        before = session.execute("SELECT count(*) FROM pts").scalar()
        # A spatial query builds the imprints over the 1000-row snapshot.
        session.execute(
            "SELECT count(*) FROM pts WHERE "
            "ST_Contains(ST_MakeEnvelope(0, 0, 50, 50), ST_Point(x, y))"
        )
        table.append_columns({"x": [25.0], "y": [25.0]})
        after = session.execute("SELECT count(*) FROM pts").scalar()
        assert after == before + 1
        got = session.execute(
            "SELECT count(*) FROM pts WHERE "
            "ST_Contains(ST_MakeEnvelope(24, 24, 26, 26), ST_Point(x, y))"
        ).scalar()
        xs = table.column("x").values
        ys = table.column("y").values
        want = int(
            ((xs >= 24) & (xs <= 26) & (ys >= 24) & (ys <= 26)).sum()
        )
        assert got == want


class TestObjectRelations:
    def test_string_filter(self, session):
        result = session.execute(
            "SELECT zone_id FROM zones WHERE label = 'forest'"
        )
        assert result.rows == [(2,)]

    def test_geometry_accessors(self, session):
        result = session.execute("SELECT ST_Area(geom) FROM zones ORDER BY 1")
        areas = sorted(row[0] for row in result.rows)
        assert areas == [400.0, 1200.0]

"""Tests for Session.explain (the demo's query-plan view, Section 4.2)."""

import itertools
import re

import numpy as np
import pytest

from repro.engine.table import Table
from repro.gis.geometry import LineString, Polygon
from repro.sql.executor import Session, SqlExecutionError
from repro.sql.parser import parse
from repro.sql.plan import plan_select


@pytest.fixture()
def session():
    rng = np.random.default_rng(0)
    t = Table(
        "pts",
        [
            ("x", "float64"),
            ("y", "float64"),
            ("z", "float64"),
            ("c", "uint8"),
            ("intensity", "uint16"),
        ],
    )
    t.append_columns(
        {
            "x": rng.uniform(0, 100, 500),
            "y": rng.uniform(0, 100, 500),
            "z": rng.uniform(0, 10, 500),
            "c": rng.integers(0, 5, 500).astype(np.uint8),
            "intensity": rng.integers(0, 1000, 500).astype(np.uint16),
        }
    )
    packed = Table("packed", [("v", "int64")])
    packed.append_columns({"v": rng.integers(0, 1000, 500)})
    packed.compress(segment_rows=128)
    zones = Table("zones", [("zone_id", "int64"), ("code", "int64")])
    zones.append_columns({"zone_id": [1, 2], "code": [10, 20]})
    session = Session()
    session.register_table(t)
    session.register_table(zones, point_columns=None)
    session.register_table(packed, point_columns=None)
    session.register_columns(
        "geo_zones",
        {
            "code": np.array([10]),
            "geom": [Polygon([(0, 0), (50, 0), (50, 50), (0, 50)])],
        },
    )
    session.register_columns(
        "roads",
        {
            "class": np.array([1, 2]),
            "geom": [LineString([(0, 0), (100, 100)]), LineString([(0, 100), (100, 0)])],
        },
    )
    session.register_columns("names", {"label": ["a", "b", "c"]})
    session.register_columns("codes", {"label": ["b", "c"], "code": np.array([1, 2])})
    return session


class TestExplain:
    def test_spatial_pushdown_visible(self, session):
        plan = session.explain(
            "SELECT count(*) FROM pts WHERE "
            "ST_Contains(ST_MakeEnvelope(0, 0, 10, 10), ST_Point(x, y))"
        )
        assert (
            "spatial filter [contains] via imprints on its box (exact, no "
            "refinement): st_contains(st_makeenvelope(0, 0, 10, 10), st_point(x, y))"
        ) in plan
        assert "residual" not in plan

    def test_non_rectangle_keeps_grid_refinement(self, session):
        plan = session.explain(
            "SELECT count(*) FROM pts WHERE ST_Contains(ST_GeomFromText("
            "'POLYGON((0 0, 10 0, 10 10, 0 12, 0 0))'), ST_Point(x, y))"
        )
        assert (
            "spatial filter [contains] via imprints + grid refinement: "
            "st_contains(st_geomfromtext('POLYGON((0 0, 10 0, 10 10, 0 12, 0 0))'), "
            "st_point(x, y))"
        ) in plan
        assert "exact" not in plan

    def test_range_pushdown_visible(self, session):
        plan = session.explain("SELECT count(*) FROM pts WHERE z BETWEEN 1 AND 3")
        assert "range filter via imprint on 'z'" in plan

    def test_residual_listed(self, session):
        plan = session.explain(
            "SELECT count(*) FROM pts WHERE z > 1 AND c = 2"
        )
        assert "range filter via imprint on 'z'" in plan
        assert "residual scan filter" in plan

    def test_spatial_suppresses_range_pushdown(self, session):
        plan = session.explain(
            "SELECT count(*) FROM pts WHERE z > 1 AND "
            "ST_Contains(ST_MakeEnvelope(0, 0, 10, 10), ST_Point(x, y))"
        )
        assert "spatial filter" in plan
        # z > 1 stays residual once the spatial index narrowed candidates.
        assert "residual scan filter: (z > 1)" in plan

    def test_hash_join_visible(self, session):
        plan = session.explain("SELECT count(*) FROM pts p, zones u WHERE p.c = u.code")
        assert "hash join" in plan
        assert "join residual" not in plan

    def test_hash_join_residual_visible(self, session):
        """The conjunct the hash join filters its pairs on is explained."""
        plan = session.explain(
            "SELECT count(*) FROM pts p, zones u WHERE p.c = u.code AND p.z > u.code"
        )
        assert "hash join on (p.c = u.code)" in plan
        assert "  join residual: (p.z > u.code)" in plan.splitlines()

    def test_nested_loop_join_visible(self, session):
        plan = session.explain(
            "SELECT count(*) FROM pts p, geo_zones g WHERE "
            "ST_Contains(g.geom, ST_Point(p.x, p.y))"
        )
        assert "nested-loop join" in plan
        assert "outer loop over geo_zones" in plan
        assert "inner probe" in plan
        assert "spatial filter" in plan

    def test_per_row_geometry_refines_unless_a_rectangle(self, session):
        """A geometry read from the outer row is unknown at plan time: the
        plan says refinement runs unless the row's geometry is a rectangle
        (geo_zones' one polygon is, so EXPLAIN ANALYZE shows no refine
        span); ``dwithin`` always refines."""
        sql = (
            "SELECT count(*) FROM pts p, geo_zones g WHERE "
            "ST_Contains(g.geom, ST_Point(p.x, p.y))"
        )
        assert (
            "spatial filter [contains] via imprints + grid refinement unless "
            "the row's geometry is a rectangle: st_contains(g.geom, st_point(p.x, p.y))"
        ) in session.explain(sql)
        assert "query.refine" not in session.explain_analyze(sql)
        plan = session.explain(
            "SELECT count(*) FROM pts p, roads r WHERE "
            "ST_DWithin(r.geom, ST_Point(p.x, p.y), 5)"
        )
        assert (
            "spatial filter [dwithin] via imprints + grid refinement: "
            "st_dwithin(r.geom, st_point(p.x, p.y), 5)"
        ) in plan

    def test_clauses_listed(self, session):
        plan = session.explain(
            "SELECT c, count(*) FROM pts GROUP BY c HAVING count(*) > 1 "
            "ORDER BY c DESC LIMIT 3"
        )
        assert "group by c" in plan
        assert "having" in plan
        assert "order by c desc" in plan
        assert "limit 3" in plan

    def test_aggregate_without_group(self, session):
        plan = session.explain("SELECT avg(z) FROM pts")
        assert "aggregate (single group)" in plan

    def test_distinct(self, session):
        plan = session.explain("SELECT DISTINCT c FROM pts")
        assert "distinct" in plan

    def test_explain_does_not_execute(self, session):
        session.explain(
            "SELECT count(*) FROM pts WHERE z BETWEEN 1 AND 3"
        )
        # No imprint was built: explain is planning only.
        assert session.manager.builds == 0

    def test_object_keys_explain_the_nested_loop_they_run(self, session):
        sql = "SELECT count(*) FROM names n, codes k WHERE n.label = k.label"
        plan = session.explain(sql)
        assert plan.startswith("nested-loop join"), plan
        assert "residual scan filter: (n.label = k.label)" in plan
        assert session.execute(sql).scalar() == 2

    def test_explain_sees_appends(self, session):
        table = session.relation("pts").table
        table.append_columns(
            {name: np.zeros(5, dtype=dtype) for name, dtype in table.schema}
        )
        plan = session.explain("SELECT count(*) FROM pts")
        assert "access pts as pts (505 rows)" in plan
        assert session.execute("SELECT count(*) FROM pts").scalar() == 505

    def test_explain_rejects_what_execute_rejects(self, session):
        sql = "SELECT count(*) FROM pts, pts"
        for run in (session.explain, session.execute):
            with pytest.raises(SqlExecutionError, match="duplicate table binding 'pts'"):
                run(sql)


#: Every statement this file explains, plus one per Scenario-2 template
#: shape of the SQL benchmark (viewport average, z slab, intensity
#: histogram, roads ``dwithin`` join) and a packed-segment range.
PLANNED = [
    "SELECT count(*) FROM pts WHERE "
    "ST_Contains(ST_MakeEnvelope(0, 0, 10, 10), ST_Point(x, y))",
    "SELECT count(*) FROM pts WHERE z BETWEEN 1 AND 3",
    "SELECT count(*) FROM pts WHERE z > 1 AND c = 2",
    "SELECT count(*) FROM pts WHERE z > 1 AND "
    "ST_Contains(ST_MakeEnvelope(0, 0, 10, 10), ST_Point(x, y))",
    "SELECT count(*) FROM pts p, zones u WHERE p.c = u.code",
    "SELECT count(*) FROM pts p, geo_zones g WHERE "
    "ST_Contains(g.geom, ST_Point(p.x, p.y))",
    "SELECT c, count(*) FROM pts GROUP BY c HAVING count(*) > 1 "
    "ORDER BY c DESC LIMIT 3",
    "SELECT avg(z) FROM pts",
    "SELECT DISTINCT c FROM pts",
    "SELECT count(*) FROM names n, codes k WHERE n.label = k.label",
    "SELECT avg(z) FROM pts WHERE "
    "ST_Contains(ST_MakeEnvelope(20, 20, 60, 60), ST_Point(x, y))",
    "SELECT count(*), avg(z) FROM pts WHERE z BETWEEN 7.0 AND 7.5",
    "SELECT c, count(*), avg(intensity) FROM pts WHERE intensity > 500 GROUP BY c",
    "SELECT max(l.z) FROM pts l, roads r WHERE r.class = 1 "
    "AND ST_DWithin(r.geom, ST_Point(l.x, l.y), 30)",
    "SELECT count(*) FROM packed WHERE v BETWEEN 10 AND 20",
    "SELECT count(*) FROM pts WHERE ST_Contains(ST_GeomFromText("
    "'POLYGON((0 0, 10 0, 10 10, 0 12, 0 0))'), ST_Point(x, y))",
    "SELECT count(*) FROM pts WHERE ST_Intersects(ST_GeomFromText("
    "'POLYGON((60 70, 20 70, 20 30, 60 30, 60 70))'), ST_Point(x, y))",
    "SELECT count(*) FROM pts WHERE "
    "ST_DWithin(ST_MakeEnvelope(20, 20, 60, 60), ST_Point(x, y), 5)",
]


def _explained(plan):
    """Join strategy and filter steps as EXPLAIN names them."""
    join = {"hash": "join.hash", "nested-loop": "join.nested_loop"}
    steps = set()
    for line in plan.splitlines():
        line = line.strip()
        spatial = re.match(r"spatial filter \[(\w+)\]", line)
        ranged = re.match(r"range filter via (imprint|packed segments) on '(\w+)'", line)
        if spatial:
            exact = "exact, no refinement" in line
            steps.add(("filter.spatial", spatial.group(1), exact))
        elif ranged:
            steps.add(("filter.range", ranged.group(2), ranged.group(1).split()[0]))
        elif line.startswith("residual scan filter"):
            steps.add(("filter.residual",))
    return join.get(plan.split()[0]), steps


def _depth(line):
    return len(line) - len(line.lstrip())


def _analyzed(text):
    """Join strategy and filter steps as the spans of a run record them;
    a spatial filter is exact when no ``query.refine`` span ran under it."""
    join, steps = None, set()
    lines = text.splitlines()
    for position, line in enumerate(lines):
        name = line.split()[0]
        if name.startswith("join."):
            join = name
        elif name == "filter.spatial":
            below = itertools.takewhile(
                lambda child: _depth(child) > _depth(line), lines[position + 1:]
            )
            exact = not any(child.split()[0] == "query.refine" for child in below)
            steps.add((name, re.search(r"predicate=(\w+)", line).group(1), exact))
        elif name == "filter.range":
            access = "packed" if "access=packed" in line else "imprint"
            steps.add((name, re.search(r"column=(\w+)", line).group(1), access))
        elif name == "filter.residual":
            steps.add((name,))
    return join, steps


def _per_row_geometry(session, sql):
    """Does a spatial filter take its geometry from another relation's
    rows?  EXPLAIN cannot know whether those rows are rectangles."""
    plan = plan_select(parse(sql), session.relation)
    return any(f.value is None for access in plan.accesses for f in access.spatial)


def _without_exactness(steps):
    return {step[:2] if step[0] == "filter.spatial" else step for step in steps}


@pytest.mark.parametrize("sql", PLANNED)
def test_explain_names_what_analyze_runs(session, sql):
    plan = session.explain(sql)
    explained = _explained(plan)
    analyzed = _analyzed(session.explain_analyze(sql))
    if _per_row_geometry(session, sql):
        explained = (explained[0], _without_exactness(explained[1]))
        analyzed = (analyzed[0], _without_exactness(analyzed[1]))
    assert explained == analyzed, plan


class TestProfile:
    def test_last_profile_phases(self, session):
        session.execute("SELECT count(*) FROM pts WHERE z BETWEEN 1 AND 3")
        profile = session.last_profile
        assert set(profile) == {"parse", "join_filter", "project", "total"}
        assert all(v >= 0 for v in profile.values())
        assert profile["total"] >= profile["parse"]
        assert profile["total"] == pytest.approx(
            profile["parse"] + profile["join_filter"] + profile["project"],
            rel=0.5,
        )

    def test_profile_refreshes_per_query(self, session):
        session.execute("SELECT count(*) FROM pts")
        first = dict(session.last_profile)
        session.execute("SELECT count(*) FROM pts WHERE c = 1")
        assert session.last_profile != first or session.last_profile["total"] > 0

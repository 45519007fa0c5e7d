"""Late-materialised SQL frames: what a statement gathers, and that the
group-by kernels answer like a row-at-a-time evaluator.

(a) A gather spy — a relation column mapping that records every name
fetched from it, handing out arrays that record every fancy-index — pins
which columns each Scenario-2 statement shape reads, and how many rows.
(b) A hypothesis differential of random aggregate and plain statements
against brute-force Python (``itertools.groupby``, ``math.fsum``).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.table import Table
from repro.gis.geometry import LineString
from repro.sql.executor import Session

# -- (a) the gather spy -----------------------------------------------------------


class _Recording(np.ndarray):
    """A column whose fancy-indexing (a gather) is recorded."""

    def __getitem__(self, key):
        log = getattr(self, "log", None)
        if log is not None and isinstance(key, np.ndarray):
            rows = int(key.sum()) if key.dtype == bool else key.shape[0]
            log.append((self.column_name, rows))
        return np.asarray(super().__getitem__(key))


class SpyColumns(dict):
    """A relation's columns, recording each name fetched and each gather."""

    def __init__(self, columns):
        super().__init__(columns)
        self.fetched = []
        self.gathers = []

    def __getitem__(self, name):
        self.fetched.append(name)
        spy = super().__getitem__(name).view(_Recording)
        spy.log, spy.column_name = self.gathers, name
        return spy


N_POINTS = 6000


@pytest.fixture()
def spied():
    rng = np.random.default_rng(21)
    table = Table(
        "points",
        [
            ("x", "float64"),
            ("y", "float64"),
            ("z", "float64"),
            ("intensity", "uint16"),
            ("classification", "uint8"),
            ("gps_time", "float64"),
            ("return_number", "uint8"),
        ],
    )
    table.append_columns(
        {
            "x": rng.uniform(0, 100, N_POINTS),
            "y": rng.uniform(0, 100, N_POINTS),
            "z": rng.normal(10, 5, N_POINTS),
            "intensity": rng.integers(0, 2000, N_POINTS).astype(np.uint16),
            "classification": rng.choice(np.array([2, 6, 9], dtype=np.uint8), N_POINTS),
            "gps_time": np.arange(N_POINTS, dtype=np.float64),
            "return_number": rng.integers(1, 5, N_POINTS).astype(np.uint8),
        }
    )
    session = Session()
    points = session.register_table(table)
    roads = session.register_columns(
        "roads",
        {
            "road_id": [1, 2, 3],
            "class": [1, 2, 1],
            "name": ["A13", "lane", "A4"],
            "geom": [
                LineString([(5, 5), (95, 40)]),
                LineString([(5, 95), (95, 95)]),
                LineString([(50, 0), (50, 100)]),
            ],
        },
    )
    cloud = {name: np.array(arr) for name, arr in points.columns.items()}
    points.columns = SpyColumns(points.columns)
    roads.columns = SpyColumns(roads.columns)
    return session, points.columns, roads.columns, cloud


class TestGatherSpy:
    def test_zslab_touches_only_z(self, spied):
        session, points, _roads, cloud = spied
        result = session.execute(
            "SELECT count(*), avg(z) FROM points WHERE z BETWEEN 8 AND 9"
        )
        z = cloud["z"]
        inside = z[(z >= 8) & (z <= 9)]
        assert result.rows == [(inside.shape[0], pytest.approx(inside.mean(), rel=1e-12))]
        assert points.fetched == ["z"]
        assert points.gathers == [("z", inside.shape[0])]

    def test_histogram_touches_key_and_argument(self, spied):
        session, points, _roads, cloud = spied
        result = session.execute(
            "SELECT classification, count(*), avg(intensity) FROM points "
            "WHERE intensity > 1500 GROUP BY classification"
        )
        mask = cloud["intensity"] > 1500
        want = [
            (
                int(code),
                int((cloud["classification"][mask] == code).sum()),
                float(cloud["intensity"][mask][cloud["classification"][mask] == code].mean()),
            )
            for code in (2, 6, 9)
        ]
        assert [row[:2] for row in result.rows] == [row[:2] for row in want]
        assert [row[2] for row in result.rows] == pytest.approx([row[2] for row in want])
        assert sorted(points.fetched) == ["classification", "intensity"]
        # Each is read from the relation once, at the selection's rows;
        # the per-group key comes out of the already-gathered key column.
        assert sorted(points.gathers) == [
            ("classification", int(mask.sum())),
            ("intensity", int(mask.sum())),
        ]

    def test_dwithin_join_touches_only_named_columns(self, spied):
        session, points, roads, cloud = spied
        result = session.execute(
            "SELECT max(l.z) FROM points l, roads r WHERE r.class = 1 "
            "AND ST_DWithin(r.geom, ST_Point(l.x, l.y), 3)"
        )
        from repro.gis.predicates import points_satisfy

        near = np.zeros(N_POINTS, dtype=bool)
        for code, geom in zip([1, 2, 1], dict.__getitem__(roads, "geom")):
            if code == 1:
                near |= points_satisfy(cloud["x"], cloud["y"], geom, "dwithin", 3.0)
        assert result.scalar() == cloud["z"][near].max()
        # The spatial probe reads x and y through the table's imprints, not
        # through the relation's columns; only the aggregate's argument is
        # gathered, once, over all probes' hits together.
        assert points.fetched == ["z"]
        assert [name for name, _rows in points.gathers] == ["z"]
        assert sorted(roads.fetched) == ["class", "geom"]

    def test_limit_cuts_before_gathering(self, spied):
        session, points, _roads, cloud = spied
        result = session.execute("SELECT x, y, z FROM points WHERE z > 0 LIMIT 100")
        rows = np.flatnonzero(cloud["z"] > 0)[:100]
        assert result.rows == list(
            zip(cloud["x"][rows].tolist(), cloud["y"][rows].tolist(), cloud["z"][rows].tolist())
        )
        assert sorted(points.gathers) == [("x", 100), ("y", 100), ("z", 100)]

    def test_order_by_still_sees_every_row(self, spied):
        session, points, _roads, cloud = spied
        result = session.execute("SELECT x FROM points WHERE z > 0 ORDER BY z LIMIT 3")
        rows = np.flatnonzero(cloud["z"] > 0)
        want = cloud["x"][rows][np.argsort(cloud["z"][rows], kind="stable")[:3]]
        assert [row[0] for row in result.rows] == want.tolist()
        assert ("x", rows.shape[0]) in points.gathers


# -- (b) differential against a row-at-a-time evaluator ------------------------------

N_ROWS = 240
_RNG = np.random.default_rng(1234)
_F = _RNG.choice(np.array([0.5, 1.5, 2.5]), N_ROWS)
_F[_RNG.random(N_ROWS) < 0.2] = np.nan
COLUMNS = {
    "k": _RNG.integers(0, 5, N_ROWS),
    "s": _RNG.choice(np.array(["ash", "birch", "elm", "oak"]), N_ROWS).tolist(),
    "f": _F,
    "v": _RNG.integers(0, 50, N_ROWS),
    "u": _RNG.integers(0, 256, N_ROWS).astype(np.uint8),
    "w": _RNG.uniform(0.0, 100.0, N_ROWS),
}
ROWS = [
    {name: (col[i].item() if isinstance(col, np.ndarray) else col[i]) for name, col in COLUMNS.items()}
    for i in range(N_ROWS)
]
LABELS = {"code": [0, 1, 2, 3, 3], "label": ["zero", "one", "two", "three", "drei"]}


def make_session() -> Session:
    session = Session()
    session.register_columns("t", COLUMNS)
    session.register_columns("d", LABELS)
    return session


def _sort_key(value):
    """Ascending, NaNs last and equal to each other."""
    if isinstance(value, float) and math.isnan(value):
        return (1, 0.0)
    return (0, value)


def _same(got, want, exact: bool) -> bool:
    if isinstance(want, float) and math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    if got is None or want is None or exact:
        return got == want and type(got) is type(want)
    return math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)


#: SQL text, row-at-a-time evaluator over a group's rows, exact comparison?
AGGREGATES = {
    "count(*)": (len, True),
    "count(v)": (len, True),
    "sum(v)": (lambda g: sum(r["v"] for r in g), True),
    "sum(u)": (lambda g: sum(r["u"] for r in g), True),
    "sum(v * 2)": (lambda g: sum(r["v"] * 2 for r in g), True),
    "min(v)": (lambda g: min(r["v"] for r in g), True),
    "max(w)": (lambda g: max(r["w"] for r in g), True),
    "min(s)": (lambda g: min(r["s"] for r in g), True),
    "max(v) - min(v)": (lambda g: max(r["v"] for r in g) - min(r["v"] for r in g), True),
    "sum(w)": (lambda g: math.fsum(r["w"] for r in g), False),
    "avg(v)": (lambda g: math.fsum(r["v"] for r in g) / len(g), False),
    "avg(w + v)": (lambda g: math.fsum(r["w"] + r["v"] for r in g) / len(g), False),
}
HAVINGS = {
    "count(*) > {h}": lambda g, h: len(g) > h,
    "sum(v) >= {h} * 20": lambda g, h: sum(r["v"] for r in g) >= h * 20,
    "not max(u) < {h} * 25": lambda g, h: not max(r["u"] for r in g) < h * 25,
}


@settings(max_examples=150, deadline=None)
@given(
    keys=st.lists(st.sampled_from(["k", "s", "f"]), max_size=2, unique=True),
    aggregates=st.lists(st.sampled_from(sorted(AGGREGATES)), min_size=1, max_size=3),
    cutoff=st.integers(-1, 52),
    having=st.none() | st.tuples(st.sampled_from(sorted(HAVINGS)), st.integers(0, 10)),
)
def test_random_aggregates_match_row_at_a_time(keys, aggregates, cutoff, having):
    sql = f"SELECT {', '.join(keys + aggregates)} FROM t WHERE v > {cutoff}"
    if keys:
        sql += f" GROUP BY {', '.join(keys)}"
        if having is not None:
            sql += " HAVING " + having[0].format(h=having[1])
    got = make_session().execute(sql).rows

    selected = [row for row in ROWS if row["v"] > cutoff]
    key_of = lambda row: tuple(_sort_key(row[k]) for k in keys)
    groups = [list(g) for _, g in itertools.groupby(sorted(selected, key=key_of), key_of)]
    if not keys:
        groups = [selected]  # one group, even when it is empty
    elif having is not None:
        groups = [g for g in groups if HAVINGS[having[0]](g, having[1])]
    assert len(got) == len(groups), sql
    for got_row, group in zip(got, groups):
        want_row = [group[0][k] for k in keys]
        exact = [True] * len(keys)
        for text in aggregates:
            evaluate, is_exact = AGGREGATES[text]
            empty = not group and not text.startswith("count")
            want_row.append(None if empty else evaluate(group))
            exact.append(is_exact)
        assert len(got_row) == len(want_row), sql
        for got_cell, want_cell, is_exact in zip(got_row, want_row, exact):
            assert _same(got_cell, want_cell, is_exact), (sql, got_row, want_row)


PLAIN_SHAPES = ["distinct", "order_by_unselected", "star_after_hash_join", "limit"]


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(PLAIN_SHAPES), cutoff=st.integers(-1, 52))
def test_random_plain_statements_match_row_at_a_time(shape, cutoff):
    session = make_session()
    selected = [row for row in ROWS if row["v"] > cutoff]
    if shape == "distinct":
        got = session.execute(f"SELECT DISTINCT k, s FROM t WHERE v > {cutoff}").rows
        want = list(dict.fromkeys((row["k"], row["s"]) for row in selected))
    elif shape == "order_by_unselected":
        got = session.execute(
            f"SELECT s, u FROM t WHERE v > {cutoff} ORDER BY w DESC"
        ).rows
        ranked = sorted(selected, key=lambda row: row["w"], reverse=True)
        want = [(row["s"], row["u"]) for row in ranked]
    elif shape == "limit":
        got = session.execute(f"SELECT s, w, 7 FROM t WHERE v > {cutoff} LIMIT 9").rows
        want = [(row["s"], row["w"], 7) for row in selected[:9]]
    else:
        result = session.execute(
            f"SELECT * FROM t JOIN d ON t.k = d.code WHERE t.v > {cutoff}"
        )
        assert result.columns == [f"t.{c}" for c in COLUMNS] + ["d.code", "d.label"]
        labels = list(zip(LABELS["code"], LABELS["label"]))
        got = sorted(row[:2] + row[3:] for row in result.rows)  # all but f: NaNs
        want = sorted(
            (row["k"], row["s"], row["v"], row["u"], row["w"], code, label)
            for row in selected
            for code, label in labels
            if code == row["k"]
        )
    assert got == want

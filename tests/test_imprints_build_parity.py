"""Differential tests: the imprint build equals its reference bit for bit.

The production build bins through a bucket table, folds cache lines in
place, skips the dictionary's run splitting when nothing can reach the
counter cap and caches its sample rows; :mod:`tests.imprint_reference`
does each step the plain way.  Every bin id, vector, dictionary entry,
border and zone must come out the same, for every column dtype and for
NaN, infinities, signed zeros, values on or next to a border and values
outside the border range.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.imprints import SegmentedImprints
from repro.core.imprints.bitvec import build_vectors
from repro.core.imprints.dictionary import compress
from repro.core.imprints.histogram import BinScheme, build_bins
from repro.core.imprints.segments import build_segment
from repro.engine.column import Column
from tests.imprint_reference import (
    bin_of_reference,
    build_segment_reference,
    build_vectors_reference,
    compress_reference,
)

DTYPES = [
    "float64", "float32", "int8", "uint8", "int16", "uint16", "int64", "uint64"
]
FLOAT_SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1e308, 1e308]


def same(a, b):
    """Equal dtype and bytes: NaN payloads and signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def scalar_element(dtype):
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        info = np.finfo(dtype)
        width = 8 * dtype.itemsize
        return st.one_of(
            st.floats(float(info.min), float(info.max), width=width),
            st.floats(-100, 100, width=width),
            st.sampled_from(FLOAT_SPECIALS),
        )
    info = np.iinfo(dtype)
    low = st.integers(int(info.min), int(info.max))
    if dtype == np.uint64:
        # Half of the draws above 2**63, where int64 would wrap.
        return st.one_of(low, st.integers(2**63, int(info.max)))
    near_zero = st.integers(max(int(info.min), -50), min(int(info.max), 50))
    return st.one_of(low, near_zero)


@st.composite
def small_columns(draw, min_size=1, max_size=300):
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    items = draw(
        st.lists(scalar_element(dtype), min_size=min_size, max_size=max_size)
    )
    with np.errstate(over="ignore"):
        return np.array(items, dtype=dtype)


def neighbours(borders):
    """Each border and the values one ulp (or one unit) either side."""
    if borders.shape[0] == 0:
        return borders
    if borders.dtype.kind == "f":
        with np.errstate(over="ignore"):
            up = np.nextafter(borders, borders.dtype.type(np.inf))
            down = np.nextafter(borders, borders.dtype.type(-np.inf))
        return np.concatenate([borders, up, down])
    info = np.iinfo(borders.dtype)
    wide = borders.astype(object)
    up = np.array([min(v + 1, int(info.max)) for v in wide], dtype=borders.dtype)
    down = np.array([max(v - 1, int(info.min)) for v in wide], dtype=borders.dtype)
    return np.concatenate([borders, up, down])


def extremes(dtype):
    """The dtype's limits; for floats also NaN and the infinities, which
    share the end buckets with finite values."""
    if dtype.kind == "f":
        info = np.finfo(dtype)
        return np.array([info.min, info.max, np.nan, np.inf, -np.inf], dtype=dtype)
    return np.array([np.iinfo(dtype).min, np.iinfo(dtype).max], dtype=dtype)


def assert_bin_of_matches(scheme, values):
    want = bin_of_reference(scheme, values)
    assert same(scheme.bin_of(values), want)


@settings(max_examples=300, deadline=None)
@given(
    values=small_columns(),
    max_bins=st.sampled_from([2, 4, 16, 64]),
    data=st.data(),
)
@example(values=np.array([0.0, 1.0, 2.0, 3.0]), max_bins=4, data=None)
@example(values=np.array([-1e308, 0.0, 1e308]), max_bins=4, data=None)
# A border span of one subnormal: the bucket scale overflows float64.
@example(values=np.array([0.0, 5e-324, 1e-323]), max_bins=4, data=None)
@example(values=np.array([-0.0, 0.0, 1.0, np.nan]), max_bins=4, data=None)
@example(values=np.array([-1.0, -0.0, 0.0, 1.0, 2.0]), max_bins=4, data=None)
# Nearly every value is a border: the whole column is searched.
@example(values=np.repeat([0.5, 1.5, 2.5, 3.5], 300), max_bins=4, data=None)
# NaN and +-inf in a column whose borders are finite.
@example(values=np.array([np.nan, 1.0, 2.0, np.inf, 3.0, -np.inf]), max_bins=4, data=None)
@example(values=np.array([-32768, 0, 5, 32767], dtype=np.int16), max_bins=4, data=None)
@example(
    values=np.array([2**63 + 1, 2**64 - 1, 2**63 + 5, 7], dtype=np.uint64),
    max_bins=4,
    data=None,
)
# Borders float64 cannot tell apart: a span of zero.
@example(values=np.arange(2**62, 2**62 + 4), max_bins=4, data=None)
def test_bin_of_matches_searchsorted(values, max_bins, data):
    """Built borders and drawn borders, probed with the column, every
    border, its neighbours and the dtype's extremes."""
    schemes = [build_bins(values, max_bins=max_bins)]
    uniques = np.unique(values)
    if data is not None and uniques.shape[0] > 1:
        positions = st.integers(0, uniques.shape[0] - 1)
        picked = data.draw(st.lists(positions, min_size=2, max_size=63, unique=True))
        schemes.append(BinScheme(borders=uniques[np.sort(picked)]))
    for scheme in schemes:
        probes = np.concatenate(
            [values, neighbours(scheme.borders), extremes(values.dtype)]
        )
        assert_bin_of_matches(scheme, probes)
        assert_bin_of_matches(scheme, values)


@settings(max_examples=150, deadline=None)
@given(values=small_columns(), vpc=st.sampled_from([1, 2, 3, 4, 8, 16, 64]))
def test_build_vectors_matches_reduce(values, vpc):
    scheme = build_bins(values)
    want = build_vectors_reference(values, scheme, vpc)
    assert same(build_vectors(values, scheme, vpc), want)


@st.composite
def run_sequences(draw):
    """Vector sequences made of runs, short and long, from a few values."""
    alphabet = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4))
    runs = draw(
        st.lists(
            st.tuples(st.sampled_from(alphabet), st.integers(1, 40)), max_size=40
        )
    )
    return np.array([v for v, length in runs for _ in range(length)], dtype=np.uint64)


@settings(max_examples=300, deadline=None)
@given(vectors=run_sequences(), max_counter=st.integers(1, 12))
@example(vectors=np.arange(30, dtype=np.uint64), max_counter=7)
@example(vectors=np.zeros(21, dtype=np.uint64), max_counter=7)
@example(vectors=np.zeros(7, dtype=np.uint64), max_counter=7)
def test_compress_matches_reference(vectors, max_counter):
    got = compress(vectors, max_counter=max_counter)
    want = compress_reference(vectors, max_counter=max_counter)
    assert same(got.counters, want.counters)
    assert same(got.repeats, want.repeats)
    assert same(got.vectors, want.vectors)
    assert got.n_lines == want.n_lines


def synthetic_column(dtype, n, shape, seed, specials):
    """``n`` values of ``dtype``: uniform, sorted, skewed, few distinct or
    constant, with ``specials`` (NaN, infinities, -0.0) scattered in."""
    dtype = np.dtype(dtype)
    rng = np.random.default_rng(seed)
    if shape == "constant":
        raw = np.full(n, 3.0)
    elif shape == "few":
        raw = rng.integers(0, 5, n).astype(np.float64)
    elif shape == "skewed":
        raw = rng.lognormal(2.0, 1.5, n)
    else:
        raw = rng.uniform(-1000.0, 1000.0, n)
        if shape == "sorted":
            raw.sort()
    if dtype.kind == "f":
        values = raw.astype(dtype)
        if specials:
            where = rng.integers(0, n, min(n, 3))
            with np.errstate(over="ignore"):  # +-1e308 is +-inf in float32
                pool = np.array(FLOAT_SPECIALS, dtype=dtype)
            values[where] = rng.choice(pool, where.shape[0])
        return values
    info = np.iinfo(dtype)
    if dtype == np.uint64:
        # ``specials`` lifts the column above 2**63, where int64 wraps.
        shift = np.uint64(2**63 if specials else 0)
        return np.abs(raw).astype(np.uint64) + shift
    return np.clip(np.round(raw), int(info.min), int(info.max)).astype(dtype)


def assert_segments_equal(got, want):
    assert (got.start, got.stop) == (want.start, want.stop)
    assert same(got.zmin, want.zmin) and same(got.zmax, want.zmax)
    assert same(got.scheme.borders, want.scheme.borders)
    assert same(got.cdict.counters, want.cdict.counters)
    assert same(got.cdict.repeats, want.cdict.repeats)
    assert same(got.cdict.vectors, want.cdict.vectors)
    assert got.cdict.n_lines == want.cdict.n_lines
    assert same(got.coverage, want.coverage)


column_shapes = st.sampled_from(["uniform", "sorted", "skewed", "few", "constant"])


@settings(max_examples=40, deadline=None)
@given(
    dtype=st.sampled_from(DTYPES),
    n=st.one_of(st.integers(1, 3000), st.integers(60_000, 70_000)),
    shape=column_shapes,
    seed=st.integers(0, 2**32 - 1),
    specials=st.booleans(),
    with_zone=st.booleans(),
)
def test_build_segment_matches_reference(dtype, n, shape, seed, specials, with_zone):
    values = synthetic_column(dtype, n, shape, seed, specials)
    vpc = max(1, 64 // values.dtype.itemsize)
    zone = (values.min(), values.max()) if with_zone else None
    got = build_segment(values, 0, n, vpc, zone=zone)
    assert_segments_equal(got, build_segment_reference(values, 0, n, vpc, zone=zone))


@settings(max_examples=12, deadline=None)
@given(
    dtype=st.sampled_from(DTYPES),
    n_segments=st.integers(2, 5),
    segment_rows=st.sampled_from([4096, 65536]),
    tail=st.integers(0, 5000),
    shape=column_shapes,
    seed=st.integers(0, 2**32 - 1),
    specials=st.booleans(),
)
@example("float64", 4, 65536, 0, "skewed", 1, False)
@example("uint16", 4, 65536, 0, "skewed", 1, False)
@example("float32", 3, 65536, 9, "uniform", 2, True)
def test_multi_segment_column_matches_reference(
    dtype, n_segments, segment_rows, tail, shape, seed, specials
):
    n = (n_segments - 1) * segment_rows + tail + 1
    values = synthetic_column(dtype, n, shape, seed, specials)
    index = SegmentedImprints(
        Column("v", values.dtype, data=values), segment_rows=segment_rows
    )
    assert index.n_segments == -(-n // index.segment_rows)
    for segment in index.segments:
        want = build_segment_reference(values, segment.start, segment.stop, index.vpc)
        assert_segments_equal(segment, want)

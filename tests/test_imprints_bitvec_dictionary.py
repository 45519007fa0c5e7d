"""Unit and property tests for imprint bit vectors and the cacheline dict."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.imprints.bitvec import (
    build_vectors,
    match_vectors,
    values_per_cacheline,
)
from repro.core.imprints.dictionary import (
    CachelineDict,
    compress,
    decompress,
)
from repro.core.imprints.histogram import BinScheme, build_bins


class TestValuesPerCacheline:
    def test_doubles(self):
        assert values_per_cacheline(8) == 8

    def test_uint16(self):
        assert values_per_cacheline(2) == 32

    def test_wider_than_line(self):
        assert values_per_cacheline(128) == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            values_per_cacheline(0)


class TestBuildVectors:
    def setup_method(self):
        self.scheme = BinScheme(borders=np.array([10.0, 20.0, 30.0]))

    def test_one_full_line(self):
        vals = np.array([5.0, 15.0, 25.0, 35.0])
        vecs = build_vectors(vals, self.scheme, vpc=4)
        assert vecs.shape == (1,)
        assert vecs[0] == 0b1111

    def test_multiple_lines(self):
        vals = np.array([5.0, 5.0, 25.0, 25.0])
        vecs = build_vectors(vals, self.scheme, vpc=2)
        assert vecs.tolist() == [0b0001, 0b0100]

    def test_partial_last_line_pads_harmlessly(self):
        vals = np.array([5.0, 5.0, 35.0])
        vecs = build_vectors(vals, self.scheme, vpc=2)
        # Padding repeats 35.0 -> only bit 3, no spurious bits.
        assert vecs.tolist() == [0b0001, 0b1000]

    def test_empty(self):
        assert build_vectors(np.empty(0), self.scheme, vpc=8).shape == (0,)

    def test_bad_vpc(self):
        with pytest.raises(ValueError):
            build_vectors(np.array([1.0]), self.scheme, vpc=0)

    def test_bit63_usable(self):
        # 64-bin scheme: the top bin must use bit 63 without overflow.
        borders = np.arange(1, 64, dtype=np.float64)
        scheme = BinScheme(borders=borders)
        assert scheme.n_bins == 64
        vecs = build_vectors(np.array([100.0]), scheme, vpc=1)
        assert vecs[0] == np.uint64(1) << np.uint64(63)


class TestMatchAndPopcount:
    def test_match(self):
        vecs = np.array([0b0011, 0b1100, 0b0000], dtype=np.uint64)
        np.testing.assert_array_equal(
            match_vectors(vecs, 0b0100), [False, True, False]
        )


class TestCachelineDict:
    def test_empty(self):
        cd = compress(np.empty(0, dtype=np.uint64))
        assert cd.n_entries == 0
        assert decompress(cd).shape == (0,)

    def test_all_distinct(self):
        vecs = np.array([1, 2, 3, 4], dtype=np.uint64)
        cd = compress(vecs)
        assert cd.n_entries == 1
        assert not cd.repeats[0]
        assert cd.counters[0] == 4
        np.testing.assert_array_equal(decompress(cd), vecs)

    def test_all_same(self):
        vecs = np.full(1000, 7, dtype=np.uint64)
        cd = compress(vecs)
        assert cd.n_entries == 1
        assert cd.repeats[0]
        assert cd.counters[0] == 1000
        assert cd.vectors.shape == (1,)
        np.testing.assert_array_equal(decompress(cd), vecs)

    def test_mixed_runs(self):
        vecs = np.array([1, 1, 1, 2, 3, 4, 4], dtype=np.uint64)
        cd = compress(vecs)
        # run(1x3) -> repeat, singles(2,3) -> non-repeat, run(4x2) -> repeat
        assert cd.repeats.tolist() == [True, False, True]
        assert cd.counters.tolist() == [3, 2, 2]
        np.testing.assert_array_equal(decompress(cd), vecs)

    def test_counter_cap_splits_runs(self):
        vecs = np.full(10, 5, dtype=np.uint64)
        cd = compress(vecs, max_counter=4)
        np.testing.assert_array_equal(decompress(cd), vecs)
        assert cd.counters.max() <= 4

    def test_counter_cap_on_singles(self):
        vecs = np.arange(10, dtype=np.uint64)
        cd = compress(vecs, max_counter=3)
        np.testing.assert_array_equal(decompress(cd), vecs)
        assert cd.counters.max() <= 3

    def test_bad_max_counter(self):
        with pytest.raises(ValueError):
            compress(np.array([1], dtype=np.uint64), max_counter=0)

    def test_compression_ratio_repetitive(self):
        vecs = np.full(10_000, 9, dtype=np.uint64)
        assert compress(vecs).nbytes * 1000 < vecs.nbytes

    def test_nbytes_accounting(self):
        vecs = np.array([1, 1, 2], dtype=np.uint64)
        cd = compress(vecs)
        assert cd.nbytes == 4 * cd.n_entries + 8 * cd.vectors.shape[0]

    def test_coverage_sums_to_lines(self):
        vecs = np.array([1, 1, 2, 3, 3, 3, 4], dtype=np.uint64)
        cd = compress(vecs)
        assert int(cd.coverage().sum()) == 7


@settings(max_examples=80, deadline=None)
@given(
    vec_ids=st.lists(st.integers(0, 5), min_size=0, max_size=300),
    max_counter=st.sampled_from([1, 2, 3, 7, 1 << 24]),
)
def test_dictionary_round_trip(vec_ids, max_counter):
    """compress/decompress is the identity for any vector sequence."""
    vecs = np.array(vec_ids, dtype=np.uint64)
    cd = compress(vecs, max_counter=max_counter)
    np.testing.assert_array_equal(decompress(cd), vecs)
    assert cd.n_lines == vecs.shape[0]
    if cd.n_entries:
        assert cd.counters.max() <= max_counter
        assert cd.counters.min() >= 1


def compress_by_loop(vectors, max_counter):
    """The per-run loop ``compress`` replaced, kept as its reference:
    ``(counters, repeats, stored vectors)`` as Python lists."""
    counters, repeats, stored, pending = [], [], [], []

    def flush_singles():
        while pending:
            chunk = pending[:max_counter]
            del pending[: len(chunk)]
            counters.append(len(chunk))
            repeats.append(False)
            stored.extend(chunk)

    runs = []  # [vector, length]
    for vec in vectors:
        if runs and runs[-1][0] == vec:
            runs[-1][1] += 1
        else:
            runs.append([vec, 1])
    for vec, length in runs:
        if length == 1:
            pending.append(vec)
            continue
        flush_singles()
        while length > 0:
            take = min(length, max_counter)
            if take == 1:  # the line left over after counter-capped splits
                pending.append(vec)
            else:
                counters.append(take)
                repeats.append(True)
                stored.append(vec)
            length -= take
    flush_singles()
    return counters, repeats, stored


@settings(max_examples=150, deadline=None)
@given(
    # Few distinct ids make long runs; small caps force splits and
    # leftover singles that must join the singles around them.
    vec_ids=st.lists(st.integers(0, 2), min_size=0, max_size=120),
    max_counter=st.sampled_from([1, 2, 3, 4, 7, 1 << 24]),
)
def test_compress_equals_the_loop_it_replaced(vec_ids, max_counter):
    """Same entries and the same stored vectors, dtype for dtype — the
    persisted ``.imprint`` bytes must not move."""
    cd = compress(np.array(vec_ids, dtype=np.uint64), max_counter=max_counter)
    counters, repeats, stored = compress_by_loop(vec_ids, max_counter)
    assert (cd.counters.dtype, cd.repeats.dtype, cd.vectors.dtype) == (
        np.int64,
        np.bool_,
        np.uint64,
    )
    assert cd.counters.tolist() == counters
    assert cd.repeats.tolist() == repeats
    assert cd.vectors.tolist() == stored


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(-1000, 1000), min_size=1, max_size=300),
    vpc=st.sampled_from([1, 2, 8, 32]),
)
def test_vectors_cover_their_lines(values, vpc):
    """Each value's bin bit must be set in its cacheline's vector."""
    arr = np.array(values, dtype=np.float64)
    scheme = build_bins(arr)
    vecs = build_vectors(arr, scheme, vpc)
    bins = scheme.bin_of(arr)
    for i, b in enumerate(bins):
        assert (int(vecs[i // vpc]) >> int(b)) & 1

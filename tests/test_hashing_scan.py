"""Tests for the vectorised window scans, prefix hasher, and hash index."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import DecomposableAdler, HashIndex, PrefixHasher, window_hashes
from repro.hashing.scan import (
    pack_to_width,
    prefix_sums,
    stable_sort_uint32,
    window_hashes_from_sums,
)

HASHER = DecomposableAdler(seed=5)


class TestWindowHashes:
    def test_empty_for_short_data(self):
        assert window_hashes(b"ab", 5, HASHER).size == 0

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            window_hashes(b"abc", 0, HASHER)

    def test_count(self):
        assert window_hashes(b"abcdef", 3, HASHER).size == 4

    @given(st.binary(min_size=1, max_size=400), st.integers(1, 48))
    @settings(max_examples=60)
    def test_matches_direct_hash(self, data, length):
        hashes = window_hashes(data, length, HASHER)
        expected_count = max(0, len(data) - length + 1)
        assert hashes.size == expected_count
        for i in range(0, expected_count, max(1, expected_count // 7)):
            pair = HASHER.hash_block(data[i : i + length])
            assert int(hashes[i]) == pair.a | (pair.b << 16)

    def test_uint32_wraparound_consistency(self):
        """A 2 MiB input wraps both prefix sums past ``2**32``; every
        32-bit kernel must still agree with the direct hash."""
        data = random.Random(9).randbytes(2 << 20)
        raw = np.frombuffer(data, dtype=np.uint8)
        mapped = np.asarray(HASHER.table, dtype=np.uint64)[raw]
        assert int(mapped.sum()) >= 1 << 32
        assert int((mapped * np.arange(raw.size, dtype=np.uint64)).sum()) >= (
            1 << 32
        )
        for hasher in (HASHER, DecomposableAdler.identity()):
            sums = prefix_sums(data, hasher)
            assert sums.prefix.dtype == sums.nested.dtype == np.uint32
            prefix = PrefixHasher(data, hasher, sums=sums)
            starts, lengths = [], []
            for length in (1, 16, 2048):
                hashes = window_hashes_from_sums(sums, length)
                last = len(data) - length
                for start in (0, last // 2, last):
                    pair = hasher.hash_block(data[start : start + length])
                    assert int(hashes[start]) == pair.a | (pair.b << 16)
                    assert prefix.block_pair(start, length) == pair
                    starts.append(start)
                    lengths.append(length)
            batched = prefix.block_pairs(starts, lengths)
            for at, (start, length) in enumerate(zip(starts, lengths)):
                pair = hasher.hash_block(data[start : start + length])
                assert int(batched[at]) == pair.a | (pair.b << 16)


class TestStableSortUint32:
    @given(
        st.lists(st.integers(0, 7), max_size=300),
        st.integers(0, (1 << 32) - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_stable_argsort_at_every_width(self, small, spread):
        # Heavy duplication: a handful of distinct full hashes.
        full = (np.asarray(small, dtype=np.uint64) * spread).astype(np.uint32)
        for width in range(1, 33):
            values = pack_to_width(full, width)
            order, ordered = stable_sort_uint32(values)
            expected = np.argsort(values, kind="stable")
            assert order.dtype == ordered.dtype == np.uint32
            assert np.array_equal(order, expected)
            assert np.array_equal(ordered, values[expected])

    def test_extreme_values(self):
        values = np.array(
            [0xFFFFFFFF, 0, 0xFFFFFFFF, 1, 0, 0x80000000], dtype=np.uint32
        )
        order, ordered = stable_sort_uint32(values)
        assert order.tolist() == [1, 4, 3, 5, 0, 2]
        assert ordered.tolist() == [0, 0, 1, 0x80000000, 0xFFFFFFFF, 0xFFFFFFFF]

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int32, np.uint16])
    def test_refuses_non_uint32(self, dtype):
        with pytest.raises(TypeError):
            stable_sort_uint32(np.arange(4, dtype=dtype))

    def test_refuses_2_to_the_32_positions(self):
        # A zero-stride view: 2**32 elements without the memory.
        values = np.broadcast_to(np.uint32(0), (1 << 32,))
        with pytest.raises(ValueError):
            stable_sort_uint32(values)


class TestPackToWidth:
    @given(st.binary(min_size=16, max_size=64), st.integers(1, 32))
    @settings(max_examples=40)
    def test_matches_scalar_pack(self, data, width):
        hashes = window_hashes(data, 8, HASHER)
        packed = pack_to_width(hashes, width)
        for i in range(hashes.size):
            assert int(packed[i]) == DecomposableAdler.truncate(
                int(hashes[i]), 32, width
            )


class TestPrefixHasher:
    def test_matches_hash_block(self):
        rng = random.Random(2)
        data = bytes(rng.randrange(256) for _ in range(5000))
        prefix = PrefixHasher(data, HASHER)
        for start, length in ((0, 1), (17, 100), (4000, 1000), (4999, 1)):
            assert prefix.block_pair(start, length) == HASHER.hash_block(
                data[start : start + length]
            )

    def test_bounds_checked(self):
        prefix = PrefixHasher(b"abcdef", HASHER)
        with pytest.raises(ValueError):
            prefix.block_pair(4, 10)
        with pytest.raises(ValueError):
            prefix.block_pair(-1, 2)
        with pytest.raises(ValueError):
            prefix.block_pair(0, 0)

    def test_packed_matches_pack(self):
        data = b"some longer test data for the prefix hasher"
        prefix = PrefixHasher(data, HASHER)
        assert prefix.packed(5, 10, 13) == DecomposableAdler.pack(
            HASHER.hash_block(data[5:15]), 13
        )


class TestHashIndex:
    def test_lookup_finds_planted_window(self):
        rng = random.Random(4)
        data = bytes(rng.randrange(256) for _ in range(4000))
        index = HashIndex(data, 32, HASHER)
        value = index.packed_hash_at(1234, 20)
        assert 1234 in index.lookup(value, 20)

    def test_lookup_respects_cap(self):
        data = b"\x00" * 1000  # every window identical
        index = HashIndex(data, 16, HASHER)
        value = index.packed_hash_at(0, 12)
        assert len(index.lookup(value, 12, max_results=5)) == 5

    def test_lookup_on_empty_index(self):
        index = HashIndex(b"ab", 16, HASHER)
        assert index.lookup(0, 12) == []
        assert index.position_count == 0

    def test_lookup_in_range(self):
        data = b"prefix " + b"NEEDLEBLOCKDATA!" + b" middle " + b"NEEDLEBLOCKDATA!" + b" end"
        index = HashIndex(data, 16, HASHER)
        first = data.index(b"NEEDLEBLOCKDATA!")
        second = data.index(b"NEEDLEBLOCKDATA!", first + 1)
        value = index.packed_hash_at(first, 16)
        everywhere = index.lookup(value, 16)
        assert first in everywhere and second in everywhere
        only_second = index.lookup_in_range(value, 16, second - 3, second + 3)
        assert only_second == [second]

    def test_lookup_in_range_clamps_bounds(self):
        data = bytes(range(256)) * 4
        index = HashIndex(data, 8, HASHER)
        value = index.packed_hash_at(0, 10)
        assert 0 in index.lookup_in_range(value, 10, -100, 10_000)

    def test_full_hash_at(self):
        data = b"window hashing test data"
        index = HashIndex(data, 8, HASHER)
        pair = HASHER.hash_block(data[3:11])
        assert index.full_hash_at(3) == pair.a | (pair.b << 16)

    def test_distinct_widths_cached_independently(self):
        data = bytes(range(200))
        index = HashIndex(data, 16, HASHER)
        v8 = index.packed_hash_at(10, 8)
        v24 = index.packed_hash_at(10, 24)
        assert 10 in index.lookup(v8, 8)
        assert 10 in index.lookup(v24, 24)


class TestLookupTypesAndEquivalence:
    """lookup/lookup_in_range return plain ints, and the width-index
    shortcut in lookup_in_range is equivalent to the packed-slice scan."""

    def test_lookup_returns_python_ints(self):
        data = bytes(range(256)) * 4
        index = HashIndex(data, 16, HASHER)
        value = index.packed_hash_at(40, 14)
        positions = index.lookup(value, 14)
        assert positions and all(type(p) is int for p in positions)

    def test_lookup_in_range_returns_python_ints(self):
        data = bytes(range(256)) * 4
        index = HashIndex(data, 16, HASHER)
        value = index.packed_hash_at(40, 14)
        # No width index built for width 15 yet: slice-scan branch.
        fresh = HashIndex(data, 16, HASHER)
        positions = fresh.lookup_in_range(value, 14, 0, 10_000)
        assert all(type(p) is int for p in positions)

    @given(st.integers(0, 6))
    @settings(max_examples=20, deadline=None)
    def test_range_lookup_same_with_and_without_width_index(self, seed):
        rng = random.Random(seed)
        data = bytes(rng.randrange(8) for _ in range(1500))  # many collisions
        width = 10
        queries = []
        probe = HashIndex(data, 12, HASHER)
        for _ in range(12):
            position = rng.randrange(probe.position_count)
            lo = rng.randrange(probe.position_count)
            hi = lo + rng.randrange(1, 400)
            queries.append((probe.packed_hash_at(position, width), lo, hi))

        cold = HashIndex(data, 12, HASHER)  # never builds a width index
        warm = HashIndex(data, 12, HASHER)
        warm.lookup(queries[0][0], width)  # force the width index to exist
        assert width in warm._by_width and width not in cold._by_width
        for value, lo, hi in queries:
            assert warm.lookup_in_range(value, width, lo, hi) == (
                cold.lookup_in_range(value, width, lo, hi)
            )

    def test_range_lookup_cap_applies_on_both_branches(self):
        data = b"\x00" * 1200  # every window identical
        width = 10
        cold = HashIndex(data, 16, HASHER)
        warm = HashIndex(data, 16, HASHER)
        value = warm.packed_hash_at(0, width)
        warm.lookup(value, width)
        for index in (cold, warm):
            positions = index.lookup_in_range(
                value, width, 100, 900, max_results=5
            )
            assert positions == list(range(100, 105))


def _scalar_first(index: HashIndex, values, width: int) -> list[int]:
    out = []
    for value in values:
        positions = index.lookup(int(value), width)
        out.append(positions[0] if positions else -1)
    return out


class TestLookupManyParity:
    """``lookup_many(values, w)`` is ``lookup(v, w)[0]`` (or ``-1``) per
    value, whatever the batch, width or data."""

    @given(
        seed=st.integers(0, 1 << 16),
        width=st.integers(1, 32),
        batch=st.sampled_from([1, 128, 129, 5000]),
        alphabet=st.sampled_from([2, 4, 256]),
        warm=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_lookup(self, seed, width, batch, alphabet, warm):
        rng = np.random.default_rng(seed)
        # Small alphabets make repetitive data: many windows share a hash.
        data = rng.integers(0, alphabet, 3000, dtype=np.uint8).tobytes()
        index = HashIndex(data, 12, HASHER)
        packed = pack_to_width(window_hashes(data, 12, HASHER), width)
        present = packed[rng.integers(0, packed.size, batch)]
        random_values = rng.integers(0, 1 << width, batch, dtype=np.uint64)
        # Mix present values (duplicates likely) with arbitrary, mostly
        # absent ones.
        values = np.where(rng.random(batch) < 0.5, present, random_values)
        if warm:
            index.lookup(int(values[0]), width)  # width index now exists
            assert width in index._by_width
        first = index.lookup_many(values, width)
        assert first.dtype == np.int64
        assert first.tolist() == _scalar_first(index, values, width)

    def test_every_width_with_duplicate_and_absent_queries(self):
        data = b"abcabcabd" * 300
        index = HashIndex(data, 9, HASHER)
        absent_data = HashIndex(bytes(range(256)) * 2, 9, HASHER)
        for width in range(1, 33):
            values = [index.packed_hash_at(p, width) for p in (5, 0, 5, 7, 0)]
            values += [absent_data.packed_hash_at(p, width) for p in (3, 90)]
            first = index.lookup_many(np.asarray(values, dtype=np.uint64), width)
            assert first.tolist() == _scalar_first(index, values, width)

    def test_empty_index_and_empty_batch(self):
        assert HashIndex(b"ab", 16, HASHER).lookup_many([1, 2], 20).tolist() == [
            -1,
            -1,
        ]
        index = HashIndex(bytes(range(200)), 16, HASHER)
        assert index.lookup_many(np.empty(0, dtype=np.uint64), 20).size == 0

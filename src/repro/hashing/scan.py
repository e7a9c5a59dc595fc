"""Vectorised window-hash scans and the candidate position index.

The client must compare each received block hash against *every* window of
its own file.  Doing that with a per-byte Python rolling loop would make
the benchmarks CPU-bound and meaningless, so this module computes the
decomposable-Adler hash of all windows at once with numpy prefix sums:

* ``a``-component of window ``[i, i+L)`` is ``S[i+L] - S[i]``, a
  difference of prefix sums ``S`` of the substituted bytes;
* ``b``-component is ``(Q[i+L] - Q[i]) - L * S[i]`` where ``Q`` is the
  prefix sum of ``S`` itself: byte ``j`` of the window is counted once
  in every ``S[k] - S[i]`` with ``j < k <= i+L``, i.e. ``i + L - j``
  times, exactly its weight in the rolling ``b``.

All arithmetic uses uint32 wraparound, which is exact modulo ``2**32`` and
therefore exact modulo ``2**16`` after masking — the hash keeps only the
low 16 bits of each component, so 32-bit lanes lose nothing and halve
the memory traffic of every pass.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.hashing.decomposable import DecomposableAdler, component_widths

_MASK16 = np.uint32(0xFFFF)
_SHIFT16 = np.uint32(16)
_SHIFT32 = np.uint64(32)
#: Positions per pass of the chunked full-array scans.
_CHUNK = 1 << 16


class PrefixSums(NamedTuple):
    """The two prefix-sum arrays behind every window-hash computation.

    ``prefix[i]`` is the sum of the substituted bytes ``T[data[0..i)]`` and
    ``nested[i]`` the sum ``prefix[1] + ... + prefix[i]``, both uint32
    arrays of length ``len(data) + 1`` holding the sums modulo ``2**32``
    (4 bytes per position each).  :func:`window_hashes` and
    :class:`PrefixHasher` used to each compute their own copies; building
    them once here lets callers (and the hash-index cache) share one pair
    of buffers across every window length and every sync of the same data.
    """

    prefix: np.ndarray
    nested: np.ndarray

    @property
    def data_length(self) -> int:
        return len(self.prefix) - 1

    @property
    def nbytes(self) -> int:
        """Memory footprint of both buffers (cache budgeting)."""
        return int(self.prefix.nbytes + self.nested.nbytes)


def prefix_sums(data: bytes, hasher: DecomposableAdler) -> PrefixSums:
    """Compute the shared prefix-sum pair for ``data`` under ``hasher``."""
    n = len(data)
    raw = np.frombuffer(data, dtype=np.uint8)
    # Only the low 16 bits of a table entry reach the hash.
    table = np.array([entry & 0xFFFF for entry in hasher.table], np.uint32)
    prefix = np.zeros(n + 1, dtype=np.uint32)
    np.cumsum(table[raw], dtype=np.uint32, out=prefix[1:])
    return PrefixSums(prefix, np.cumsum(prefix, dtype=np.uint32))


def window_hashes_from_sums(sums: PrefixSums, length: int) -> np.ndarray:
    """Packed 32-bit hashes of every window, from precomputed prefix sums."""
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    n = sums.data_length
    if n < length:
        return np.empty(0, dtype=np.uint32)
    prefix, nested = sums.prefix, sums.nested
    count = n - length + 1
    minus_length = np.uint32(-length & 0xFFFFFFFF)
    out = np.empty(count, dtype=np.uint32)
    # In place, modulo 2**32, one cache-sized chunk at a time: ``a`` holds
    # the window sums and ``b`` becomes ``Q[i+L] - Q[i] - L * S[i]``; the
    # final shift drops every bit above the low 16 of ``b``.
    for lo in range(0, count, _CHUNK):
        hi = min(lo + _CHUNK, count)
        a = out[lo:hi]
        np.subtract(prefix[lo + length : hi + length], prefix[lo:hi], out=a)
        b = np.multiply(prefix[lo:hi], minus_length)
        b += nested[lo + length : hi + length]
        b -= nested[lo:hi]
        b <<= _SHIFT16
        a &= _MASK16
        a |= b
    return out


def window_hashes(
    data: bytes, length: int, hasher: DecomposableAdler
) -> np.ndarray:
    """Packed 32-bit hashes ``a | (b << 16)`` of every window of ``length``.

    Returns an array of ``len(data) - length + 1`` uint32 values (empty if
    the file is shorter than one window).
    """
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    if len(data) < length:
        return np.empty(0, dtype=np.uint32)
    return window_hashes_from_sums(prefix_sums(data, hasher), length)


def stable_sort_uint32(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, values[order])`` for a stable ascending sort of ``values``.

    Identical to a stable ``np.argsort`` plus a gather, but each value is
    packed with its position into one uint64 key ``(value << 32) |
    position``: the keys are unique, so a plain (unstable, SIMD)
    ``ndarray.sort`` already yields the stable order, and both outputs
    are split back out of the sorted keys — one sort of contiguous keys
    instead of an indirect sort plus a gather.  ``order`` is uint32.
    Only uint32 values and fewer than ``2**32`` positions fit the key.
    """
    if values.dtype != np.uint32:
        raise TypeError(f"values must be uint32, got {values.dtype}")
    count = int(values.size)
    if count >= 1 << 32:
        raise ValueError(f"cannot sort {count} positions (limit is 2**32 - 1)")
    keys = values.astype(np.uint64).ravel()
    keys <<= _SHIFT32
    keys |= np.arange(count, dtype=np.uint64)
    keys.sort()
    order = keys.astype(np.uint32)
    keys >>= _SHIFT32
    return order, keys.astype(np.uint32)


def sorted_range_pair(
    sorted_values: np.ndarray, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``[lo, hi)`` range of every query in ``sorted_values``, batch-resolved.

    One vectorised ``searchsorted`` pair answers all queries at once —
    this is what turns a per-position Python lookup loop into a single
    numpy pass.  The queries are sorted first so the binary searches
    walk ``sorted_values`` monotonically (cache-friendly; ~2x faster
    than querying in file order on large scans) and the results are
    scattered back to the original query order, so the output is
    byte-identical to querying one position at a time.  ``queries`` must
    be uint32 (see :func:`stable_sort_uint32`).
    """
    if queries.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    order, ordered = stable_sort_uint32(queries)
    lo = np.searchsorted(sorted_values, ordered, side="left")
    hi = np.searchsorted(sorted_values, ordered, side="right")
    out_lo = np.empty_like(lo)
    out_hi = np.empty_like(hi)
    out_lo[order] = lo
    out_hi[order] = hi
    return out_lo, out_hi


def next_occupied_table(occupied: np.ndarray) -> np.ndarray:
    """Jump table: ``table[i]`` is the smallest ``j >= i`` with
    ``occupied[j]``, or ``len(occupied)`` when no such ``j`` exists.

    A reversed ``minimum.accumulate`` over position markers builds the
    whole table in one vectorised pass; the greedy matching loops use it
    to hop over candidate-free stretches in O(1) per hop instead of
    re-running a binary search (or a per-byte scan) at every position.
    """
    size = int(occupied.size)
    markers = np.where(occupied, np.arange(size, dtype=np.int64), size)
    if size:
        markers = np.minimum.accumulate(markers[::-1])[::-1]
    return markers


def pack_to_width(full: np.ndarray, width: int) -> np.ndarray:
    """Vectorised :meth:`DecomposableAdler.pack` over packed 32-bit hashes."""
    a_bits, b_bits = component_widths(width)
    a = full & np.uint32((1 << a_bits) - 1)
    if b_bits:
        b = (full >> np.uint32(16)) & np.uint32((1 << b_bits) - 1)
        return a | (b << np.uint32(a_bits))
    return a


def pack_to_widths(full: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """:func:`pack_to_width` with a *per-element* width array.

    Mixed sub-phase plans (global + local hashes in one message) pack
    each block's hash at its own width; per-element shift/mask arrays
    keep that a single numpy pass instead of a per-block branch.
    """
    widths = np.asarray(widths, dtype=np.uint32)
    a_bits = (widths + np.uint32(1)) >> np.uint32(1)
    b_bits = widths - a_bits
    a = full & ((np.uint32(1) << a_bits) - np.uint32(1))
    b = (full >> np.uint32(16)) & ((np.uint32(1) << b_bits) - np.uint32(1))
    return a | (b << a_bits)


class PrefixHasher:
    """O(1) decomposable-hash evaluation of arbitrary file regions.

    Precomputes the two prefix-sum arrays once; ``block_pair`` then
    evaluates the hash of any ``[start, start + length)`` region in
    constant time.  The server uses this to hash every block it transmits
    without re-reading block bytes; the client uses it to check
    continuation hashes at expected positions.
    """

    def __init__(
        self,
        data: bytes,
        hasher: DecomposableAdler,
        sums: PrefixSums | None = None,
    ) -> None:
        self._length = len(data)
        if sums is None:
            sums = prefix_sums(data, hasher)
        elif sums.data_length != len(data):
            raise ValueError(
                f"prefix sums cover {sums.data_length} bytes, data has "
                f"{len(data)}"
            )
        self._prefix = sums.prefix
        self._nested = sums.nested

    @property
    def data_length(self) -> int:
        return self._length

    def block_pair(self, start: int, length: int):
        """The ``(a, b)`` hash pair of ``data[start : start + length]``.

        Python ints over the modulo-``2**32`` sums: a negative difference
        still masks to the right low 16 bits.
        """
        from repro.hashing.decomposable import HashPair

        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        if start < 0 or start + length > self._length:
            raise ValueError(
                f"region [{start}, {start + length}) outside data of "
                f"length {self._length}"
            )
        end = start + length
        head = int(self._prefix[start])
        window_sum = int(self._prefix[end]) - head
        b = int(self._nested[end]) - int(self._nested[start]) - length * head
        return HashPair(window_sum & 0xFFFF, b & 0xFFFF)

    def packed(self, start: int, length: int, width: int) -> int:
        """Packed ``width``-bit hash of the region."""
        return DecomposableAdler.pack(self.block_pair(start, length), width)

    def block_pairs(self, starts, lengths) -> np.ndarray:
        """Packed 32-bit hashes ``a | (b << 16)`` of many regions at once.

        The batched counterpart of :meth:`block_pair`: one numpy pass
        evaluates every ``[start, start + length)`` region, which is what
        lets the protocol engines build a whole round's MAP message (and
        probe every expected candidate position) without a per-block
        loop.  Widths are applied separately via :func:`pack_to_width` /
        :func:`pack_to_widths`.
        """
        starts = np.asarray(starts, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if starts.size == 0:
            return np.empty(0, dtype=np.uint32)
        ends = starts + lengths
        if (
            bool((lengths <= 0).any())
            or bool((starts < 0).any())
            or bool((ends > self._length).any())
        ):
            raise ValueError(
                f"regions outside data of length {self._length} "
                "(or non-positive lengths)"
            )
        # Same modulo-2**32 arithmetic as window_hashes_from_sums.
        head = self._prefix[starts]
        out = self._prefix[ends] - head
        b = self._nested[ends] - self._nested[starts]
        head *= lengths.astype(np.uint32)
        b -= head
        b <<= _SHIFT16
        out &= _MASK16
        out |= b
        return out


class _WidthIndex:
    """Sorted lookup structure for one truncated hash width."""

    def __init__(self, full_hashes: np.ndarray, width: int) -> None:
        self._order, self._sorted = stable_sort_uint32(
            pack_to_width(full_hashes, width)
        )

    def lookup(self, value: int, max_results: int) -> list[int]:
        """Window start positions whose truncated hash equals ``value``.

        Positions come back ascending: the stable sort keeps equal
        hashes in original (positional) order.
        """
        lo = int(np.searchsorted(self._sorted, value, side="left"))
        hi = int(np.searchsorted(self._sorted, value, side="right"))
        if hi - lo > max_results:
            hi = lo + max_results
        # tolist() converts the whole slice to Python ints in C, instead
        # of boxing one numpy scalar per element.
        return self._order[lo:hi].tolist()


class HashIndex:
    """All-position hash index of one file for a fixed window length.

    Built once per protocol round; answers "which positions of my file have
    this truncated hash?" queries in ``O(log n + k)``.
    """

    def __init__(
        self,
        data: bytes,
        length: int,
        hasher: DecomposableAdler,
        full: np.ndarray | None = None,
    ) -> None:
        self._data = data
        self._length = length
        self._hasher = hasher
        if full is None:
            full = window_hashes(data, length, hasher)
        self._full = full
        self._by_width: dict[int, _WidthIndex] = {}

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint of the hash arrays (cache budgeting)."""
        total = int(self._full.nbytes)
        for index in self._by_width.values():
            total += int(index._order.nbytes + index._sorted.nbytes)
        return total

    @property
    def length(self) -> int:
        """Window length this index covers."""
        return self._length

    @property
    def position_count(self) -> int:
        """Number of indexed window positions."""
        return int(self._full.size)

    def full_hash_at(self, position: int) -> int:
        """Packed 32-bit hash of the window starting at ``position``."""
        return int(self._full[position])

    def packed_hash_at(self, position: int, width: int) -> int:
        """Truncated ``width``-bit hash of the window at ``position``."""
        return DecomposableAdler.truncate(int(self._full[position]), 32, width)

    def lookup(self, value: int, width: int, max_results: int = 8) -> list[int]:
        """Positions whose ``width``-bit truncated hash equals ``value``."""
        if self._full.size == 0:
            return []
        index = self._by_width.get(width)
        if index is None:
            index = _WidthIndex(self._full, width)
            self._by_width[width] = index
        return index.lookup(value, max_results)

    def lookup_many(self, values, width: int) -> np.ndarray:
        """Batched :meth:`lookup` head: first matching position per value.

        Returns an int64 array (``-1`` = no position has that truncated
        hash).  Byte-identical to calling ``lookup(value, width)[0]`` per
        value — this is the whole-round candidate lookup both protocol
        engines use instead of N scalar probes.

        The batch is answered by a *reverse* lookup that never sorts the
        ``n`` indexed positions: a ``2**a_bits`` table marks the ``a``
        components of the queries, one gather over the full hash array
        keeps only positions whose ``a`` bits can match, and just those
        candidates are packed and binary-searched against the sorted
        queries.  A round needs each ``(length, width)`` combination only
        once or twice, so an ``O(n log n)`` width index never pays for
        itself here; the scalar :meth:`lookup` path still builds (and
        then reuses) it.
        """
        values = np.asarray(values)
        out = np.full(values.shape, -1, dtype=np.int64)
        if self._full.size == 0 or values.size == 0:
            return out
        a_bits, _ = component_widths(width)
        a_mask = np.uint32((1 << a_bits) - 1)
        queries = values.astype(np.uint32).ravel()
        marked = np.zeros(1 << a_bits, dtype=bool)
        marked[queries & a_mask] = True
        # Chunked so the temporaries (``take`` copies its indices to
        # intp) stay cache-sized instead of faulting in fresh pages.
        candidates = np.concatenate([
            np.flatnonzero(marked.take(self._full[lo : lo + _CHUNK] & a_mask))
            + lo
            for lo in range(0, self._full.size, _CHUNK)
        ])
        packed = pack_to_width(self._full.take(candidates), width)
        order, sorted_queries = stable_sort_uint32(queries)
        slot = np.searchsorted(sorted_queries, packed)
        np.minimum(slot, sorted_queries.size - 1, out=slot)
        hit = sorted_queries[slot] == packed
        slot = slot[hit]
        candidates = candidates[hit]
        first_sorted = np.full(sorted_queries.size, -1, dtype=np.int64)
        # Reversed assignment: with duplicate slots the LAST write wins,
        # so reversing makes the lowest position stick — the same "first
        # match" the stable width-index sort would return.
        first_sorted[slot[::-1]] = candidates[::-1]
        # Duplicate query values occupy distinct slots but searchsorted
        # maps every hit to the leftmost equal slot; fan the result back
        # out to all duplicates before undoing the query sort.
        representative = np.searchsorted(
            sorted_queries, sorted_queries, side="left"
        )
        out.ravel()[order] = first_sorted[representative]
        return out

    def lookup_in_range(
        self, value: int, width: int, lo: int, hi: int, max_results: int = 8
    ) -> list[int]:
        """Matching positions restricted to ``[lo, hi)`` (local hashes)."""
        lo = max(lo, 0)
        hi = min(hi, int(self._full.size))
        if lo >= hi:
            return []
        index = self._by_width.get(width)
        if index is not None:
            # The sorted width index already exists: an O(log n) probe
            # beats re-packing and scanning the whole slice.  Matches
            # are ascending (stable sort), exactly like the scan below.
            matches = index.lookup(value, int(self._full.size))
            return [p for p in matches if lo <= p < hi][:max_results]
        packed = pack_to_width(self._full[lo:hi], width)
        positions = np.flatnonzero(packed == np.uint32(value))[:max_results]
        return (positions + lo).tolist()

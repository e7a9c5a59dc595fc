"""The client endpoint: owns the outdated file ``F_old`` and builds the map."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.core.blocks import Block, BlockTracker, HashAssignment, HashKind
from repro.core.config import ProtocolConfig
from repro.core.engine import resolve_engine
from repro.core.filemap import FileMap
from repro.delta import vcdiff_decode, zdelta_decode
from repro.exceptions import DeltaFormatError, ProtocolError
from repro.grouptesting.strategies import BatchMode, BatchSpec
from repro.hashing.decomposable import DecomposableAdler
from repro.hashing.scan import (
    HashIndex,
    PrefixHasher,
    pack_to_widths,
)
from repro.hashing.strong import StrongHasher, file_fingerprint
from repro.io.bitstream import BitReader
from repro.parallel.cache import HashIndexCache, default_cache


@dataclass(frozen=True)
class Candidate:
    """A client-side candidate match: this block ≙ my bytes at ``position``."""

    block: Block
    position: int


class SortedPositionMap:
    """An int→int map backed by sorted ndarrays instead of a dict.

    The client's match-extension bookkeeping (``_source_after_end`` /
    ``_source_at_start``) used to be plain dicts probed one block at a
    time; the vectorized engine needs the *whole round's* probes answered
    in one ``searchsorted`` pass, so the keys live in a sorted array that
    serves both a ``bisect`` point probe (scalar oracle) and a batched
    :meth:`get_many` (vectorized engine).  Writes append and mark the
    snapshot dirty; the sort is rebuilt lazily on the next probe, with
    the last write for a key winning — exactly dict semantics.
    """

    __slots__ = ("_keys", "_values", "_sorted_keys", "_sorted_values",
                 "_key_list")

    def __init__(self) -> None:
        self._keys: list[int] = []
        self._values: list[int] = []
        self._sorted_keys: np.ndarray | None = None
        self._sorted_values: np.ndarray | None = None
        self._key_list: list[int] = []

    def __setitem__(self, key: int, value: int) -> None:
        self._keys.append(key)
        self._values.append(value)
        self._sorted_keys = None

    def __len__(self) -> int:
        self._ensure_sorted()
        return len(self._key_list)

    def _ensure_sorted(self) -> None:
        if self._sorted_keys is not None:
            return
        keys = np.asarray(self._keys, dtype=np.int64)
        values = np.asarray(self._values, dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        values = values[order]
        if keys.size:
            # Stable sort keeps insertion order within equal keys; keep
            # the last occurrence so rewrites override earlier entries.
            keep = np.ones(keys.size, dtype=bool)
            keep[:-1] = keys[1:] != keys[:-1]
            keys = keys[keep]
            values = values[keep]
        self._sorted_keys = keys
        self._sorted_values = values
        self._key_list = keys.tolist()

    def get(self, key: int) -> int | None:
        """Point probe (bisect over the sorted key list)."""
        self._ensure_sorted()
        keys = self._key_list
        at = bisect_left(keys, key)
        if at < len(keys) and keys[at] == key:
            return int(self._sorted_values[at])
        return None

    def get_many(self, keys: np.ndarray) -> np.ndarray:
        """Batched probe: one value per key, ``-1`` where absent."""
        self._ensure_sorted()
        sorted_keys = self._sorted_keys
        assert sorted_keys is not None
        out = np.full(keys.shape, -1, dtype=np.int64)
        if sorted_keys.size == 0 or keys.size == 0:
            return out
        # Sorted queries walk the sorted keys monotonically (cache-friendly
        # binary searches); the results are scattered back to query order.
        order = np.argsort(keys, axis=None)
        ordered = keys.ravel()[order]
        at = np.searchsorted(sorted_keys, ordered)
        np.minimum(at, sorted_keys.size - 1, out=at)
        found = sorted_keys[at] == ordered
        out.ravel()[order[found]] = self._sorted_values[at[found]]
        return out


class ClientSession:
    """Client-side protocol state for one file synchronization."""

    def __init__(
        self,
        data: bytes,
        config: ProtocolConfig,
        cache: HashIndexCache | None = None,
        engine: str | None = None,
    ) -> None:
        self.data = data
        self.config = config
        self.engine = resolve_engine(engine)
        self.hasher = DecomposableAdler(seed=config.hash_seed)
        self.strong = StrongHasher(salt=config.hash_seed.to_bytes(8, "big"))
        self._cache = cache if cache is not None else default_cache()
        self._fingerprint = file_fingerprint(data)
        self.prefix = PrefixHasher(
            data,
            self.hasher,
            sums=self._cache.prefix_sums(
                data, self.hasher, fingerprint=self._fingerprint
            ),
        )
        self.global_bits = config.resolve_global_hash_bits(len(data))
        self.server_fingerprint: bytes | None = None
        self.tracker: BlockTracker | None = None
        self.map: FileMap | None = None
        # Source positions keyed by target offsets, for match extension.
        self._source_after_end = SortedPositionMap()
        self._source_at_start = SortedPositionMap()
        self._indexes: dict[int, HashIndex] = {}

    # ------------------------------------------------------------------
    # Handshake
    # ------------------------------------------------------------------
    def process_handshake(self, fingerprint: bytes, server_length: int) -> bool:
        """Learn the server file identity; returns True if already in sync."""
        self.server_fingerprint = fingerprint
        self.tracker = BlockTracker(server_length, self.config)
        self.map = FileMap(server_length)
        return self._fingerprint == fingerprint

    def _require_tracker(self) -> BlockTracker:
        if self.tracker is None:
            raise ProtocolError("handshake has not completed")
        return self.tracker

    def _require_map(self) -> FileMap:
        if self.map is None:
            raise ProtocolError("handshake has not completed")
        return self.map

    # ------------------------------------------------------------------
    # Candidate search
    # ------------------------------------------------------------------
    def _index(self, length: int) -> HashIndex:
        index = self._indexes.get(length)
        if index is None:
            if length > len(self.data):
                # No window of this length exists: an empty index, built
                # without scanning the data (and without a cache slot).
                index = HashIndex(b"", length, self.hasher)
            else:
                index = self._cache.hash_index(
                    self.data, length, self.hasher,
                    fingerprint=self._fingerprint,
                )
            self._indexes[length] = index
        return index

    def _expected_positions(self, block: Block) -> list[int]:
        """Source positions a match would occupy if it extends a neighbor."""
        positions = []
        source_after = self._source_after_end.get(block.start)
        if source_after is not None:
            positions.append(source_after)
        source_at = self._source_at_start.get(block.end)
        if source_at is not None:
            positions.append(source_at - block.length)
        return [
            p for p in positions if 0 <= p <= len(self.data) - block.length
        ]

    def _hash_matches_at(self, block: Block, position: int, value: int, width: int) -> bool:
        return self.prefix.packed(position, block.length, width) == value

    def _find_candidate(
        self, assignment: HashAssignment, value: int
    ) -> int | None:
        """Pick the client position to verify for this hash, if any."""
        block = assignment.block
        if block.length > len(self.data):
            return None
        expected = self._expected_positions(block)
        if assignment.kind is HashKind.CONTINUATION:
            for position in expected:
                if self._hash_matches_at(block, position, value, assignment.width):
                    return position
            return None
        # Extension positions are the most trustworthy — try them first.
        for position in expected:
            if self._hash_matches_at(block, position, value, assignment.width):
                return position
        if assignment.kind is HashKind.LOCAL:
            return self._local_candidate(assignment, value)
        positions = self._index(block.length).lookup(
            value,
            assignment.width,
            max_results=self.config.max_candidate_positions,
        )
        return positions[0] if positions else None

    def _local_candidate(
        self, assignment: HashAssignment, value: int
    ) -> int | None:
        """Anchored neighborhood search for a LOCAL hash (rare; scalar)."""
        block = assignment.block
        anchor = self._require_tracker().local_anchor(block)
        if anchor is None:
            return None
        anchor_start, _anchor_length = anchor
        anchor_source = self._source_at_start.get(anchor_start)
        if anchor_source is None:
            return None
        center = anchor_source + (block.start - anchor_start)
        radius = self.config.local_neighborhood
        positions = self._index(block.length).lookup_in_range(
            value,
            assignment.width,
            center - radius,
            center + radius,
            max_results=self.config.max_candidate_positions,
        )
        return positions[0] if positions else None

    def process_hashes(
        self, plan: list[HashAssignment], payload: bytes
    ) -> list[Candidate | None]:
        """Parse a hash message; return one entry per plan item.

        Derived hashes are reconstructed from the parent's stored value and
        the left sibling's value seen earlier in the same message.
        """
        if self.engine == "scalar":
            return self._process_hashes_scalar(plan, payload)
        return self._process_hashes_vectorized(plan, payload)

    def _process_hashes_scalar(
        self, plan: list[HashAssignment], payload: bytes
    ) -> list[Candidate | None]:
        """Parity oracle: the original block-at-a-time loop."""
        reader = BitReader(payload)
        parsed: dict[int, int] = {}  # id(block) -> packed value
        results: list[Candidate | None] = []
        for assignment in plan:
            block = assignment.block
            if assignment.kind is HashKind.DERIVED:
                parent = block.parent
                sibling = block.sibling
                if parent is None or sibling is None:
                    raise ProtocolError("derived hash without parent/sibling")
                if parent.known_width < assignment.width:
                    raise ProtocolError("derived hash without parent value")
                parent_value = DecomposableAdler.truncate(
                    parent.known_value, parent.known_width, assignment.width
                )
                left_value = parsed.get(id(sibling), sibling.known_value)
                value = DecomposableAdler.decompose_right_packed(
                    parent_value, left_value, assignment.width, block.length
                )
            else:
                value = reader.read(assignment.width)
            parsed[id(block)] = value
            if assignment.kind in (HashKind.GLOBAL, HashKind.DERIVED):
                block.known_value = value
            position = self._find_candidate(assignment, value)
            results.append(
                Candidate(block, position) if position is not None else None
            )
        return results

    def _process_hashes_vectorized(
        self, plan: list[HashAssignment], payload: bytes
    ) -> list[Candidate | None]:
        """Whole-plan engine: batched parse, probes, and index lookups."""
        count = len(plan)
        if count == 0:
            return []
        reader = BitReader(payload)
        values: list[int] = [0] * count
        # Parse the wire in runs of equal width (DERIVED sends no bits,
        # so the wire order is simply plan order minus DERIVED rows).
        wire_rows = [
            at for at, assignment in enumerate(plan)
            if assignment.kind is not HashKind.DERIVED
        ]
        cursor = 0
        while cursor < len(wire_rows):
            width = plan[wire_rows[cursor]].width
            stop = cursor + 1
            while (
                stop < len(wire_rows)
                and plan[wire_rows[stop]].width == width
            ):
                stop += 1
            run = reader.read_many(stop - cursor, width).tolist()
            for offset, value in enumerate(run):
                values[wire_rows[cursor + offset]] = value
            cursor = stop
        # Reconstruct DERIVED values and record known hashes in plan
        # order, so a derived row always sees its (earlier) left sibling.
        parsed: dict[int, int] = {}  # id(block) -> packed value
        for at, assignment in enumerate(plan):
            block = assignment.block
            if assignment.kind is HashKind.DERIVED:
                parent = block.parent
                sibling = block.sibling
                if parent is None or sibling is None:
                    raise ProtocolError("derived hash without parent/sibling")
                if parent.known_width < assignment.width:
                    raise ProtocolError("derived hash without parent value")
                parent_value = DecomposableAdler.truncate(
                    parent.known_value, parent.known_width, assignment.width
                )
                left_value = parsed.get(id(sibling), sibling.known_value)
                values[at] = DecomposableAdler.decompose_right_packed(
                    parent_value, left_value, assignment.width, block.length
                )
            value = values[at]
            parsed[id(block)] = value
            if assignment.kind in (HashKind.GLOBAL, HashKind.DERIVED):
                block.known_value = value
        # Batched candidate search.  Probe order matches the scalar
        # oracle: source-after-end extension first, then source-at-start,
        # then (GLOBAL/DERIVED only) the full hash index.
        data_len = len(self.data)
        starts = np.fromiter(
            (a.block.start for a in plan), dtype=np.int64, count=count
        )
        lengths = np.fromiter(
            (a.block.length for a in plan), dtype=np.int64, count=count
        )
        widths = np.fromiter(
            (a.width for a in plan), dtype=np.int64, count=count
        )
        packed_values = np.array(values, dtype=np.uint32)
        fits = lengths <= data_len
        max_start = data_len - lengths
        candidate = np.full(count, -1, dtype=np.int64)

        after_pos = self._source_after_end.get_many(starts)
        probe_after = fits & (after_pos >= 0) & (after_pos <= max_start)
        rows = np.flatnonzero(probe_after)
        if rows.size:
            full = self.prefix.block_pairs(after_pos[rows], lengths[rows])
            hit = pack_to_widths(full, widths[rows]) == packed_values[rows]
            matched = rows[hit]
            candidate[matched] = after_pos[matched]

        at_source = self._source_at_start.get_many(starts + lengths)
        at_pos = at_source - lengths
        probe_at = (
            (candidate < 0)
            & fits
            & (at_source >= 0)
            & (at_pos >= 0)
            & (at_pos <= max_start)
        )
        rows = np.flatnonzero(probe_at)
        if rows.size:
            full = self.prefix.block_pairs(at_pos[rows], lengths[rows])
            hit = pack_to_widths(full, widths[rows]) == packed_values[rows]
            matched = rows[hit]
            candidate[matched] = at_pos[matched]

        # Index lookups for still-unmatched GLOBAL/DERIVED rows, grouped
        # by (length, width) so each group is one batched searchsorted.
        index_groups: dict[tuple[int, int], list[int]] = {}
        local_rows: list[int] = []
        for at, assignment in enumerate(plan):
            if candidate[at] >= 0 or not fits[at]:
                continue
            if assignment.kind is HashKind.CONTINUATION:
                continue
            if assignment.kind is HashKind.LOCAL:
                local_rows.append(at)
                continue
            key = (assignment.block.length, assignment.width)
            index_groups.setdefault(key, []).append(at)
        for (length, width), group in index_groups.items():
            rows = np.asarray(group, dtype=np.int64)
            first = self._index(length).lookup_many(
                packed_values[rows], width
            )
            matched = rows[first >= 0]
            candidate[matched] = first[first >= 0]
        for at in local_rows:
            position = self._local_candidate(plan[at], values[at])
            if position is not None:
                candidate[at] = position

        positions = candidate.tolist()
        return [
            Candidate(assignment.block, position) if position >= 0 else None
            for assignment, position in zip(plan, positions)
        ]

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def window_bytes(self, candidate: Candidate) -> bytes:
        return self.data[
            candidate.position : candidate.position + candidate.block.length
        ]

    def verification_value(
        self, unit: list[Candidate], batch: BatchSpec
    ) -> int:
        """The hash value sent to the server for this unit."""
        if batch.mode is BatchMode.INDIVIDUAL:
            return self.strong.bits(self.window_bytes(unit[0]), batch.bits)
        return self.strong.group_bits(
            (self.window_bytes(candidate) for candidate in unit), batch.bits
        )

    def verification_values(
        self, units: list[list[Candidate]], batch: BatchSpec
    ) -> list[int]:
        """Batched :meth:`verification_value`: one value per unit."""
        bits = batch.bits
        if batch.mode is BatchMode.INDIVIDUAL:
            window = self.window_bytes
            strong_bits = self.strong.bits
            return [strong_bits(window(unit[0]), bits) for unit in units]
        group_bits = self.strong.group_bits
        return [
            group_bits(
                (self.window_bytes(candidate) for candidate in unit), bits
            )
            for unit in units
        ]

    def record_accepted(self, accepted: list[Candidate]) -> None:
        """Fold confirmed matches into the map and adjacency dictionaries."""
        tracker = self._require_tracker()
        file_map = self._require_map()
        for candidate in accepted:
            block = candidate.block
            tracker.record_match(block)
            file_map.add(block.start, block.length, candidate.position)
            self._source_after_end[block.end] = candidate.position + block.length
            self._source_at_start[block.start] = candidate.position

    # ------------------------------------------------------------------
    # Delta phase
    # ------------------------------------------------------------------
    def apply_delta(self, delta: bytes) -> bytes | None:
        """Decode the final delta; ``None`` signals a failed reconstruction."""
        reference = self._require_map().reference_from_source(self.data)
        try:
            if self.config.delta_coder == "vcdiff":
                reconstructed = vcdiff_decode(reference, delta)
            else:
                reconstructed = zdelta_decode(reference, delta)
        except DeltaFormatError:
            return None
        if (
            self.server_fingerprint is not None
            and file_fingerprint(reconstructed) != self.server_fingerprint
        ):
            return None
        return reconstructed

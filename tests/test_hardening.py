"""Miscellaneous hardening: edge cases across module boundaries."""

from __future__ import annotations

import random

import pytest

from repro.core import ProtocolConfig, synchronize
from repro.io import BitReader, BitWriter
from repro.net import Direction, SimulatedChannel


class TestChannelBitsValidation:
    def test_bits_must_match_payload(self):
        channel = SimulatedChannel()
        with pytest.raises(ValueError):
            channel.send(Direction.CLIENT_TO_SERVER, b"ab", "map", bits=3)
        with pytest.raises(ValueError):
            channel.send(Direction.CLIENT_TO_SERVER, b"ab", "map", bits=17)

    def test_bits_boundary_values(self):
        channel = SimulatedChannel()
        channel.send(Direction.CLIENT_TO_SERVER, b"ab", "map", bits=9)
        channel.send(Direction.CLIENT_TO_SERVER, b"ab", "map", bits=16)
        channel.send(Direction.CLIENT_TO_SERVER, b"", "map", bits=0)
        assert channel.stats.bytes_in_phase("map") == 4  # ceil(25/8)

    def test_empty_payload_nonzero_bits_rejected(self):
        channel = SimulatedChannel()
        with pytest.raises(ValueError):
            channel.send(Direction.CLIENT_TO_SERVER, b"", "map", bits=1)


class TestBitstreamInterleaving:
    def test_mixed_field_widths(self):
        writer = BitWriter()
        writer.write(1, 1)
        writer.write_uvarint(1_000_000)
        writer.write_bytes(b"xy")
        writer.write(0x3FF, 10)
        reader = BitReader(writer.getvalue())
        assert reader.read(1) == 1
        assert reader.read_uvarint() == 1_000_000
        assert reader.read_bytes(2) == b"xy"
        assert reader.read(10) == 0x3FF

    def test_wide_values(self):
        writer = BitWriter()
        writer.write((1 << 32) - 1, 32)
        writer.write(1, 1)
        reader = BitReader(writer.getvalue())
        assert reader.read(32) == (1 << 32) - 1
        assert reader.read(1) == 1


class TestExtremeSizes:
    def test_one_megabyte_file(self):
        """A single larger file end to end (exercises numpy paths at a
        size where the uint32 prefix sums wrap past ``2**32``)."""
        rng = random.Random(6)
        import sys

        sys.path.insert(0, "benchmarks")
        from tests_data import make_pair

        old, new = make_pair(seed=6, nbytes=600_000, edits=25)
        result = synchronize(old, new)
        assert result.reconstructed == new
        assert result.total_bytes < len(new) // 10

    def test_new_file_much_larger_than_old(self):
        old = b"tiny seed content"
        new = old * 3000
        result = synchronize(old, new)
        assert result.reconstructed == new
        # Massive internal redundancy: the delta coder must crush it.
        assert result.total_bytes < len(new) // 20

    def test_old_file_much_larger_than_new(self):
        rng = random.Random(7)
        old = bytes(rng.randrange(256) for _ in range(200_000))
        new = old[98_765:99_765]
        result = synchronize(old, new)
        assert result.reconstructed == new
        assert result.total_bytes < 2_000


class TestConfigInteractionCorners:
    def test_start_equals_min_single_round(self):
        import sys

        sys.path.insert(0, "tests")
        from conftest import make_version_pair

        old, new = make_version_pair(seed=71, nbytes=9000)
        config = ProtocolConfig(
            start_block_size=64,
            min_block_size=64,
            continuation_min_block_size=None,
        )
        result = synchronize(old, new, config)
        assert result.reconstructed == new
        assert result.rounds == 1

    def test_floor_equals_two(self):
        from tests.conftest import make_version_pair

        old, new = make_version_pair(seed=72, nbytes=3000)
        config = ProtocolConfig(
            min_block_size=2,
            continuation_min_block_size=2,
            start_block_size=64,
        )
        assert synchronize(old, new, config).reconstructed == new

    def test_max_candidate_positions_extremes(self):
        from tests.conftest import make_version_pair

        old, new = make_version_pair(seed=73, nbytes=6000)
        for cap in (1, 64):
            config = ProtocolConfig(max_candidate_positions=cap)
            assert synchronize(old, new, config).reconstructed == new


class TestStatsInvariantsUnderAllPhases:
    def test_phases_cover_every_feature(self):
        from tests.conftest import make_version_pair

        old, new = make_version_pair(seed=74, nbytes=30000, edits=10)
        config = ProtocolConfig(refine_boundaries=True, collect_trace=True)
        channel = SimulatedChannel()
        result = synchronize(old, new, config, channel)
        assert result.reconstructed == new
        phases = set(result.stats.phases())
        assert {"handshake", "map", "delta", "fallback"} <= phases
        total = sum(
            result.stats.bytes_in_phase(phase) for phase in phases
        )
        assert total == result.total_bytes

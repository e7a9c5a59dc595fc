"""Tests for batched (roundtrip-sharing) synchronization."""

from __future__ import annotations

import pytest

from repro.core import ProtocolConfig, synchronize, synchronize_batch
from repro.net import SimulatedChannel
from repro.net.metrics import Direction
from repro.workloads import gcc_like, make_web_collection
from tests.conftest import make_version_pair


class _TranscriptChannel(SimulatedChannel):
    """Keeps every ``(direction, phase, bits, payload)`` sent."""

    def __init__(self):
        super().__init__()
        self.sent: list[tuple] = []

    def send(self, direction, payload, phase, bits=None):
        self.sent.append((direction, phase, bits, payload))
        super().send(direction, payload, phase, bits=bits)


@pytest.fixture(scope="module")
def batch_pair():
    tree = gcc_like(scale=0.08, seed=6)
    names = sorted(set(tree.old) & set(tree.new))
    return (
        {n: tree.old[n] for n in names},
        {n: tree.new[n] for n in names},
    )


class TestCorrectness:
    def test_every_file_reconstructed(self, batch_pair):
        old_side, new_side = batch_pair
        report = synchronize_batch(old_side, new_side)
        assert report.reconstructed == new_side

    def test_unchanged_files_listed(self, batch_pair):
        old_side, new_side = batch_pair
        report = synchronize_batch(old_side, new_side)
        expected = {n for n in old_side if old_side[n] == new_side[n]}
        assert set(report.unchanged_files) == expected

    def test_empty_batch(self):
        report = synchronize_batch({}, {})
        assert report.reconstructed == {}
        assert report.rounds == 0

    def test_empty_batch_sends_nothing(self):
        # A message no lane takes part in is not sent.
        channel = _TranscriptChannel()
        report = synchronize_batch({}, {}, channel=channel)
        assert channel.sent == []
        assert (report.stats.messages, report.roundtrips) == (0, 0)

    def test_identical_batch_sends_only_the_handshake(self):
        # Every lane stops at its proceed bit, so the delta and NACK
        # messages have no lane and are not sent.
        files = {"a": b"alpha" * 300, "b": b"", "c": bytes(range(256)) * 9}
        channel = _TranscriptChannel()
        report = synchronize_batch(files, dict(files), channel=channel)
        assert report.reconstructed == files
        assert report.unchanged_files == sorted(files)
        assert report.rounds == 0
        # Client lengths (uvarints of 2 + 1 + 2 bytes), server hellos
        # (16-byte fingerprint + length uvarint each), one proceed bit
        # per lane, all clear.
        assert [sent[:3] for sent in channel.sent] == [
            (Direction.CLIENT_TO_SERVER, "handshake", 40),
            (Direction.SERVER_TO_CLIENT, "handshake", 424),
            (Direction.CLIENT_TO_SERVER, "handshake", 3),
        ]
        assert channel.sent[-1][3] == b"\x00"

    def test_single_file_matches_protocol(self):
        old, new = make_version_pair(seed=600, nbytes=12000)
        report = synchronize_batch({"f": old}, {"f": new})
        assert report.reconstructed["f"] == new

    def test_names_only_on_one_side_ignored(self):
        old, new = make_version_pair(seed=601, nbytes=4000)
        report = synchronize_batch(
            {"common": old, "client-only": b"x"},
            {"common": new, "server-only": b"y"},
        )
        assert set(report.reconstructed) == {"common"}

    @pytest.mark.parametrize(
        "overrides",
        [
            {"verification": "trivial"},
            {"verification": "group3"},
            {"continuation_first": False},
            {"continuation_min_block_size": None},
            {"max_rounds": 2},
        ],
    )
    def test_variants(self, batch_pair, overrides):
        old_side, new_side = batch_pair
        report = synchronize_batch(
            old_side, new_side, ProtocolConfig(**overrides)
        )
        assert report.reconstructed == new_side


class TestAmortization:
    def test_roundtrips_shared_not_summed(self, batch_pair):
        """The whole point: batch roundtrips ~ per-round, not per-file."""
        old_side, new_side = batch_pair
        report = synchronize_batch(old_side, new_side)

        per_file_roundtrips = 0
        for name in old_side:
            channel = SimulatedChannel()
            result = synchronize(old_side[name], new_side[name],
                                 channel=channel)
            assert result.reconstructed == new_side[name]
            per_file_roundtrips += channel.stats.roundtrips
        assert report.roundtrips < per_file_roundtrips / 3

    def test_bytes_comparable_to_per_file(self, batch_pair):
        old_side, new_side = batch_pair
        report = synchronize_batch(old_side, new_side)
        per_file_total = 0
        for name in old_side:
            result = synchronize(old_side[name], new_side[name])
            per_file_total += result.total_bytes
        # Sharing byte boundaries can only help; no more than 5% apart.
        assert report.total_bytes <= per_file_total * 1.05

    def test_roundtrips_grow_with_rounds_not_files(self):
        small = make_web_collection(page_count=6, days=(0, 1), seed=9)
        large = make_web_collection(page_count=18, days=(0, 1), seed=9)
        report_small = synchronize_batch(
            small.snapshot(0), small.snapshot(1)
        )
        report_large = synchronize_batch(
            large.snapshot(0), large.snapshot(1)
        )
        assert report_large.reconstructed == large.snapshot(1)
        # Tripling the file count must not triple the roundtrips.
        assert report_large.roundtrips < 2 * max(report_small.roundtrips, 1)


class TestFallback:
    def test_corrupted_delta_falls_back_per_file(self, monkeypatch):
        from repro.core import server as server_module

        old_a, new_a = make_version_pair(seed=602, nbytes=6000)
        old_b, new_b = make_version_pair(seed=603, nbytes=6000)
        original = server_module.ServerSession.emit_delta
        victims = {new_a}

        def sabotage(self):
            delta = original(self)
            if self.data in victims and len(delta) > 4:
                corrupted = bytearray(delta)
                corrupted[len(corrupted) // 2] ^= 0xFF
                return bytes(corrupted)
            return delta

        monkeypatch.setattr(server_module.ServerSession, "emit_delta", sabotage)
        report = synchronize_batch(
            {"a": old_a, "b": old_b}, {"a": new_a, "b": new_b}
        )
        assert report.reconstructed == {"a": new_a, "b": new_b}
        assert report.fallback_files == ["a"]


class TestBatchWithRefinement:
    def test_refinement_composes_with_batching(self, batch_pair):
        from repro.core import ProtocolConfig, synchronize_batch

        old_side, new_side = batch_pair
        config = ProtocolConfig(
            min_block_size=128,
            continuation_min_block_size=None,
            refine_boundaries=True,
        )
        report = synchronize_batch(old_side, new_side, config)
        assert report.reconstructed == new_side


class TestStallGuard:
    @pytest.mark.parametrize("driver", ["synchronize", "synchronize_batch"])
    def test_non_converging_tracker_raises(self, driver, monkeypatch):
        """A frontier that never empties must end in ``SyncStalledError``
        within ``_STALL_ROUND_LIMIT`` rounds, not loop forever."""
        import random

        from repro.core.blocks import BlockTracker
        from repro.core.protocol import _STALL_ROUND_LIMIT
        from repro.exceptions import SyncStalledError

        levels: list[int] = []

        def never_converges(tracker):
            # Keeps the current level (none of it ever matches) active.
            levels.append(tracker.level)
            if tracker.level >= 200:
                raise RuntimeError("no stall guard after 200 rounds")
            tracker.level += 1
            return True

        monkeypatch.setattr(BlockTracker, "advance_level", never_converges)
        rng = random.Random(31)
        old, new = (bytes(rng.randrange(256) for _ in range(3000))
                    for _ in range(2))
        with pytest.raises(SyncStalledError):
            if driver == "synchronize":
                synchronize(old, new)
            else:
                synchronize_batch({"a": old, "b": new}, {"a": new, "b": old})
        assert max(levels) == _STALL_ROUND_LIMIT - 1

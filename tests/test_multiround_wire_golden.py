"""Golden wire digests for the one-file multiround-rsync driver.

The multiround counterpart of ``tests/test_wire_golden.py``: each case
runs :func:`~repro.multiround.multiround_rsync_sync` over a fixed pair,
records every message it sends (direction, phase, bit width, payload
digest) plus the final :class:`TransferStats` (``bits_by``, ``messages``,
``roundtrips``, retransmitted bits), the round count and the
integrity outcome (collisions, repair, fallback), and pins the sha256 of
that record.  A refactor that changes a single bit on the wire, a
message boundary or a report field fails here.  Both engines must
reproduce the same digest.
"""

from __future__ import annotations

import functools

import pytest

from repro.multiround import MultiroundConfig, multiround_rsync_sync
from tests.conftest import make_version_pair
from tests.test_wire_golden import RecordingChannel, _digest, _stats

ENGINES = ("vectorized", "scalar")

#: 16-bit hashes over 1 KiB..32 B blocks collide often enough that the
#: whole-file fingerprint rejects the first reconstruction.
_WEAK = {"hash_bits": 16, "start_block_size": 1024, "min_block_size": 32}


@functools.lru_cache(maxsize=None)
def _cases() -> dict[str, tuple[bytes, bytes, dict]]:
    small_old, small_new = make_version_pair(seed=880, nbytes=900, edits=3)
    mid_old, mid_new = make_version_pair(seed=881, nbytes=12000)
    big_old, big_new = make_version_pair(seed=882, nbytes=40000, edits=14)
    weak_old, weak_new = make_version_pair(seed=884, nbytes=16000, edits=10)
    return {
        "empty-old": (b"", mid_new, {}),
        "identical": (mid_old, mid_old, {}),
        "emptied": (mid_old, b"", {}),
        "small": (small_old, small_new, {}),
        "mid": (mid_old, mid_new, {}),
        "big": (big_old, big_new, {}),
        "small-blocks": (
            mid_old, mid_new, {"start_block_size": 512, "min_block_size": 16}
        ),
        "repair": (weak_old, weak_new, _WEAK),
        "fallback": (weak_old, weak_new, {**_WEAK, "repair": False}),
    }


def multiround_digest(case: str, engine: str) -> str:
    old, new, overrides = _cases()[case]
    channel = RecordingChannel()
    result = multiround_rsync_sync(
        old, new, MultiroundConfig(**overrides), channel, engine=engine
    )
    assert result.reconstructed == new
    stats = result.stats
    return _digest(
        {
            "transcript": channel.transcript,
            "stats": {**_stats(stats), "retransmitted": stats.retransmitted_bits},
            "rounds": result.rounds,
            "fallback": result.used_fallback,
            "collisions": result.collisions_detected,
            "repaired": result.repaired,
            "repair": [result.repair_rounds, result.repair_bytes],
        }
    )


MULTIROUND_GOLDEN = {
    "big": "af1525efc7dd7233996bbcbacb7643789ec8625adb87308b5ad8e3f73df166a0",
    "emptied": "de5e0ddd3089002619ee9bcba1248cb9c947f73e4010c63ea42e94b5f7397523",
    "empty-old": "97790d640e09761a1a22107cbcd7004a487a7342ada4f36c7728a6789b045b9a",
    "fallback": "fcc1537311edf46ebef7ff3b69cbfff341f118b072839bc41d233651c8d60588",
    "identical": "6fd50288ba0526e6e176759de2210d07d61efa4166d70b57b9f93604df981f03",
    "mid": "1d4412906fcf38192bb4115df9ab7dcc4cf665fba1a7db5a5b35ccd20d6405a9",
    "repair": "a45838d2a601820f8abe66c8eea6562fdc85056fc8aa5d19ef5138162f7e49c5",
    "small": "389edf501f4bf2a217cf60e87ea7dcf3f94a7364b49790847564a78ce7178127",
    "small-blocks": "cf484e649510a2a7740bc1341660ffa5a54050c549d3e2883746fcee1b77933f",
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", sorted(MULTIROUND_GOLDEN))
def test_multiround_wire(case, engine):
    assert multiround_digest(case, engine) == MULTIROUND_GOLDEN[case]


def test_cases_cover_repair_and_fallback():
    outcomes = {}
    for case in ("repair", "fallback"):
        old, new, overrides = _cases()[case]
        outcomes[case] = multiround_rsync_sync(
            old, new, MultiroundConfig(**overrides)
        )
    assert outcomes["repair"].repaired and not outcomes["repair"].used_fallback
    assert outcomes["fallback"].used_fallback
    assert outcomes["repair"].rounds > 1

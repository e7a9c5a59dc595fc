"""Golden wire digests for the three core-protocol drivers.

Each case runs a driver over fixed inputs, records every message it
sends (direction, phase, bit width, payload) plus the final
:class:`TransferStats` (``bits_by``, ``messages``, ``roundtrips``), the
round count, the unchanged/fallback outcome and any ``collect_trace``
trace, and pins the sha256 of that record.  A refactor of the round
engine that changes a single bit on the wire, a message boundary or a
report field fails here.  Both engines must reproduce the same digest:
the scalar oracle and the vectorized engine put identical traffic on the
wire.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random

import pytest

import repro.core.broadcast as broadcast_module
from repro.core import (
    ENGINE_ENV,
    ProtocolConfig,
    synchronize,
    synchronize_batch,
)
from repro.core.broadcast import synchronize_broadcast
from repro.net.channel import SimulatedChannel
from repro.workloads import gcc_like, make_web_collection
from tests.conftest import make_version_pair

ENGINES = ("vectorized", "scalar")

CONFIGS = {
    "defaults": {},
    "local-hashes": {"use_local_hashes": True},
    "trivial": {"verification": "trivial"},
    "group3": {"verification": "group3"},
    "no-continuation": {"continuation_min_block_size": None},
    "mixed-subphase": {"continuation_first": False},
    "max-rounds-2": {"max_rounds": 2},
    "refine": {"refine_boundaries": True, "min_block_size": 128},
    "trace": {"collect_trace": True},
}


class RecordingChannel(SimulatedChannel):
    """A channel that keeps a digest of every send."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.transcript: list[list] = []

    def send(self, direction, payload, phase, bits=None):
        self.transcript.append(
            [direction.value, phase, bits, hashlib.sha256(payload).hexdigest()]
        )
        super().send(direction, payload, phase, bits=bits)


def _stats(stats) -> dict:
    return {
        "bits_by": sorted(
            [direction.value, phase, bits]
            for (direction, phase), bits in stats.bits_by.items()
        ),
        "messages": stats.messages,
        "roundtrips": stats.roundtrips,
    }


def _trace(traces) -> list[dict]:
    return [
        {
            "round": t.round_index,
            "block_length": t.block_length,
            "hash_counts": sorted(
                [kind.value, count] for kind, count in t.hash_counts.items()
            ),
            "hash_bits": t.hash_bits_sent,
            "candidates": t.candidates,
            "accepted": t.accepted,
            "verification_bits": t.verification_bits,
        }
        for t in traces
    ]


def _digest(record) -> str:
    return hashlib.sha256(
        json.dumps(record, sort_keys=True).encode()
    ).hexdigest()


def _content(files: dict[str, bytes]) -> str:
    return _digest(
        {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    )


@functools.lru_cache(maxsize=None)
def _pairs() -> list[tuple[bytes, bytes]]:
    small_old, small_new = make_version_pair(seed=880, nbytes=900, edits=3)
    mid_old, mid_new = make_version_pair(seed=881, nbytes=12000)
    big_old, big_new = make_version_pair(seed=882, nbytes=40000, edits=14)
    return [
        (b"", mid_new),  # empty old file
        (mid_old, mid_old),  # identical pair
        (mid_old, b""),  # server file emptied
        (small_old, small_new),
        (mid_old, mid_new),
        (big_old, big_new),
    ]


@functools.lru_cache(maxsize=None)
def _batch_collections() -> dict[str, tuple[dict, dict]]:
    tree = gcc_like(scale=0.08, seed=6)
    names = sorted(set(tree.old) & set(tree.new))
    web = make_web_collection(page_count=30, days=(0, 1), seed=3)
    return {
        "gcc": (
            {n: tree.old[n] for n in names},
            {n: tree.new[n] for n in names},
        ),
        "web": (web.snapshot(0), web.snapshot(1)),
    }


def sync_digest(config_name: str, engine: str) -> str:
    config = ProtocolConfig(**CONFIGS[config_name])
    records = []
    for old, new in _pairs():
        channel = RecordingChannel()
        result = synchronize(old, new, config, channel, engine=engine)
        assert result.reconstructed == new
        records.append(
            {
                "transcript": channel.transcript,
                "stats": _stats(result.stats),
                "rounds": result.rounds,
                "unchanged": result.unchanged,
                "fallback": result.used_fallback,
                "continuation": [
                    result.continuation_candidates,
                    result.continuation_accepted,
                ],
                "trace": _trace(result.trace),
            }
        )
    return _digest(records)


def batch_digest(collection: str, config_name: str, engine: str) -> str:
    old_side, new_side = _batch_collections()[collection]
    config = ProtocolConfig(**CONFIGS[config_name])
    channel = RecordingChannel()
    report = synchronize_batch(old_side, new_side, config, channel, engine=engine)
    assert report.reconstructed == new_side
    return _digest(
        {
            "transcript": channel.transcript,
            "stats": _stats(report.stats),
            "rounds": report.rounds,
            "unchanged": report.unchanged_files,
            "fallback": report.fallback_files,
            "content": _content(report.reconstructed),
        }
    )


BROADCAST_CONFIGS = {
    "defaults": {},
    "no-decomposable": {"use_decomposable": False},
    "trivial": {"verification": "trivial", "min_block_size": 128},
}


def broadcast_digest(config_name: str, monkeypatch) -> str:
    channels: list[RecordingChannel] = []

    def recording(*args, **kwargs):
        channel = RecordingChannel(*args, **kwargs)
        channels.append(channel)
        return channel

    monkeypatch.setattr(broadcast_module, "SimulatedChannel", recording)
    rng = random.Random(77)
    current = make_version_pair(seed=883, nbytes=24000)[1]
    clients = {}
    for index in range(4):
        stale = bytearray(current)
        for _ in range(3 + index):
            at = rng.randrange(len(stale) - 200)
            stale[at : at + 40] = bytes(rng.randrange(256) for _ in range(55))
        clients[f"client{index}"] = bytes(stale)
    clients["current"] = current
    report = synchronize_broadcast(
        clients, current, ProtocolConfig(**BROADCAST_CONFIGS[config_name])
    )
    for name in clients:
        assert report.reconstructed[name] == current, name
    return _digest(
        {
            "transcripts": [channel.transcript for channel in channels],
            "shared": _stats(report.shared_stats),
            "per_client": {
                name: _stats(stats)
                for name, stats in sorted(report.per_client_stats.items())
            },
            "content": _content(report.reconstructed),
        }
    )


SYNC_GOLDEN = {
    "defaults": "210bdb0683fef8d8ee93252ec4b5f3d5e404a9f15ceec299e2e0d7bddcca7518",
    "group3": "e93a675bc1cddc71c914ed8597c2867df5e9212b8e006b8312d39e09e035ad6b",
    "local-hashes": "4a70b15f44c01ee088d388bc6270ebe816b34181b3b5a27649c8b1d0f312b4dc",
    "max-rounds-2": "cc2d9423460b7e4bb6fc3ad5969954be2b1320e93f98a8f833ba867bf294aa60",
    "mixed-subphase": "f48d2e44642c55cf35b1928b96a55a363b26255c9849cd93443161769f1cb839",
    "no-continuation": "7dd411bd05f4ac49dfc5d5d522df5d6d298d7670626465e4b0618aab80c232e6",
    "refine": "ef41e9adf90d9b6c3fc15585dbd29a5882398934881d8b476ae04bffb20e889d",
    "trace": "30f26146dd0118edd7f4fc6607e029bc2e49486ecb4880f99aa1752f677150b7",
    "trivial": "9b02df99762cb09cc1030e3c6a82d692235906bc89e422075fb971cbeabaf611",
}

BATCH_GOLDEN = {
    ("gcc", "defaults"): "e82fd46b2f67a21496548db3ebd0940b0816275b49137bc79b233e14115006ca",
    ("gcc", "group3"): "688c3aa371b336d7abb316765d692603772f3732ee368edeeb792d862785b534",
    ("gcc", "local-hashes"): "9ddc9947750ee43fe6252a2d874374bed415c3d341e7254f408dd20731e16eda",
    ("gcc", "max-rounds-2"): "b76b1ad7084929f65a50073f228de93b9b48f7bdf20c2875553bc20bf06607cf",
    ("gcc", "mixed-subphase"): "dd11ea82b31e25d4bd05bd0c7901308582f9266c67ee91149db25a05890d84eb",
    ("gcc", "no-continuation"): "fa74b6ed64c94dff5e7854691ce500fa8d65a5feb16f1fb8ae325da4c8c4d994",
    ("gcc", "refine"): "c29af10f4c5979558e6008f28e4c217970dc67f46f4fe578a58f1ee8e1d07b41",
    ("gcc", "trace"): "e82fd46b2f67a21496548db3ebd0940b0816275b49137bc79b233e14115006ca",
    ("gcc", "trivial"): "f5b4488fd5fca29e3ad7ae7efbb1d5103723773b97b181d01a584ee32c79d5d8",
    ("web", "defaults"): "c5a1f59327b5e0f7d66032cc5c79f2abf9f9b07d952dd00948643f649be5878f",
    ("web", "group3"): "75c1e02f281dd065d518d387d1494afd411368c75eb8f729aac23e49fd1eb8f8",
    ("web", "local-hashes"): "1a9c781a3b89bde250c2e47c09722ccc0a06e07c26acfefc2dc26d1a4f4f87c4",
    ("web", "max-rounds-2"): "4ab2ac3af5c7df56711e559b55e4f3a327c9a34599033cdd420df8d7227dd7d2",
    ("web", "mixed-subphase"): "8d372306acb5aac9c70571e76ce079310ae9cd435993e44573783c74003fac34",
    ("web", "no-continuation"): "73fd192d5b76554d929e6931f9d99a6a71fe22389dcbdaf09688b6edcf91e059",
    ("web", "refine"): "d3c63830d6b464f97f673ad5df806d79438397a9eba61f874f9faa5c295c0391",
    ("web", "trace"): "c5a1f59327b5e0f7d66032cc5c79f2abf9f9b07d952dd00948643f649be5878f",
    ("web", "trivial"): "a36b9b324b60839b5d81a0efb6826898b5dd15da534ce368b542dc0c981f113a",
}

BROADCAST_GOLDEN = {
    "defaults": "59d2f88049114e3f76ba8551f9eff1b3f8a7b0f3558f3219a575a3b24a0f7e51",
    "no-decomposable": "7b186dee86ee8bd5b107a8a48ed637bf80e7e07c194268411ff85d12323484c5",
    "trivial": "ac3e5978a1b5eedfa64dd8878bfe9f7669fdadc80f540a640a37c031268cfefe",
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_synchronize_wire(config_name, engine):
    assert sync_digest(config_name, engine) == SYNC_GOLDEN[config_name]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("collection", ["gcc", "web"])
def test_synchronize_batch_wire(collection, config_name, engine):
    assert (
        batch_digest(collection, config_name, engine)
        == BATCH_GOLDEN[collection, config_name]
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("config_name", sorted(BROADCAST_CONFIGS))
def test_synchronize_broadcast_wire(config_name, engine, monkeypatch):
    monkeypatch.setenv(ENGINE_ENV, engine)
    assert (
        broadcast_digest(config_name, monkeypatch)
        == BROADCAST_GOLDEN[config_name]
    )

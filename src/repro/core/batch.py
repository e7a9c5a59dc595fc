"""Batched synchronization: many files share every roundtrip.

The paper's protocols are practical *because* "many files can be
processed simultaneously", so the extra roundtrips of recursive splitting
cost latency once per collection, not once per file.
:func:`synchronize_batch` is one cohort of the lane rule
(:mod:`repro.net.lanes`): one :class:`~repro.core.protocol.CoreSyncSession`
per file, a combined handshake, the single round engine
(:func:`~repro.core.protocol.run_round`) in lockstep until every lane is
done, and a combined delta/fallback endgame — every message joining the
files' sections on one channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import ProtocolConfig
from repro.core.protocol import CoreSyncSession
from repro.net.channel import SimulatedChannel
from repro.net.lanes import run_lanes
from repro.net.metrics import TransferStats


@dataclass
class BatchReport:
    """Outcome of one batched collection synchronization."""

    stats: TransferStats
    reconstructed: dict[str, bytes] = field(default_factory=dict)
    unchanged_files: list[str] = field(default_factory=list)
    fallback_files: list[str] = field(default_factory=list)
    rounds: int = 0

    @property
    def total_bytes(self) -> int:
        return self.stats.total_bytes

    @property
    def roundtrips(self) -> int:
        return self.stats.roundtrips


def synchronize_batch(
    client_files: dict[str, bytes],
    server_files: dict[str, bytes],
    config: ProtocolConfig | None = None,
    channel: SimulatedChannel | None = None,
    engine: str | None = None,
) -> BatchReport:
    """Synchronise every common file, sharing each roundtrip.

    Files present only on one side are ignored here (the collection layer
    handles adds/removes); both dictionaries must cover the names being
    synchronised.  ``engine`` selects the round engine exactly as in
    :func:`repro.core.protocol.synchronize`.  ``rounds`` counts lockstep
    rounds.
    """
    if config is None:
        config = ProtocolConfig()
    if channel is None:
        channel = SimulatedChannel()

    names = sorted(set(client_files) & set(server_files))
    sessions = [
        CoreSyncSession(
            client_files[name], server_files[name], config, engine=engine
        )
        for name in names
    ]
    for session in sessions:
        session.channel = channel
    results, rounds = run_lanes(channel, sessions)
    return BatchReport(
        stats=channel.stats,
        reconstructed={
            name: result.reconstructed for name, result in zip(names, results)
        },
        unchanged_files=[
            name for name, result in zip(names, results) if result.unchanged
        ],
        fallback_files=[
            name for name, result in zip(names, results) if result.used_fallback
        ],
        rounds=rounds,
    )

"""Batched synchronization: many files share every roundtrip.

The paper's protocols are practical *because* "many files can be
processed simultaneously", so the extra roundtrips of recursive splitting
cost latency once per collection, not once per file.  This module keeps
one :class:`~repro.core.protocol.CoreSyncSession` per changed file and
drives them through the single round engine
(:func:`~repro.core.protocol.run_round`) in lockstep: each round sends
ONE combined hash message for every active file, one combined candidate
bitmap, one combined message per verification batch, and finally one
combined delta message.  Only the handshake and the delta/fallback
endgame have batch-specific framing.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.core.config import ProtocolConfig
from repro.core.protocol import (
    PHASE_DELTA,
    PHASE_FALLBACK,
    PHASE_HANDSHAKE,
    CoreSyncSession,
    run_round,
)
from repro.io.bitstream import BitReader, BitWriter
from repro.net.channel import SimulatedChannel
from repro.net.metrics import Direction, TransferStats


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
    :func:`repro.core.protocol.synchronize`.
    """
    if config is None:
        config = ProtocolConfig()
    if channel is None:
        channel = SimulatedChannel()

    names = sorted(set(client_files) & set(server_files))
    sessions = {
        name: CoreSyncSession(
            client_files[name], server_files[name], config, engine=engine
        )
        for name in names
    }
    report = BatchReport(stats=channel.stats)

    # --- Combined handshake -------------------------------------------
    request = BitWriter()
    for name in names:
        request.write_uvarint(len(client_files[name]))
    channel.send(
        Direction.CLIENT_TO_SERVER, request.getvalue(), PHASE_HANDSHAKE,
        bits=request.bit_length,
    )
    request_reader = BitReader(channel.receive(Direction.CLIENT_TO_SERVER))
    for session in sessions.values():
        session.server.set_client_length(request_reader.read_uvarint())

    hello = BitWriter()
    for name, session in sessions.items():
        hello.write_bytes(session.server.fingerprint())
        hello.write_uvarint(len(server_files[name]))
    channel.send(
        Direction.SERVER_TO_CLIENT, hello.getvalue(), PHASE_HANDSHAKE,
        bits=hello.bit_length,
    )
    hello_reader = BitReader(channel.receive(Direction.SERVER_TO_CLIENT))
    proceed = BitWriter()
    for name, session in sessions.items():
        proceed.write_bit(not session.accept_hello(hello_reader))
        if session.unchanged:
            report.reconstructed[name] = client_files[name]
            report.unchanged_files.append(name)
    channel.send(
        Direction.CLIENT_TO_SERVER, proceed.getvalue(), PHASE_HANDSHAKE,
        bits=proceed.bit_length,
    )
    channel.receive(Direction.CLIENT_TO_SERVER)

    active = {
        name: session for name, session in sessions.items()
        if not session.unchanged
    }

    # --- Lockstep map construction --------------------------------------
    stepping = [session for session in active.values() if not session.done]
    while stepping:
        report.rounds += 1
        run_round(channel, stepping)
        stepping = [session for session in stepping if not session.done]

    # --- Boundary refinement (optional; sequential per file) ------------
    if config.refine_boundaries:
        from repro.core.refine import run_boundary_refinement

        for session in active.values():
            run_boundary_refinement(channel, session.client, session.server)

    # --- Combined delta --------------------------------------------------
    delta_message = BitWriter()
    for session in active.values():
        delta = session.server.emit_delta()
        delta_message.write_uvarint(len(delta))
        delta_message.write_bytes(delta)
    channel.send(
        Direction.SERVER_TO_CLIENT, delta_message.getvalue(), PHASE_DELTA,
        bits=delta_message.bit_length,
    )
    delta_reader = BitReader(channel.receive(Direction.SERVER_TO_CLIENT))
    nack = BitWriter()
    failed: list[str] = []
    for name, session in active.items():
        delta = delta_reader.read_bytes(delta_reader.read_uvarint())
        reconstructed = session.client.apply_delta(delta)
        nack.write_bit(reconstructed is None)
        if reconstructed is None:
            failed.append(name)
        else:
            report.reconstructed[name] = reconstructed
    channel.send(
        Direction.CLIENT_TO_SERVER, nack.getvalue(), PHASE_FALLBACK,
        bits=nack.bit_length,
    )
    channel.receive(Direction.CLIENT_TO_SERVER)
    if failed:
        fallback = BitWriter()
        for name in failed:
            payload = zlib.compress(server_files[name], 9)
            fallback.write_uvarint(len(payload))
            fallback.write_bytes(payload)
        channel.send(
            Direction.SERVER_TO_CLIENT, fallback.getvalue(), PHASE_FALLBACK,
            bits=fallback.bit_length,
        )
        fallback_reader = BitReader(channel.receive(Direction.SERVER_TO_CLIENT))
        for name in failed:
            payload = fallback_reader.read_bytes(fallback_reader.read_uvarint())
            report.reconstructed[name] = zlib.decompress(payload)
            report.fallback_files.append(name)

    report.reconstructed = {name: report.reconstructed[name] for name in names}
    return report

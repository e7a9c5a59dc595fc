"""Pipelined round scheduler: many files' protocol rounds on one channel.

The sequential collection path runs each changed file's protocol to
completion before starting the next, so a collection pays the link's
round-trip latency once per round *per file*.  The paper's deployment
model batches many files into each roundtrip instead; this module is the
scheduler that realises it.  Each changed file gets a resumable
step-wise session (``start``/``done``/``step_round``/``finish`` — see
:class:`~repro.core.protocol.CoreSyncSession` and
:class:`~repro.multiround.protocol.MultiroundSession`) running over a
*private* :class:`RecordingChannel`, which keeps its wire transcript and
byte accounting bit-identical to a sequential run.  The
:class:`CollectionScheduler` drives up to ``window`` sessions
concurrently, coalescing each wave's outbound messages into shared
multiplexed batches (:func:`~repro.net.frame.encode_mux_batch`) on one
:class:`~repro.net.channel.SimulatedChannel`, whose direction-reversal
count — and therefore the modelled propagation cost — collapses by
roughly the window factor.

Round checkpoints compose: private channels replay the exact sequential
traffic, so journals written under the pipelined scheduler are
interchangeable with sequential ones (both directions of a crashed run
can resume under the other scheduler).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.collection.options import SyncOptions
from repro.exceptions import ProtocolError
from repro.net.channel import LinkModel, SimulatedChannel
from repro.net.frame import (
    MuxSubframe,
    decode_mux_batch,
    encode_mux_batch,
    mux_overhead_bytes,
)
from repro.net.metrics import Direction, TransferStats
from repro.syncmethod import MethodOutcome, SyncMethod, wire_outcome

__all__ = ["CollectionScheduler", "PipelineRun", "RecordingChannel"]

#: Phase tag carried by every multiplexed batch on the shared channel.
MUX_PHASE = "mux"


class RecordingChannel(SimulatedChannel):
    """A :class:`SimulatedChannel` that logs every outbound message.

    The per-file lanes of the pipelined scheduler run on one of these:
    the session sees a perfectly ordinary channel (stats, queues and
    roundtrip counting are untouched, so per-file accounting matches the
    sequential run bit-for-bit), while the scheduler drains ``outbox``
    after every step to mirror the traffic onto the shared multiplexed
    link.  ``transcript`` keeps the full message log for parity checks.
    """

    def __init__(self, link: LinkModel | None = None) -> None:
        super().__init__(link)
        #: Messages sent since the last :meth:`drain_outbox` call.
        self.outbox: list[tuple[Direction, bytes, str, int]] = []
        #: Every message ever sent, in order.
        self.transcript: list[tuple[Direction, bytes, str, int]] = []

    def send(
        self,
        direction: Direction,
        payload: bytes,
        phase: str,
        bits: int | None = None,
    ) -> None:
        super().send(direction, payload, phase, bits)
        entry = (
            direction,
            payload,
            phase,
            bits if bits is not None else 8 * len(payload),
        )
        self.outbox.append(entry)
        self.transcript.append(entry)

    def drain_outbox(self) -> list[tuple[Direction, bytes, str, int]]:
        """Return the messages sent since the last drain and reset it."""
        wave, self.outbox = self.outbox, []
        return wave


@dataclass
class _Lane:
    """One in-flight file: its session, private channel and accounting."""

    name: str
    stream_id: int
    old: bytes
    new: bytes
    channel: RecordingChannel
    session: object | None = None
    journal: object | None = None
    resume_state: object | None = None
    resume_handshake_bits: int = 0
    elapsed_s: float = 0.0
    outcome: MethodOutcome | None = None
    reconstructed: bytes | None = None

    @property
    def finished(self) -> bool:
        return self.outcome is not None


@dataclass
class PipelineRun:
    """Everything a pipelined scheduling pass produced.

    ``link_wall_clock_s`` is the modelled wall clock of the *shared*
    channel (serialization of payload + mux framing, plus two one-way
    latencies per direction reversal) — the figure the sequential path
    computes from per-file counters instead, so the two are directly
    comparable.
    """

    per_file: dict[str, MethodOutcome] = field(default_factory=dict)
    per_file_seconds: dict[str, float] = field(default_factory=dict)
    reconstructed: dict[str, bytes] = field(default_factory=dict)
    transcripts: dict[str, list] = field(default_factory=dict)
    waves: int = 0
    mux_overhead_bytes: int = 0
    roundtrips_on_wire: int = 0
    link_wall_clock_s: float = 0.0
    shared_stats: TransferStats = field(default_factory=TransferStats)


class CollectionScheduler:
    """Drive up to ``window`` per-file sessions round-by-round.

    Every wave runs one step of each in-flight session (handshake, one
    protocol round, or the endgame) on its private channel, then flushes
    the wave's outbound messages onto the shared channel as multiplexed
    batches: slot ``j`` carries message ``j`` of every lane's step,
    grouped by direction (client→server first), one shared send per
    direction group.  Homogeneous files therefore cost the shared link
    one lane's worth of direction reversals per wave instead of one per
    lane — the latency-hiding the paper's batching model assumes.

    The decoded batches are checked against the lanes' originals on
    every flush, so "per-file transcripts bit-identical modulo
    interleaving" is enforced at runtime, not just in tests.
    """

    def __init__(
        self,
        method: SyncMethod,
        window: int = 8,
        link: LinkModel | None = None,
        checkpoints=None,
    ) -> None:
        SyncOptions(pipeline=True, window=window).validate(method)
        self.method = method
        self.window = window
        self.link = link or LinkModel()
        self.checkpoints = checkpoints
        self.shared = SimulatedChannel(self.link)
        self.waves = 0
        self.mux_overhead = 0

    # ------------------------------------------------------------------
    def run(self, files: list[tuple[str, bytes, bytes]]) -> PipelineRun:
        """Synchronise ``(name, old, new)`` triples; return the accounting."""
        pending = [
            _Lane(name, stream_id, old, new, RecordingChannel(self.link))
            for stream_id, (name, old, new) in enumerate(files)
        ]
        run = PipelineRun()
        active: list[_Lane] = []
        cursor = 0
        while cursor < len(pending) or active:
            while cursor < len(pending) and len(active) < self.window:
                active.append(pending[cursor])
                cursor += 1
            self.waves += 1
            self.shared.mark_round(self.waves)
            wave: list[tuple[_Lane, list]] = []
            for lane in active:
                started = time.perf_counter()
                self._step_lane(lane)
                lane.elapsed_s += time.perf_counter() - started
                wave.append((lane, lane.channel.drain_outbox()))
            self._flush_wave(wave)
            for lane in active:
                if lane.finished:
                    run.per_file[lane.name] = lane.outcome
                    run.per_file_seconds[lane.name] = lane.elapsed_s
                    run.reconstructed[lane.name] = lane.reconstructed
                    run.transcripts[lane.name] = lane.channel.transcript
            active = [lane for lane in active if not lane.finished]
        run.waves = self.waves
        run.mux_overhead_bytes = self.mux_overhead
        run.shared_stats = self.shared.stats
        run.roundtrips_on_wire = self.shared.stats.roundtrips
        run.link_wall_clock_s = self.link.transfer_seconds(
            self.shared.stats.client_to_server_bytes,
            self.shared.stats.server_to_client_bytes,
            self.shared.stats.roundtrips,
        )
        return run

    # ------------------------------------------------------------------
    def _step_lane(self, lane: _Lane) -> None:
        """Advance one lane by exactly one schedulable step."""
        if lane.session is None:
            # Admission: open the journal (checkpoint flow mirrors the
            # sequential supervisor's, so outcomes and journals match),
            # run the resume handshake, then the protocol handshake.
            if (
                self.checkpoints is not None
                and self.method.supports_checkpoint
            ):
                from repro.resilience.recovery import attempt_resume

                lane.journal = self.checkpoints.journal(lane.name)
                identity = self.method.checkpoint_identity(lane.old, lane.new)
                lane.journal.open(identity, resume=self.checkpoints.resume)
                lane.resume_state, lane.resume_handshake_bits = attempt_resume(
                    lane.journal, identity, lane.channel
                )
            lane.session = self.method.open_session(
                lane.old, lane.new, checkpointer=lane.journal
            )
            lane.session.start(lane.channel, resume_from=lane.resume_state)
        elif not lane.session.done:
            lane.session.step_round(lane.channel)
        else:
            result = lane.session.finish(lane.channel)
            outcome = wire_outcome(result, lane.new)
            outcome.resume_handshake_bits += lane.resume_handshake_bits
            if lane.resume_state is not None:
                outcome.rounds_salvaged += lane.resume_state.round_index
            if lane.journal is not None:
                outcome.checkpoint_bytes_written += lane.journal.bytes_written
                lane.journal.commit()
            lane.outcome = outcome
            lane.reconstructed = result.reconstructed

    # ------------------------------------------------------------------
    def _flush_wave(self, wave: list[tuple[_Lane, list]]) -> None:
        """Mirror a wave's private-channel traffic onto the shared link."""
        depth = max((len(messages) for _lane, messages in wave), default=0)
        for slot in range(depth):
            present = [
                (lane, messages[slot])
                for lane, messages in wave
                if slot < len(messages)
            ]
            for direction in (
                Direction.CLIENT_TO_SERVER,
                Direction.SERVER_TO_CLIENT,
            ):
                group = [
                    (lane, message)
                    for lane, message in present
                    if message[0] is direction
                ]
                if not group:
                    continue
                subframes = [
                    MuxSubframe(
                        stream_id=lane.stream_id,
                        round_index=lane.channel.current_round,
                        seq=slot,
                        bit_length=bits,
                        payload=payload,
                    )
                    for lane, (_direction, payload, _phase, bits) in group
                ]
                batch = encode_mux_batch(subframes)
                self.shared.send(direction, batch, MUX_PHASE)
                decoded = decode_mux_batch(self.shared.receive(direction))
                if [
                    (sub.stream_id, sub.bit_length, sub.payload)
                    for sub in decoded
                ] != [
                    (sub.stream_id, sub.bit_length, sub.payload)
                    for sub in subframes
                ]:
                    raise ProtocolError(
                        "multiplexed batch did not round-trip bit-identically"
                    )
                self.mux_overhead += mux_overhead_bytes(batch, subframes)

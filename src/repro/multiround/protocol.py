"""The multiround-rsync exchange.

Per round (block size ``b``, halving):

1. client → server: one hash per *active* client block (a fixed-width
   truncated hash; no separate verification pass — the width must carry
   the full confidence, which is exactly the inefficiency the paper's
   optimized verification removes);
2. server: matches each hash against every position of ``F_new`` (numpy
   index) and replies with a bitmap; matched blocks are pinned to their
   server position, unmatched blocks split for the next round.

After the final round the server covers ``F_new`` with pinned client
blocks where possible and compressed literals elsewhere, and the client
reconstructs.  A whole-file checksum detects hash collisions; a
surgical repair round (:mod:`repro.core.repair`) localizes and
re-fetches only the divergent blocks, with the full-transfer fallback
reserved for damage repair cannot cure.

Checkpointing: the state both endpoints carry across a round boundary is
tiny and flat — the active block frontier, the pinned matches, and the
round index — so ``multiround_rsync_sync`` can snapshot it after every
completed round (``checkpointer``) and continue from such a snapshot
(``resume_from``) instead of restarting a torn session from round 0.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.core.blocks import Block, BlockStatus
from repro.core.engine import resolve_engine
from repro.core.repair import (
    DEFAULT_REPAIR_FANOUT,
    PHASE_REPAIR,
    repair_exchange,
)
from repro.exceptions import DeltaFormatError, SyncStalledError
from repro.hashing.decomposable import DecomposableAdler
from repro.hashing.scan import HashIndex, PrefixHasher, pack_to_width
from repro.hashing.strong import file_fingerprint
from repro.io.bitstream import BitReader, BitWriter
from repro.io.varint import decode_uvarint, encode_uvarint
from repro.net.channel import SimulatedChannel
from repro.net.lanes import exchange
from repro.net.metrics import Direction, TransferStats
from repro.parallel.cache import HashIndexCache, default_cache

PHASE_HANDSHAKE = "handshake"
PHASE_MAP = "map"
PHASE_DELTA = "delta"
PHASE_FALLBACK = "fallback"

_TOKEN_LITERAL = 0x00
_TOKEN_BLOCK = 0x01

#: The client's verdict on the reconstruction, sent as its own 1- or
#: 2-bit message by a lone session (the value is the payload byte).
_STATUS_OK = 0
_STATUS_FALLBACK = 1
_STATUS_REPAIR = 2
_STATUS_BITS = {_STATUS_OK: 1, _STATUS_FALLBACK: 1, _STATUS_REPAIR: 2}
_STATUS_PHASE = {
    _STATUS_OK: PHASE_FALLBACK,
    _STATUS_FALLBACK: PHASE_FALLBACK,
    _STATUS_REPAIR: PHASE_REPAIR,
}


@dataclass(frozen=True)
class MultiroundConfig:
    """Tunables of the multiround baseline.

    ``max_rounds`` is a *circuit*, not a byte/latency trade like the core
    protocol's graceful cap: a healthy session always converges within
    ``log2(start/min) + 1`` rounds, so exceeding the limit means the
    round state machine is stuck (adversarial corruption, a resume from
    a forged checkpoint, a bug) and the session fails with a typed
    :class:`~repro.exceptions.SyncStalledError` instead of looping.
    ``None`` uses a generous default ceiling well above any legitimate
    round count.
    """

    start_block_size: int = 2048
    min_block_size: int = 64
    hash_bits: int = 30  # must carry all confidence: no verification pass
    hash_seed: int = 1
    max_rounds: int | None = None
    #: Attempt a surgical repair round on fingerprint mismatch before
    #: surrendering to the full-transfer fallback.
    repair: bool = True
    repair_fanout: int = DEFAULT_REPAIR_FANOUT

    def __post_init__(self) -> None:
        if self.min_block_size < 2:
            raise ValueError("min_block_size must be >= 2")
        if self.start_block_size < self.min_block_size:
            raise ValueError("start_block_size must be >= min_block_size")
        if not 8 <= self.hash_bits <= 32:
            raise ValueError("hash_bits must be in [8, 32]")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.repair_fanout < 2:
            raise ValueError("repair_fanout must be >= 2")

    @property
    def round_limit(self) -> int:
        """The effective stall ceiling (``max_rounds`` or the default)."""
        if self.max_rounds is not None:
            return self.max_rounds
        return self.start_block_size.bit_length() + 2


@dataclass
class MultiroundResult:
    """Outcome of one multiround-rsync run.

    ``collisions_detected`` counts whole-file fingerprint rejections (0
    or 1 per run); ``repaired`` means the surgical repair rounds fixed
    the divergence in place (``repair_rounds`` descent roundtrips,
    ``repair_bytes`` on the wire).  ``used_fallback`` still means a full
    compressed transfer happened.
    """

    reconstructed: bytes
    stats: TransferStats
    rounds: int
    used_fallback: bool
    collisions_detected: int = 0
    repaired: bool = False
    repair_rounds: int = 0
    repair_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return self.stats.total_bytes


@dataclass
class _Pinned:
    """A client block confirmed to occur in the server file."""

    client_start: int
    length: int
    server_start: int


def _initial_blocks(length: int, block_size: int) -> list[Block]:
    blocks = []
    offset = 0
    while offset < length:
        size = min(block_size, length - offset)
        blocks.append(Block(start=offset, length=size, level=0))
        offset += size
    return blocks


def encode_round_state(
    expected_fingerprint: bytes, blocks: list[Block], pinned: list[_Pinned]
) -> bytes:
    """Serialize the cross-round reconciliation state (varint format)."""
    out = bytearray()
    out += expected_fingerprint
    out += encode_uvarint(len(blocks))
    for block in blocks:
        out += encode_uvarint(block.start)
        out += encode_uvarint(block.length)
    out += encode_uvarint(len(pinned))
    for pin in pinned:
        out += encode_uvarint(pin.client_start)
        out += encode_uvarint(pin.length)
        out += encode_uvarint(pin.server_start)
    return bytes(out)


def decode_round_state(
    payload: bytes,
) -> tuple[bytes, list[Block], list[_Pinned]]:
    """Inverse of :func:`encode_round_state`."""
    expected_fingerprint = payload[:16]
    offset = 16
    count, offset = decode_uvarint(payload, offset)
    blocks = []
    for _ in range(count):
        start, offset = decode_uvarint(payload, offset)
        length, offset = decode_uvarint(payload, offset)
        blocks.append(Block(start=start, length=length, level=0))
    count, offset = decode_uvarint(payload, offset)
    pinned = []
    for _ in range(count):
        client_start, offset = decode_uvarint(payload, offset)
        length, offset = decode_uvarint(payload, offset)
        server_start, offset = decode_uvarint(payload, offset)
        pinned.append(_Pinned(client_start, length, server_start))
    return expected_fingerprint, blocks, pinned


class MultiroundSession:
    """Resumable step-wise state machine for one multiround exchange.

    Splits :func:`multiround_rsync_sync` into schedulable pieces without
    changing a bit on the wire: the driver loop below replays the exact
    send/receive sequence of the former run-to-completion function.

    Lifecycle::

        session.start(channel, resume_from=...)   # handshake or restore
        while not session.done:
            session.step_round(channel)           # exactly one round
        result = session.finish(channel)          # delta + integrity

    The lane functions :meth:`start_lanes`, :meth:`run_round` and
    :meth:`finish_lanes` run a cohort of sessions on one shared channel
    (:func:`~repro.net.lanes.run_lanes`); with one lane, the first two
    are exactly :meth:`start` and :meth:`step_round`.

    Every completed round is checkpointed through ``checkpointer`` (when
    given) with the same :func:`encode_round_state` payloads as before,
    so checkpoints stay interchangeable between schedulers and engines.
    """

    def __init__(
        self,
        old_data: bytes,
        new_data: bytes,
        config: MultiroundConfig | None = None,
        checkpointer=None,
        engine: str | None = None,
    ) -> None:
        self.old_data = old_data
        self.new_data = new_data
        self.config = config or MultiroundConfig()
        self.checkpointer = checkpointer
        self.engine = resolve_engine(engine)
        #: Accounting channel: the channel given to :meth:`start`, or the
        #: lane channel a cohort driver assigns (:mod:`repro.net.lanes`).
        self.channel: SimulatedChannel | None = None
        self.rounds = 0
        self.pinned: list[_Pinned] = []
        self.expected_fingerprint = b""
        self._started = False
        self._hasher = DecomposableAdler(seed=self.config.hash_seed)
        self._client_prefix = PrefixHasher(old_data, self._hasher)
        self._server_fingerprint = file_fingerprint(new_data)
        self._index_cache: HashIndexCache = default_cache()
        self._server_indexes: dict[int, HashIndex] = {}
        # Engine-specific frontier: Block objects (scalar) or two int64
        # arrays (vectorized); both advance in the same interleaved
        # left/right order Block.split produces.
        self._blocks: list[Block] = []
        self._starts = np.empty(0, dtype=np.int64)
        self._lengths = np.empty(0, dtype=np.int64)
        # Server positions of this round's matches (for _advance).
        self._positions: list[int] | np.ndarray = []

    def _server_index(self, length: int) -> HashIndex:
        """Per-session memo over the shared content-keyed index cache."""
        index = self._server_indexes.get(length)
        if index is None:
            if length > len(self.new_data):
                # No window of this length exists; an empty index, built
                # without scanning the data (and without a cache slot).
                index = HashIndex(b"", length, self._hasher)
            else:
                index = self._index_cache.hash_index(
                    self.new_data,
                    length,
                    self._hasher,
                    fingerprint=self._server_fingerprint,
                )
            self._server_indexes[length] = index
        return index

    # ------------------------------------------------------------------
    def start(self, channel: SimulatedChannel, resume_from=None) -> None:
        """Run the handshake, or restore a checkpointed round boundary."""
        self.channel = channel
        if resume_from is None:
            MultiroundSession.start_lanes(channel, [self])
            return
        self.expected_fingerprint, blocks, self.pinned = decode_round_state(
            resume_from.payload
        )
        self.rounds = resume_from.round_index
        self._begin(blocks)

    @staticmethod
    def start_lanes(
        channel: SimulatedChannel, sessions: "list[MultiroundSession]"
    ) -> None:
        """Handshake: the server fingerprints (for the final integrity
        check) joined in one message.  Sessions already started (resumed
        from a checkpoint) take no part."""
        fresh = [session for session in sessions if not session._started]
        fingerprints = exchange(
            channel,
            Direction.SERVER_TO_CLIENT,
            PHASE_HANDSHAKE,
            [session.channel for session in fresh],
            [(session._server_fingerprint, 128) for session in fresh],
        )
        for session, fingerprint in zip(fresh, fingerprints):
            session.expected_fingerprint = fingerprint
            session.pinned = []
            session.rounds = 0
            session._begin(
                _initial_blocks(
                    len(session.old_data), session.config.start_block_size
                )
            )

    def _begin(self, blocks: list[Block]) -> None:
        if self.engine == "scalar":
            self._blocks = blocks
        else:
            self._starts = np.fromiter(
                (b.start for b in blocks), dtype=np.int64, count=len(blocks)
            )
            self._lengths = np.fromiter(
                (b.length for b in blocks), dtype=np.int64, count=len(blocks)
            )
        self._started = True

    @property
    def active_blocks(self) -> int:
        """Blocks still on the reconciliation frontier."""
        if self.engine == "scalar":
            return len(self._blocks)
        return int(self._starts.size)

    @property
    def done(self) -> bool:
        """True when no rounds remain (ready for :meth:`finish`)."""
        return self._started and self.active_blocks == 0

    def _frontier_state(self) -> bytes:
        if self.engine == "scalar":
            frontier = self._blocks
        else:
            frontier = [
                Block(start=start, length=length, level=0)
                for start, length in zip(
                    self._starts.tolist(), self._lengths.tolist()
                )
            ]
        return encode_round_state(
            self.expected_fingerprint, frontier, self.pinned
        )

    # ------------------------------------------------------------------
    def step_round(self, channel: SimulatedChannel) -> None:
        """Execute exactly one hash/bitmap round, checkpoint included."""
        MultiroundSession.run_round(channel, [self])

    @staticmethod
    def run_round(
        channel: SimulatedChannel, sessions: "list[MultiroundSession]"
    ) -> None:
        """One round over ``sessions`` in lockstep: the client hashes
        joined in one message, the server bitmaps in its reply, then
        each session's frontier split and round checkpoint."""
        for session in sessions:
            if not session._started:
                raise ValueError("step_round before start()")
            round_limit = session.config.round_limit
            session.rounds += 1
            if session.rounds > round_limit:
                raise SyncStalledError(
                    f"multiround session still has {session.active_blocks} "
                    f"active blocks after {round_limit} rounds — frontier "
                    f"is not converging"
                )
        channel.mark_round(max(session.rounds for session in sessions))
        ledgers = [session.channel for session in sessions]
        hashes = exchange(
            channel, Direction.CLIENT_TO_SERVER, PHASE_MAP, ledgers,
            [session._client_hashes() for session in sessions],
        )
        bitmaps = exchange(
            channel, Direction.SERVER_TO_CLIENT, PHASE_MAP, ledgers,
            [
                session._server_matches(BitReader(section))
                for session, section in zip(sessions, hashes)
            ],
        )
        for session, bitmap in zip(sessions, bitmaps):
            # Both sides advance identically from the bitmap.
            session._advance(BitReader(bitmap))
            if session.checkpointer is not None:
                session.checkpointer.record_round(
                    session.rounds,
                    session._frontier_state(),
                    session.channel.stats,
                )

    def _client_hashes(self) -> tuple[bytes, int]:
        """Client: one fixed-width hash per active block."""
        hash_bits = self.config.hash_bits
        message = BitWriter()
        if self.engine == "scalar":
            # Parity oracle: the original block-at-a-time loop.
            for block in self._blocks:
                message.write(
                    DecomposableAdler.pack(
                        self._client_prefix.block_pair(block.start, block.length),
                        hash_bits,
                    ),
                    hash_bits,
                )
        else:
            message.write_many(
                pack_to_width(
                    self._client_prefix.block_pairs(self._starts, self._lengths),
                    hash_bits,
                ),
                hash_bits,
            )
        return message.getvalue(), message.bit_length

    def _server_matches(self, reader: BitReader) -> tuple[bytes, int]:
        """Server: look every hash up in ``F_new``; reply with a bitmap
        and keep the matched server positions for :meth:`_advance`."""
        hash_bits = self.config.hash_bits
        bitmap = BitWriter()
        if self.engine == "scalar":
            self._positions = []
            for block in self._blocks:
                positions = self._server_index(block.length).lookup(
                    reader.read(hash_bits), hash_bits, max_results=1
                )
                bitmap.write_bit(bool(positions))
                if positions:
                    self._positions.append(positions[0])
        else:
            lengths = self._lengths
            values = reader.read_many(int(lengths.size), hash_bits)
            self._positions = np.full(lengths.size, -1, dtype=np.int64)
            for length in np.unique(lengths).tolist():
                rows = np.flatnonzero(lengths == length)
                self._positions[rows] = self._server_index(length).lookup_many(
                    values[rows], hash_bits
                )
            bitmap.write_flags(self._positions >= 0)
        return bitmap.getvalue(), bitmap.bit_length

    def _advance(self, confirm: BitReader) -> None:
        """Pin the matched blocks, split the rest for the next round."""
        min_block_size = self.config.min_block_size
        if self.engine == "scalar":
            next_blocks: list[Block] = []
            matches = iter(self._positions)
            for block in self._blocks:
                if confirm.read_bit():
                    self.pinned.append(
                        _Pinned(block.start, block.length, next(matches))
                    )
                    block.status = BlockStatus.MATCHED
                elif block.length // 2 >= min_block_size:
                    next_blocks.extend(block.split())
                else:
                    block.status = BlockStatus.EXHAUSTED
            self._blocks = next_blocks
            return
        starts, lengths = self._starts, self._lengths
        flags = confirm.read_flags(int(starts.size))
        self.pinned.extend(
            _Pinned(client_start, length, server_start)
            for client_start, length, server_start in zip(
                starts[flags].tolist(),
                lengths[flags].tolist(),
                self._positions[flags].tolist(),
            )
        )
        split = ~flags & (lengths // 2 >= min_block_size)
        split_starts = starts[split]
        split_lengths = lengths[split]
        left_lengths = (split_lengths + 1) // 2
        self._starts = np.empty(2 * split_starts.size, dtype=np.int64)
        self._lengths = np.empty(2 * split_starts.size, dtype=np.int64)
        self._starts[0::2] = split_starts
        self._starts[1::2] = split_starts + left_lengths
        self._lengths[0::2] = left_lengths
        self._lengths[1::2] = split_lengths - left_lengths

    # ------------------------------------------------------------------
    def finish(self, channel: SimulatedChannel) -> MultiroundResult:
        """Delta covering, reconstruction, and the integrity endgame."""
        channel.send(Direction.SERVER_TO_CLIENT, self._emit_delta(), PHASE_DELTA)
        reconstructed = self._reconstruct(
            channel.receive(Direction.SERVER_TO_CLIENT)
        )
        status = self._status(reconstructed)
        channel.send(
            Direction.CLIENT_TO_SERVER,
            bytes([status]),
            _STATUS_PHASE[status],
            bits=_STATUS_BITS[status],
        )
        channel.receive(Direction.CLIENT_TO_SERVER)
        return self._settle(reconstructed, status)

    @staticmethod
    def finish_lanes(
        channel: SimulatedChannel, sessions: "list[MultiroundSession]"
    ) -> list[MultiroundResult]:
        """Combined endgame: one joined message of length-prefixed
        deltas, one of 2-bit status codes (each lane is charged its own
        one-lane status message), then the repair and fallback exchanges
        one lane at a time in lane order."""
        deltas = exchange(
            channel, Direction.SERVER_TO_CLIENT, PHASE_DELTA,
            [session.channel for session in sessions],
            [
                (delta, 8 * len(delta))
                for delta in (session._emit_delta() for session in sessions)
            ],
            prefixed=True,
        )
        reconstructed = [
            session._reconstruct(delta) for session, delta in zip(sessions, deltas)
        ]
        statuses = [
            session._status(data) for session, data in zip(sessions, reconstructed)
        ]
        codes = BitWriter()
        for status in statuses:
            codes.write(status, 2)
        channel.send(
            Direction.CLIENT_TO_SERVER, codes.getvalue(), PHASE_FALLBACK,
            bits=codes.bit_length,
        )
        for session, status in zip(sessions, statuses):
            if session.channel is not channel:
                session.channel.charge(
                    Direction.CLIENT_TO_SERVER,
                    bytes([status]),
                    _STATUS_PHASE[status],
                    _STATUS_BITS[status],
                )
        channel.receive(Direction.CLIENT_TO_SERVER)
        return [
            session._settle(data, status)
            for session, data, status in zip(sessions, reconstructed, statuses)
        ]

    def _emit_delta(self) -> bytes:
        """Server: cover ``F_new`` with pinned client blocks + literals."""
        new_data = self.new_data
        by_server_position = sorted(
            self.pinned, key=lambda p: (p.server_start, -p.length)
        )
        tokens = bytearray()
        literals_pending = bytearray()
        cursor = 0

        def flush_literals() -> None:
            nonlocal literals_pending
            if literals_pending:
                tokens.append(_TOKEN_LITERAL)
                tokens.extend(encode_uvarint(len(literals_pending)))
                tokens.extend(literals_pending)
                literals_pending = bytearray()

        for pin in by_server_position:
            if pin.server_start < cursor:
                continue  # overlaps something already covered
            if pin.server_start > cursor:
                literals_pending.extend(new_data[cursor : pin.server_start])
            flush_literals()
            tokens.append(_TOKEN_BLOCK)
            tokens.extend(encode_uvarint(pin.client_start))
            tokens.extend(encode_uvarint(pin.length))
            cursor = pin.server_start + pin.length
        if cursor < len(new_data):
            literals_pending.extend(new_data[cursor:])
        flush_literals()
        return zlib.compress(bytes(tokens), 9)

    def _reconstruct(self, delta: bytes) -> bytes:
        """Client: decode the delta (empty on decode damage)."""
        raw = zlib.decompress(delta)
        out = bytearray()
        position = 0
        try:
            while position < len(raw):
                kind = raw[position]
                position += 1
                if kind == _TOKEN_LITERAL:
                    length, position = decode_uvarint(raw, position)
                    out += raw[position : position + length]
                    position += length
                elif kind == _TOKEN_BLOCK:
                    client_start, position = decode_uvarint(raw, position)
                    length, position = decode_uvarint(raw, position)
                    out += self.old_data[client_start : client_start + length]
                else:
                    raise DeltaFormatError(f"unknown token {kind:#x}")
        except DeltaFormatError:
            out = bytearray()  # force the fallback
        return bytes(out)

    def _status(self, reconstructed: bytes) -> int:
        """Client verdict on the reconstruction: accept, repair or fall
        back."""
        if file_fingerprint(reconstructed) == self.expected_fingerprint:
            return _STATUS_OK
        # A truncated-hash collision preserves lengths; anything else
        # (decode damage) is not surgically repairable.
        if (
            self.config.repair
            and self.new_data
            and len(reconstructed) == len(self.new_data)
        ):
            return _STATUS_REPAIR
        return _STATUS_FALLBACK

    def _settle(self, reconstructed: bytes, status: int) -> MultiroundResult:
        """Repair and fallback exchanges after the status message, on
        this session's channel."""
        channel, config, new_data = self.channel, self.config, self.new_data
        repaired = False
        repair_rounds = 0
        repair_bytes = 0
        if status == _STATUS_REPAIR:
            outcome = repair_exchange(
                channel,
                reconstructed,
                new_data,
                self.expected_fingerprint,
                leaf_size=config.min_block_size,
                fanout=config.repair_fanout,
            )
            repair_rounds = outcome.rounds
            repair_bytes = channel.stats.bytes_in_phase(PHASE_REPAIR)
            if outcome.converged:
                reconstructed = outcome.data
                repaired = True
            else:
                channel.send(
                    Direction.CLIENT_TO_SERVER, b"\x01", PHASE_FALLBACK, bits=1
                )
                channel.receive(Direction.CLIENT_TO_SERVER)
        used_fallback = status != _STATUS_OK and not repaired
        if used_fallback:
            channel.send(
                Direction.SERVER_TO_CLIENT, zlib.compress(new_data, 9),
                PHASE_FALLBACK,
            )
            reconstructed = zlib.decompress(
                channel.receive(Direction.SERVER_TO_CLIENT)
            )
            # The NACK plus the whole compressed file — and any repair
            # descent that failed to converge — is recovery traffic, not
            # first-try payload.
            channel.stats.reclassify_phase_as_retransmission(PHASE_FALLBACK)
            channel.stats.reclassify_phase_as_retransmission(PHASE_REPAIR)
        return MultiroundResult(
            reconstructed=reconstructed,
            stats=channel.stats,
            rounds=self.rounds,
            used_fallback=used_fallback,
            collisions_detected=int(status != _STATUS_OK),
            repaired=repaired,
            repair_rounds=repair_rounds,
            repair_bytes=repair_bytes,
        )


def multiround_rsync_sync(
    old_data: bytes,
    new_data: bytes,
    config: MultiroundConfig | None = None,
    channel: SimulatedChannel | None = None,
    checkpointer=None,
    resume_from=None,
    engine: str | None = None,
) -> MultiroundResult:
    """Synchronise ``old_data`` to ``new_data`` with multiround rsync.

    ``checkpointer`` (a
    :class:`~repro.resilience.checkpoint.SessionJournal`, already opened)
    records the reconciliation state after every completed round;
    ``resume_from`` (a
    :class:`~repro.resilience.checkpoint.RoundCheckpoint`) continues from
    such a record, skipping the handshake and every already-paid-for
    round.  A resumed call assumes the caller seeded ``channel.stats``
    with the checkpoint's counters (the supervisor's resume handshake
    does), so the returned stats describe the whole logical session.

    ``engine`` selects the round engine (``"vectorized"`` | ``"scalar"``,
    ``None`` = the ``REPRO_PROTOCOL_ENGINE`` environment default).  Both
    engines put byte-identical traffic on the wire and record
    bit-identical round checkpoints, so a checkpoint written by one
    engine resumes cleanly under the other.

    This is the one-lane driver over :class:`MultiroundSession`; pipelined
    collection sync runs the same sessions in cohorts through the lane
    functions.
    """
    if channel is None:
        channel = SimulatedChannel()
    session = MultiroundSession(
        old_data, new_data, config, checkpointer=checkpointer, engine=engine
    )
    session.start(channel, resume_from=resume_from)
    while not session.done:
        session.step_round(channel)
    return session.finish(channel)

"""Orchestration of one file synchronization over the simulated channel.

:func:`synchronize` drives both endpoints through the full exchange:

1. handshake (client file length →; server fingerprint + file length ←);
2. rounds of map construction — per block size, an optional continuation
   sub-phase followed by a global sub-phase, each consisting of a hash
   message, a candidate bitmap, and the verification batches of the
   configured group-testing strategy;
3. the final delta, checked against the whole-file fingerprint, with a
   compressed full transfer as the (accounted) fallback.

Both sessions evolve mirrored block trees; any divergence is a bug and
raises :class:`~repro.exceptions.ProtocolError` immediately.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.blocks import Block, HashAssignment, HashKind
from repro.core.client import Candidate, ClientSession
from repro.core.config import ProtocolConfig
from repro.core.engine import resolve_engine
from repro.core.planning import (
    apply_known_hashes,
    plan_continuation,
    plan_global,
    plan_mixed,
)
from repro.core.server import ServerSession
from repro.core.trace import SubphaseTrace
from repro.core.verification import VerificationPools, make_units
from repro.exceptions import ProtocolError, SyncStalledError
from repro.io.bitstream import BitReader, BitWriter
from repro.net.channel import SimulatedChannel
from repro.net.lanes import exchange
from repro.net.metrics import Direction, TransferStats

PHASE_HANDSHAKE = "handshake"
PHASE_MAP = "map"
PHASE_DELTA = "delta"
PHASE_FALLBACK = "fallback"

#: Hard stall circuit for map construction.  A healthy session's round
#: count is bounded by the block-split depth (~log2 of the file size, so
#: < 64 even for exabyte files); hitting this ceiling means the frontier
#: stopped converging (adversarial corruption, a forged resume, a bug)
#: and the session dies with a typed error instead of looping.  Distinct
#: from ``config.max_rounds``, which is a *graceful* byte/latency cap.
_STALL_ROUND_LIMIT = 96


@dataclass
class SyncResult:
    """Outcome of one synchronization run."""

    reconstructed: bytes
    stats: TransferStats
    unchanged: bool
    used_fallback: bool
    matched_blocks: int
    known_fraction: float
    rounds: int
    #: Continuation-hash bookkeeping: how many continuation hashes found
    #: a candidate, and how many of those were confirmed.  Their ratio is
    #: the paper's "harvest rate" (high for continuation hashes, which is
    #: why they remain profitable at tiny block sizes).
    continuation_candidates: int = 0
    continuation_accepted: int = 0
    #: Per-sub-phase instrumentation; populated when the config sets
    #: ``collect_trace=True``.
    trace: "list[SubphaseTrace]" = field(default_factory=list)

    @property
    def continuation_harvest_rate(self) -> float:
        """Confirmed fraction of continuation candidates (1.0 if none)."""
        if self.continuation_candidates == 0:
            return 1.0
        return self.continuation_accepted / self.continuation_candidates

    @property
    def total_bytes(self) -> int:
        return self.stats.total_bytes

    @property
    def map_bytes(self) -> int:
        return self.stats.bytes_in_phase(PHASE_MAP)

    @property
    def delta_bytes(self) -> int:
        return self.stats.bytes_in_phase(PHASE_DELTA)


def _check_plans_match(
    server_plan: list[HashAssignment], client_plan: list[HashAssignment]
) -> None:
    """Defensive mirror check (free in-process; a real deployment relies
    on determinism alone)."""
    if len(server_plan) != len(client_plan):
        raise ProtocolError(
            f"endpoint plans diverged: {len(server_plan)} vs {len(client_plan)}"
        )
    for ours, theirs in zip(server_plan, client_plan):
        if (
            ours.kind is not theirs.kind
            or ours.width != theirs.width
            or ours.block.start != theirs.block.start
            or ours.block.length != theirs.block.length
        ):
            raise ProtocolError(
                f"endpoint plans diverged at block {ours.block.start}"
            )


def run_verification(
    channel: SimulatedChannel,
    lanes: list[tuple[ClientSession, ServerSession, list[Candidate], list[Block]]],
    ledgers: list[SimulatedChannel] | None = None,
) -> list[tuple[list[Candidate], list[Block], int]]:
    """Execute the configured verification strategy for one sub-phase.

    Each lane is one file's ``(client, server, candidates, blocks)`` and
    ``ledgers`` holds each lane's accounting channel (default:
    ``channel``).  Every batch sends one client->server message and one
    confirmation bitmap joining the lanes' sections (the lane rule of
    :mod:`repro.net.lanes`); a lane with an empty selection takes no
    part, and a batch is skipped only when every lane's selection is
    empty.  Returns, per lane, the accepted candidates/blocks plus the
    client->server verification bits spent (for tracing).
    """
    if ledgers is None:
        ledgers = [channel] * len(lanes)
    client = lanes[0][0]
    strategy = client.config.strategy()
    vectorized = client.engine == "vectorized"
    client_pools: list[VerificationPools[Candidate]] = [
        VerificationPools(main=list(candidates)) for _c, _s, candidates, _b in lanes
    ]
    server_pools: list[VerificationPools[Block]] = [
        VerificationPools(main=list(blocks)) for _c, _s, _cands, blocks in lanes
    ]
    verification_bits = [0] * len(lanes)
    for batch in strategy.batches:
        client_units = []
        server_units = []
        for c_pools, s_pools in zip(client_pools, server_pools):
            client_selection = c_pools.select(batch)
            server_selection = s_pools.select(batch)
            if len(client_selection) != len(server_selection):
                raise ProtocolError("verification pools diverged")
            client_units.append(make_units(client_selection, batch))
            server_units.append(make_units(server_selection, batch))
        if not any(client_units):
            continue

        sections: list[tuple[bytes, int] | None] = []
        for index, ((lane_client, *_), units) in enumerate(zip(lanes, client_units)):
            if not units:
                sections.append(None)
                continue
            writer = BitWriter()
            if vectorized:
                writer.write_many(
                    np.asarray(
                        lane_client.verification_values(units, batch),
                        dtype=np.uint64,
                    ),
                    batch.bits,
                )
            else:
                for unit in units:
                    writer.write(
                        lane_client.verification_value(unit, batch), batch.bits
                    )
            verification_bits[index] += writer.bit_length
            sections.append((writer.getvalue(), writer.bit_length))
        received = exchange(
            channel, Direction.CLIENT_TO_SERVER, PHASE_MAP, ledgers, sections
        )

        passed_by_lane = []
        bitmaps: list[tuple[bytes, int] | None] = []
        for (_c, server, *_), units, section in zip(lanes, server_units, received):
            if section is None:
                passed_by_lane.append([])
                bitmaps.append(None)
                continue
            reader = BitReader(section)
            bitmap = BitWriter()
            if vectorized:
                received_values = reader.read_many(len(units), batch.bits).tolist()
                expected_values = server.verification_values(units, batch)
                passed = [
                    received == expected
                    for received, expected in zip(received_values, expected_values)
                ]
                bitmap.write_flags(passed)
            else:
                passed = [
                    reader.read(batch.bits) == server.verification_value(unit, batch)
                    for unit in units
                ]
                for ok in passed:
                    bitmap.write_bit(ok)
            passed_by_lane.append(passed)
            bitmaps.append((bitmap.getvalue(), bitmap.bit_length))
        confirmed = exchange(
            channel, Direction.SERVER_TO_CLIENT, PHASE_MAP, ledgers, bitmaps
        )
        for c_pools, s_pools, c_units, s_units, passed, section in zip(
            client_pools, server_pools, client_units, server_units,
            passed_by_lane, confirmed,
        ):
            if section is None:
                client_passed = []
            elif vectorized:
                client_passed = BitReader(section).read_flags(len(c_units)).tolist()
            else:
                confirm = BitReader(section)
                client_passed = [bool(confirm.read_bit()) for _ in c_units]
            c_pools.apply(batch, c_units, client_passed)
            s_pools.apply(batch, s_units, passed)
    return [
        (c_pools.finish(), s_pools.finish(), bits)
        for c_pools, s_pools, bits in zip(
            client_pools, server_pools, verification_bits
        )
    ]


def _run_subphase(
    channel: SimulatedChannel,
    lanes: "list[tuple[CoreSyncSession, list[HashAssignment], list[HashAssignment]]]",
) -> tuple[int, int, list[SubphaseTrace]]:
    """One hash message + candidate bitmap + verification exchange.

    Each lane is one session's ``(session, server_plan, client_plan)``;
    each message joins the lanes' sections (a lane with an empty plan
    takes no part), and the sub-phase is skipped when every plan is
    empty.  Credits each session's continuation counters and trace
    itself and returns the sums ``(continuation_candidates,
    continuation_accepted, traces)``.
    """
    for _session, server_plan, client_plan in lanes:
        _check_plans_match(server_plan, client_plan)
    if not any(server_plan for _session, server_plan, _c in lanes):
        return (0, 0, [])
    vectorized = lanes[0][0].engine == "vectorized"
    ledgers = [session.channel for session, _s, _c in lanes]

    hashes = exchange(
        channel,
        Direction.SERVER_TO_CLIENT,
        PHASE_MAP,
        ledgers,
        [
            (
                session.server.emit_hashes(plan),
                sum(a.transmitted_bits for a in plan),
            )
            if plan
            else None
            for session, plan, _c in lanes
        ],
    )
    candidates_by_lane = [
        [] if section is None else session.client.process_hashes(client_plan, section)
        for (session, _s, client_plan), section in zip(lanes, hashes)
    ]

    bitmaps: list[tuple[bytes, int] | None] = []
    for (_session, server_plan, _c), candidates_by_plan in zip(
        lanes, candidates_by_lane
    ):
        if not server_plan:
            bitmaps.append(None)
            continue
        bitmap = BitWriter()
        if vectorized:
            bitmap.write_flags(
                [candidate is not None for candidate in candidates_by_plan]
            )
        else:
            for candidate in candidates_by_plan:
                bitmap.write_bit(candidate is not None)
        bitmaps.append((bitmap.getvalue(), bitmap.bit_length))
    flagged = exchange(
        channel, Direction.CLIENT_TO_SERVER, PHASE_MAP, ledgers, bitmaps
    )
    verify_lanes = []
    for (session, server_plan, _c), candidates_by_plan, section in zip(
        lanes, candidates_by_lane, flagged
    ):
        if section is None:
            server_flags = []
        elif vectorized:
            server_flags = BitReader(section).read_flags(len(server_plan)).tolist()
        else:
            reader = BitReader(section)
            server_flags = [bool(reader.read_bit()) for _ in server_plan]
        verify_lanes.append(
            (
                session.client,
                session.server,
                [c for c in candidates_by_plan if c is not None],
                [
                    assignment.block
                    for assignment, flagged in zip(server_plan, server_flags)
                    if flagged
                ],
            )
        )
    verified = run_verification(channel, verify_lanes, ledgers)

    total_candidates = total_accepted = 0
    traces: list[SubphaseTrace] = []
    for (session, server_plan, client_plan), candidates_by_plan, (
        accepted_candidates, accepted_blocks, verification_bits
    ) in zip(lanes, candidates_by_lane, verified):
        session.client.record_accepted(accepted_candidates)
        for block in accepted_blocks:
            session.server.tracker.record_match(block)

        # Both endpoints now mark failed continuation attempts identically.
        accepted_client_ids = {id(c.block) for c in accepted_candidates}
        accepted_server_ids = {id(b) for b in accepted_blocks}
        continuation_candidates = 0
        continuation_accepted = 0
        for (s_assignment, c_assignment), candidate in zip(
            zip(server_plan, client_plan), candidates_by_plan
        ):
            if s_assignment.kind is HashKind.CONTINUATION:
                if candidate is not None:
                    continuation_candidates += 1
                    if id(c_assignment.block) in accepted_client_ids:
                        continuation_accepted += 1
                if id(s_assignment.block) not in accepted_server_ids:
                    s_assignment.block.continuation_failed = True
                if id(c_assignment.block) not in accepted_client_ids:
                    c_assignment.block.continuation_failed = True

        apply_known_hashes(server_plan)
        apply_known_hashes(client_plan)
        session.continuation_candidates += continuation_candidates
        session.continuation_accepted += continuation_accepted
        total_candidates += continuation_candidates
        total_accepted += continuation_accepted

        if session.config.collect_trace and server_plan:
            hash_counts: dict[HashKind, int] = {}
            for assignment in server_plan:
                hash_counts[assignment.kind] = (
                    hash_counts.get(assignment.kind, 0) + 1
                )
            trace = SubphaseTrace(
                round_index=session.rounds,
                block_length=max(a.block.length for a in server_plan),
                hash_counts=hash_counts,
                hash_bits_sent=sum(a.transmitted_bits for a in server_plan),
                candidates=sum(c is not None for c in candidates_by_plan),
                accepted=len(accepted_candidates),
                verification_bits=verification_bits,
            )
            session.trace.append(trace)
            traces.append(trace)
    return (total_candidates, total_accepted, traces)


def run_round(
    channel: SimulatedChannel, sessions: "list[CoreSyncSession]"
) -> None:
    """Execute one map-construction round over ``sessions`` in lockstep.

    The sessions share one config and each runs exactly the round a
    single-session :meth:`CoreSyncSession.step_round` would, with its
    messages concatenated into each shared message in session order.
    Covers the round counter and its stall guard, both sub-phases, the
    level split with its divergence check, and the round checkpoint.
    """
    for session in sessions:
        if not session._started:
            raise ValueError("step_round before start()")
        session.rounds += 1
        if session.rounds > _STALL_ROUND_LIMIT:
            raise SyncStalledError(
                f"map construction still has active blocks after "
                f"{_STALL_ROUND_LIMIT} rounds — session is not converging"
            )
    channel.mark_round(max(session.rounds for session in sessions))
    config = sessions[0].config
    if config.continuation_first and config.continuation_enabled:
        planners = [
            lambda tracker, bits: plan_continuation(tracker),
            plan_global,
        ]
    else:
        planners = [plan_mixed]
    for planner in planners:
        # Plans must be derived immediately before each sub-phase:
        # the continuation sub-phase's confirmations feed the global
        # sub-phase's skip rules.
        _run_subphase(
            channel,
            [
                (
                    session,
                    planner(session.server.tracker, session.server.global_bits),
                    planner(
                        session.client._require_tracker(),
                        session.client.global_bits,
                    ),
                )
                for session in sessions
            ],
        )
    for session in sessions:
        more_server = session.server.tracker.advance_level()
        more_client = session.client._require_tracker().advance_level()
        if more_server != more_client:
            raise ProtocolError("endpoint trees diverged while splitting")
        if session.checkpointer is not None:
            from repro.core.snapshot import snapshot_round_state

            session.checkpointer.record_round(
                session.rounds,
                snapshot_round_state(
                    session.client,
                    session.server,
                    session.rounds,
                    session.continuation_candidates,
                    session.continuation_accepted,
                ),
                session.channel.stats,
            )
        if not more_server:
            session._no_more = True


class CoreSyncSession:
    """Resumable step-wise state machine for one core-protocol exchange.

    The schedulable decomposition of :func:`synchronize` — handshake
    (:meth:`start`), one map-construction round per :meth:`step_round`,
    and the refinement/delta/fallback endgame (:meth:`finish`) — with
    the exact send/receive sequence of the former run-to-completion
    loop, so the sequential driver below stays byte-identical.

    The lane functions :meth:`start_lanes`, :func:`run_round` and
    :meth:`finish_lanes` run a cohort of sessions on one shared channel
    (:func:`~repro.net.lanes.run_lanes`): :func:`synchronize_batch
    <repro.core.batch.synchronize_batch>` and pipelined collection sync.
    ``channel`` is the session's accounting channel — the channel given
    to :meth:`start`, or the lane channel a cohort driver assigns.

    Round checkpoints (``checkpointer``) use the same
    :func:`~repro.core.snapshot.snapshot_round_state` payloads under
    every driver, so checkpoints stay interchangeable between schedulers
    and engines.
    """

    def __init__(
        self,
        client_data: bytes,
        server_data: bytes,
        config: ProtocolConfig | None = None,
        checkpointer=None,
        engine: str | None = None,
    ) -> None:
        self.client_data = client_data
        self.server_data = server_data
        self.config = config or ProtocolConfig()
        self.checkpointer = checkpointer
        self.engine = resolve_engine(engine)
        self.server = ServerSession(server_data, self.config, engine=self.engine)
        self.client = ClientSession(client_data, self.config, engine=self.engine)
        self.channel: SimulatedChannel | None = None
        self.rounds = 0
        self.unchanged = False
        self.continuation_candidates = 0
        self.continuation_accepted = 0
        self.trace: list[SubphaseTrace] = []
        self._started = False
        self._no_more = False

    # ------------------------------------------------------------------
    def start(self, channel: SimulatedChannel, resume_from=None) -> None:
        """Run the handshake, or restore a checkpointed round boundary."""
        self.channel = channel
        if resume_from is not None:
            from repro.core.snapshot import restore_round_state

            (
                self.rounds,
                self.continuation_candidates,
                self.continuation_accepted,
            ) = restore_round_state(resume_from.payload, self.client, self.server)
        else:
            # --- Handshake ---------------------------------------------
            request = BitWriter()
            request.write_uvarint(len(self.client_data))
            channel.send(
                Direction.CLIENT_TO_SERVER,
                request.getvalue(),
                PHASE_HANDSHAKE,
                bits=request.bit_length,
            )
            self.server.set_client_length(
                BitReader(
                    channel.receive(Direction.CLIENT_TO_SERVER)
                ).read_uvarint()
            )

            channel.send(
                Direction.SERVER_TO_CLIENT, self._hello(), PHASE_HANDSHAKE
            )
            self.accept_hello(BitReader(channel.receive(Direction.SERVER_TO_CLIENT)))

            channel.send(
                Direction.CLIENT_TO_SERVER,
                b"\x00" if self.unchanged else b"\x01",
                PHASE_HANDSHAKE,
                bits=1,
            )
            channel.receive(Direction.CLIENT_TO_SERVER)
        if not self.unchanged:
            assert self.server.global_bits is not None
        self._started = True

    def _hello(self) -> bytes:
        """Server side of the hello: fingerprint and file length."""
        hello = BitWriter()
        hello.write_bytes(self.server.fingerprint())
        hello.write_uvarint(len(self.server_data))
        return hello.getvalue()

    def accept_hello(self, hello: BitReader) -> bool:
        """Client side of the server hello (fingerprint, length).

        Returns whether the files already match; either way the session
        may now step rounds.
        """
        self.unchanged = self.client.process_handshake(
            hello.read_bytes(16), hello.read_uvarint()
        )
        self._started = True
        return self.unchanged

    @staticmethod
    def start_lanes(
        channel: SimulatedChannel, sessions: "list[CoreSyncSession]"
    ) -> None:
        """Combined handshake: the client lengths, the server hellos and
        the proceed flags each travel as one joined message.  Sessions
        already started (resumed from a checkpoint) take no part."""
        fresh = [session for session in sessions if not session._started]
        ledgers = [session.channel for session in fresh]
        requests = []
        for session in fresh:
            request = BitWriter()
            request.write_uvarint(len(session.client_data))
            requests.append((request.getvalue(), request.bit_length))
        for session, request in zip(
            fresh,
            exchange(
                channel, Direction.CLIENT_TO_SERVER, PHASE_HANDSHAKE,
                ledgers, requests,
            ),
        ):
            session.server.set_client_length(BitReader(request).read_uvarint())
        hellos = exchange(
            channel, Direction.SERVER_TO_CLIENT, PHASE_HANDSHAKE, ledgers,
            [(hello, 8 * len(hello)) for hello in map(CoreSyncSession._hello, fresh)],
        )
        for session, hello in zip(fresh, hellos):
            session.accept_hello(BitReader(hello))
        exchange(
            channel, Direction.CLIENT_TO_SERVER, PHASE_HANDSHAKE, ledgers,
            [(bytes([not session.unchanged]), 1) for session in fresh],
        )

    @property
    def done(self) -> bool:
        """True when no map-construction rounds remain.

        Mirrors the former loop condition exactly: the ``max_rounds``
        guard doubles as part of the condition so a run resumed *at* the
        cap does not buy extra rounds.
        """
        if not self._started:
            return False
        if self.unchanged or self._no_more:
            return True
        if not (
            self.server.tracker.has_active()
            or self.client._require_tracker().has_active()
        ):
            return True
        config = self.config
        return config.max_rounds is not None and self.rounds >= config.max_rounds

    # ------------------------------------------------------------------
    def step_round(self, channel: SimulatedChannel) -> None:
        """Execute exactly one map-construction round, checkpoint included."""
        run_round(channel, [self])

    #: The round lane function (module-level, shared with step_round).
    run_round = staticmethod(run_round)

    # ------------------------------------------------------------------
    def finish(self, channel: SimulatedChannel) -> SyncResult:
        """Refinement, delta and the fingerprint-guarded endgame."""
        if self.unchanged:
            return self._result(None, False)
        config = self.config

        # --- Boundary refinement (optional, §5.4) ----------------------
        if config.refine_boundaries:
            from repro.core.refine import run_boundary_refinement

            run_boundary_refinement(channel, self.client, self.server)

        # --- Delta phase -----------------------------------------------
        delta = self.server.emit_delta()
        channel.send(Direction.SERVER_TO_CLIENT, delta, PHASE_DELTA)
        reconstructed = self.client.apply_delta(
            channel.receive(Direction.SERVER_TO_CLIENT)
        )

        channel.send(
            Direction.CLIENT_TO_SERVER,
            b"\x01" if reconstructed is None else b"\x00",
            PHASE_FALLBACK,
            bits=1,
        )
        channel.receive(Direction.CLIENT_TO_SERVER)
        if reconstructed is not None:
            return self._result(reconstructed, False)
        if config.collision_retries > 0:
            return self._retry()
        channel.send(
            Direction.SERVER_TO_CLIENT,
            zlib.compress(self.server_data, 9),
            PHASE_FALLBACK,
        )
        return self._result(
            zlib.decompress(channel.receive(Direction.SERVER_TO_CLIENT)), True
        )

    @staticmethod
    def finish_lanes(
        channel: SimulatedChannel, sessions: "list[CoreSyncSession]"
    ) -> list[SyncResult]:
        """Combined endgame: boundary refinement lane by lane, one joined
        message of length-prefixed deltas, one of NACK flags, then any
        collision retries lane by lane and one joined message of
        length-prefixed fallback payloads."""
        active = [session for session in sessions if not session.unchanged]
        if active and active[0].config.refine_boundaries:
            from repro.core.refine import run_boundary_refinement

            for session in active:
                run_boundary_refinement(
                    session.channel, session.client, session.server
                )
        ledgers = [session.channel for session in active]
        deltas = exchange(
            channel, Direction.SERVER_TO_CLIENT, PHASE_DELTA, ledgers,
            [
                (delta, 8 * len(delta))
                for delta in (session.server.emit_delta() for session in active)
            ],
            prefixed=True,
        )
        reconstructed = {
            session: session.client.apply_delta(delta)
            for session, delta in zip(active, deltas)
        }
        exchange(
            channel, Direction.CLIENT_TO_SERVER, PHASE_FALLBACK, ledgers,
            [(bytes([reconstructed[session] is None]), 1) for session in active],
        )
        failed = [session for session in active if reconstructed[session] is None]
        retried = {
            session: session._retry()
            for session in failed
            if session.config.collision_retries > 0
        }
        fallback = [session for session in failed if session not in retried]
        payloads = exchange(
            channel, Direction.SERVER_TO_CLIENT, PHASE_FALLBACK,
            [session.channel for session in fallback],
            [
                (payload, 8 * len(payload))
                for payload in (
                    zlib.compress(session.server_data, 9) for session in fallback
                )
            ],
            prefixed=True,
        )
        for session, payload in zip(fallback, payloads):
            reconstructed[session] = zlib.decompress(payload)
        return [
            retried[session]
            if session in retried
            else session._result(reconstructed.get(session), session in fallback)
            for session in sessions
        ]

    def _retry(self) -> SyncResult:
        """Repeat the whole exchange with an independent hash function
        (a different substitution table); all bytes land on this
        session's channel."""
        config = self.config
        retry = synchronize(
            self.client_data,
            self.server_data,
            config.with_overrides(
                hash_seed=config.hash_seed + 1,
                collision_retries=config.collision_retries - 1,
            ),
            self.channel,
            engine=self.engine,
        )
        retry.used_fallback = True
        return retry

    def _result(self, reconstructed: bytes | None, used_fallback: bool) -> SyncResult:
        if self.unchanged:
            return SyncResult(
                reconstructed=self.client_data,
                stats=self.channel.stats,
                unchanged=True,
                used_fallback=False,
                matched_blocks=0,
                known_fraction=1.0,
                rounds=0,
                trace=[],
            )
        file_map = self.client._require_map()
        return SyncResult(
            reconstructed=reconstructed,
            stats=self.channel.stats,
            unchanged=False,
            used_fallback=used_fallback,
            matched_blocks=len(file_map),
            known_fraction=file_map.known_fraction,
            rounds=self.rounds,
            continuation_candidates=self.continuation_candidates,
            continuation_accepted=self.continuation_accepted,
            trace=self.trace,
        )


def synchronize(
    client_data: bytes,
    server_data: bytes,
    config: ProtocolConfig | None = None,
    channel: SimulatedChannel | None = None,
    checkpointer=None,
    resume_from=None,
    engine: str | None = None,
) -> SyncResult:
    """Synchronise the client's file to the server's current version.

    Always returns a reconstruction equal to ``server_data``; the
    whole-file fingerprint plus the full-transfer fallback guarantee it
    even under (engineered) hash collisions.

    ``checkpointer`` (an opened
    :class:`~repro.resilience.checkpoint.SessionJournal`) snapshots both
    endpoints after every completed round; ``resume_from`` (a
    :class:`~repro.resilience.checkpoint.RoundCheckpoint`) rebuilds that
    state and continues, skipping the handshake and the already-completed
    rounds.  The caller of a resumed run is expected to have seeded
    ``channel.stats`` with the checkpoint's counters so the returned
    stats cover the whole logical session.

    ``engine`` selects the round engine (``"vectorized"`` | ``"scalar"``,
    ``None`` = the ``REPRO_PROTOCOL_ENGINE`` environment default); both
    put byte-identical traffic on the wire and write interchangeable
    checkpoints, so a resumed run may use a different engine than the one
    that crashed.

    This is the one-lane driver over :class:`CoreSyncSession`; pipelined
    collection sync runs the same sessions in cohorts through the lane
    functions.
    """
    if channel is None:
        channel = SimulatedChannel()
    session = CoreSyncSession(
        client_data, server_data, config, checkpointer=checkpointer, engine=engine
    )
    session.start(channel, resume_from=resume_from)
    while not session.done:
        session.step_round(channel)
    return session.finish(channel)

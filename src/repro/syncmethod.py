"""The per-file synchronization method interface.

Neutral home for the types shared by the collection layer (which drives a
method over many files) and the benchmark harness (which defines the
concrete adapters) — keeping those two packages import-cycle free.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields

from repro.counters import OUTCOME_MERGE


@dataclass
class MethodOutcome:
    """Bandwidth accounting for one file synchronised by one method.

    The resilience fields default to "nothing went wrong" so outcomes
    from a clean run are unchanged: ``retries`` counts failed attempts
    that preceded this result, ``fallback_method`` names the ladder rung
    that finally succeeded (``None`` = the primary method),
    ``retransmitted_bytes`` is the wire cost of the failed attempts and
    ``recovery_seconds`` the estimated wall-clock they burnt (backoff
    plus wasted transfer time on the configured link).  The part of
    ``retransmitted_bytes`` the delivering attempt itself sent — a
    protocol-internal fallback reclassified as recovery — is also in
    ``reclassified_bytes``: it crossed the link with this result, so the
    collection's link time prices it.

    The checkpoint fields likewise stay zero unless a supervisor ran
    with durable round checkpoints: ``rounds_salvaged`` counts protocol
    rounds a resume skipped instead of re-buying, ``resume_handshake_bits``
    the wire cost of agreeing to resume, and ``checkpoint_bytes_written``
    the *local* journal bytes fsynced (disk cost, never wire cost).

    The adaptive fields describe the health-aware layer (DESIGN §14) and
    default to "perfect link, nothing adapted": ``health_score`` is the
    windowed link-health estimate after this file (1.0 = pristine;
    merged with ``min`` so an aggregate reflects the worst link seen),
    ``breaker_opens`` counts circuit-breaker trips, ``deadline_salvages``
    checkpointed rounds preserved by a deadline breach, and
    ``adaptive_backoff_s`` the simulated seconds the AIMD schedule spent
    waiting (a subset of ``recovery_seconds``).

    The integrity fields stay zero unless the whole-file fingerprint
    rejected a reconstruction: ``collisions_detected`` counts those
    rejections, ``repair_rounds`` the group-digest descent roundtrips
    spent localizing them, and ``repair_bytes`` the wire bytes of the
    surgical repair exchanges (already included in ``total_bytes``).

    Outcomes add field by field, each by its merge rule in
    :mod:`repro.counters`.
    """

    total_bytes: int
    client_to_server: int = 0
    server_to_client: int = 0
    breakdown: dict[str, int] = field(default_factory=dict)
    correct: bool = True
    retries: int = 0
    fallback_method: str | None = None
    retransmitted_bytes: int = 0
    reclassified_bytes: int = 0
    recovery_seconds: float = 0.0
    rounds_salvaged: int = 0
    resume_handshake_bits: int = 0
    checkpoint_bytes_written: int = 0
    health_score: float = 1.0
    breaker_opens: int = 0
    deadline_salvages: int = 0
    adaptive_backoff_s: float = 0.0
    collisions_detected: int = 0
    repair_rounds: int = 0
    repair_bytes: int = 0
    roundtrips: int = 0

    def __add__(self, other: "MethodOutcome") -> "MethodOutcome":
        return MethodOutcome(
            **{
                f.name: OUTCOME_MERGE[f.name](
                    getattr(self, f.name), getattr(other, f.name)
                )
                for f in fields(self)
            }
        )


def wire_outcome(result, new: bytes) -> MethodOutcome:
    """Flatten a protocol result (with ``.stats``) into a MethodOutcome.

    ``result`` is a :class:`~repro.core.protocol.SyncResult` or
    :class:`~repro.multiround.protocol.MultiroundResult` — anything with
    ``reconstructed``, ``total_bytes`` and a
    :class:`~repro.net.metrics.TransferStats` ``stats``.  The integrity
    fields exist only on the rsync/multiround results (the stacks with
    surgical repair); ``getattr`` keeps the core protocol's result
    compatible.  A protocol-internal full-transfer fallback reclassifies
    its traffic into ``stats.retransmitted_bits``, which must survive
    the flattening even without a supervisor around.  Lives here (not in
    ``bench.methods``) so pipelined collection sync can account per-file
    sessions without importing the benchmark harness.
    """
    return MethodOutcome(
        total_bytes=result.total_bytes,
        client_to_server=result.stats.client_to_server_bytes,
        server_to_client=result.stats.server_to_client_bytes,
        breakdown=dict(result.stats.breakdown()),
        correct=result.reconstructed == new,
        retransmitted_bytes=result.stats.retransmitted_bytes,
        reclassified_bytes=result.stats.retransmitted_bytes,
        collisions_detected=getattr(result, "collisions_detected", 0),
        repair_rounds=getattr(result, "repair_rounds", 0),
        repair_bytes=getattr(result, "repair_bytes", 0),
        roundtrips=result.stats.roundtrips,
    )


class SyncMethod(ABC):
    """One row of the paper's comparison tables."""

    name: str
    #: True for methods whose protocol can snapshot round state into a
    #: :class:`~repro.resilience.checkpoint.SessionJournal` and resume
    #: from it (they then also implement ``checkpoint_identity`` and
    #: ``sync_file_resumable``).
    supports_checkpoint: bool = False
    #: Declares whether instances can cross a process boundary.  ``None``
    #: (default) makes the parallel executor probe with ``pickle.dumps``
    #: once per instance; final method classes that are known picklable
    #: set ``True`` to skip the probe entirely.  Subclasses that add
    #: unpicklable state (closures, open handles) must override this
    #: back to ``None`` or ``False``.
    supports_pickle: bool | None = None
    #: True for methods whose protocol is factored into a resumable
    #: step-wise session whose class carries the lane functions
    #: (:mod:`repro.net.lanes`), so pipelined collection sync can run
    #: many files' sessions in cohorts on one channel; they then also
    #: implement :meth:`open_session`.
    supports_pipeline: bool = False

    @abstractmethod
    def sync_file(self, old: bytes, new: bytes) -> MethodOutcome:
        """Synchronise one file pair; return the transfer accounting."""

    def open_session(self, old: bytes, new: bytes, checkpointer=None):
        """Build a step-wise protocol session for one file pair.

        Only meaningful when ``supports_pipeline`` is true.  The returned
        object exposes ``start(channel, resume_from=None)``, ``done``,
        ``step_round(channel)`` and ``finish(channel)`` with the exact
        wire traffic of the run-to-completion path, and its class the
        lane functions ``start_lanes``, ``run_round`` and
        ``finish_lanes`` that run a cohort of such sessions on one
        shared channel, each charged its file's one-file transcript.
        """
        raise NotImplementedError(
            f"{self.name} does not support pipelined scheduling"
        )

    def sync_named_file(self, name: str | None, old: bytes, new: bytes) -> MethodOutcome:
        """Synchronise one *named* file pair.

        The collection layer calls this with the entry's name so wrappers
        keeping durable per-file state (checkpoint journals) can key it.
        The default ignores the name.
        """
        return self.sync_file(old, new)

    def sync_file_over(self, old: bytes, new: bytes, channel) -> MethodOutcome:
        """Synchronise one file pair over a caller-supplied channel.

        Wire methods override this to route their traffic through
        ``channel`` (a :class:`~repro.net.channel.SimulatedChannel`,
        possibly fault-injected) so a supervisor can observe and retry
        failures.  The default ignores the channel — correct for local
        methods (delta coders) that never touch the wire.
        """
        return self.sync_file(old, new)

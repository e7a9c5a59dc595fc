"""The lane rule: many files' protocol sessions sharing one channel.

A *lane* is one file's session inside a *cohort* of sessions of the
same protocol stack that share one channel.  Every message of the
cohort joins the lanes' sections in lane order; a lane with nothing to
say adds zero bits, and a message no lane takes part in is not sent.
Both ends know the active lanes and each section's width, so nothing
else travels: no stream id, round or sequence number.  Only sections
whose width the receiver cannot know (deltas, fallback payloads) carry a
uvarint byte length.

Each lane keeps its own accounting channel, charged exactly the
messages its session would have sent alone, so per-file outcomes and
round checkpoints match a one-file run bit for bit.  A lone session's
accounting channel is the shared channel itself: nothing is charged
twice and no extra work is done.

A stack takes part by giving its session class three lane functions,
``start_lanes(channel, sessions)`` (the combined handshake; sessions
already started from a checkpoint take no part), ``run_round(channel,
sessions)`` (one map-construction round) and ``finish_lanes(channel,
sessions)`` (the combined endgame, returning one result per session);
:func:`run_lanes` drives a cohort through them.
"""

from __future__ import annotations

from repro.io.bitstream import BitReader, BitWriter
from repro.net.channel import SimulatedChannel
from repro.net.metrics import Direction

__all__ = ["LaneChannel", "exchange", "run_lanes"]


class LaneChannel(SimulatedChannel):
    """One lane's accounting channel on a shared link.

    Joined messages charge the lane's section here (:meth:`charge`).
    The lane's own exchanges — resume handshake, boundary refinement,
    repair, fallback — are sent here and cross the shared link as
    messages of their own.
    """

    def __init__(self, shared: SimulatedChannel) -> None:
        super().__init__(shared.link)
        self.shared = shared

    def send(
        self,
        direction: Direction,
        payload: bytes,
        phase: str,
        bits: int | None = None,
    ) -> None:
        super().send(direction, payload, phase, bits)
        self.shared.send(direction, payload, phase, bits)
        self.shared.receive(direction)

    def charge(
        self, direction: Direction, section: bytes, phase: str, bits: int
    ) -> None:
        """Account a section that crossed the shared link inside a
        joined message."""
        SimulatedChannel.send(self, direction, section, phase, bits)
        self.receive(direction)


def exchange(
    channel: SimulatedChannel,
    direction: Direction,
    phase: str,
    ledgers: list[SimulatedChannel],
    sections: "list[tuple[bytes, int] | None]",
    prefixed: bool = False,
) -> "list[bytes | None]":
    """Send one message joining ``sections``; return them as received.

    ``sections[i]`` is lane ``i``'s ``(payload, bits)``, or ``None`` when
    the lane takes no part: it adds zero bits, is charged nothing and
    receives ``None``.  ``ledgers[i]`` is lane ``i``'s accounting
    channel.  With ``prefixed`` every section is whole bytes and travels
    behind its uvarint length; otherwise the bit sections are
    concatenated.
    """
    present = [section for section in sections if section is not None]
    if not present:
        return [None] * len(sections)
    writer = BitWriter()
    for section, width in present:
        if prefixed:
            writer.write_uvarint(len(section))
            writer.write_bytes(section)
        else:
            writer.write_flags(BitReader(section).read_flags(width))
    channel.send(direction, writer.getvalue(), phase, bits=writer.bit_length)
    for ledger, section in zip(ledgers, sections):
        if section is not None and ledger is not channel:
            ledger.charge(direction, section[0], phase, section[1])
    reader = BitReader(channel.receive(direction))
    out: list[bytes | None] = []
    for section in sections:
        if section is None:
            out.append(None)
        elif prefixed:
            out.append(reader.read_bytes(reader.read_uvarint()))
        else:
            unpacked = BitWriter()
            unpacked.write_flags(reader.read_flags(section[1]))
            out.append(unpacked.getvalue())
    return out


def run_lanes(channel: SimulatedChannel, sessions: list) -> tuple[list, int]:
    """Drive one cohort through its stack's lane functions on ``channel``.

    Each session's accounting channel (``session.channel``) must be set.
    Returns the per-session results in order and the number of lockstep
    rounds.
    """
    if not sessions:
        return [], 0
    stack = type(sessions[0])
    stack.start_lanes(channel, sessions)
    rounds = 0
    stepping = [session for session in sessions if not session.done]
    while stepping:
        rounds += 1
        stack.run_round(channel, stepping)
        stepping = [session for session in stepping if not session.done]
    return stack.finish_lanes(channel, sessions), rounds

"""Pipelined scheduling: cohorts over the lane rule, parity, crash interchange.

Pipelined sync runs the changed files in cohorts of ``window``, each
through its stack's lane functions on one shared channel.  Its whole
contract is "same bytes, fewer roundtrips": per-file outcomes, per-lane
wire transcripts and round checkpoints must be bit-identical to the
sequential path — across protocol engines, across executor substrates,
and across a crash that switches scheduler between the two runs.  Only
the shared link's roundtrip count and the modelled wall clock may
change; with one cohort of every file the shared link carries exactly
:func:`~repro.core.synchronize_batch`'s traffic.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from repro.bench.methods import MultiroundRsyncMethod, OursMethod, RsyncMethod
from repro.collection.sync import sync_collection
from repro.net import LinkModel, SimulatedChannel
from repro.net.lanes import LaneChannel
from repro.parallel import arena_available
from tests.conftest import make_version_pair

SRC = Path(__file__).resolve().parent.parent / "src"

LINK = LinkModel(latency_s=0.150)

#: sha256 of ``synchronize_batch``'s transcript over the 14 changed files
#: of ``gcc_like(0.08, seed=6)`` (default config).
ONE_COHORT_GOLDEN = (
    "d27db8a02784baf9ae390c4213a4cba142bcb87b97259e681aede18817eb0f16"
)


def make_collection(count=6, nbytes=9000, edits=6, seed=900):
    old_side, new_side = {}, {}
    for index in range(count):
        old, new = make_version_pair(
            seed=seed + index, nbytes=nbytes, edits=edits
        )
        old_side[f"f{index:02d}.bin"] = old
        new_side[f"f{index:02d}.bin"] = new
    return old_side, new_side


@pytest.fixture
def wire(monkeypatch):
    """Record every message each channel carries or is charged, keyed
    by channel; ``lanes`` lists the lane channels in creation order."""
    sends = defaultdict(list)
    lanes = []
    send = SimulatedChannel.send
    init = LaneChannel.__init__

    def recording_send(self, direction, payload, phase, bits=None):
        sends[self].append((direction, phase, bits, payload))
        send(self, direction, payload, phase, bits)

    def recording_init(self, shared):
        init(self, shared)
        lanes.append(self)

    monkeypatch.setattr(SimulatedChannel, "send", recording_send)
    monkeypatch.setattr(LaneChannel, "__init__", recording_init)
    return sends, lanes


def _effective(transcript):
    """``(direction, phase, bits)`` with a byte-aligned default filled in."""
    return [
        (direction, phase, 8 * len(payload) if bits is None else bits)
        for direction, phase, bits, payload in transcript
    ]


# ----------------------------------------------------------------------
# LinkModel.transfer_seconds (vectorized/accumulating variant)
# ----------------------------------------------------------------------
class TestTransferSeconds:
    def test_scalar_matches_directional(self):
        link = LinkModel(bandwidth_bps=2e6, latency_s=0.1, uplink_bps=5e5)
        # Each direction at its own bandwidth, plus 2 × latency per count.
        assert link.transfer_seconds(1000, 4000, 7) == pytest.approx(
            8000 / 5e5 + 32000 / 2e6 + 2 * 0.1 * 7
        )

    def test_vector_accumulates(self):
        link = LinkModel(bandwidth_bps=1e6, latency_s=0.05)
        ups, downs, trips = [100, 200, 300], [50, 0, 950], [2, 5, 0]
        expected = sum(
            link.transfer_seconds(u, d, t)
            for u, d, t in zip(ups, downs, trips)
        )
        assert link.transfer_seconds(ups, downs, trips) == pytest.approx(
            expected
        )

    def test_negative_counters_rejected(self):
        link = LinkModel()
        with pytest.raises(ValueError, match="client_to_server_bytes"):
            link.transfer_seconds([-1], [0], [0])
        with pytest.raises(ValueError, match="server_to_client_bytes"):
            link.transfer_seconds(0, -5, 0)
        with pytest.raises(ValueError, match="roundtrips"):
            link.transfer_seconds([1, 2], [3, 4], [1, -1])


# ----------------------------------------------------------------------
# Pipelined vs sequential parity
# ----------------------------------------------------------------------
class TestPipelineParity:
    @pytest.mark.parametrize(
        "method_factory", [OursMethod, MultiroundRsyncMethod]
    )
    def test_outcomes_match_sequential(self, method_factory):
        old_side, new_side = make_collection()
        sequential = sync_collection(
            old_side, new_side, method_factory(), link=LINK
        )
        pipelined = sync_collection(
            old_side, new_side, method_factory(), link=LINK,
            window=4,
        )
        assert pipelined.pipelined and not sequential.pipelined
        assert pipelined.reconstructed == new_side
        # Byte accounting is identical per file...
        assert pipelined.per_file == sequential.per_file
        # ...and only the shared link's latency accounting collapses.
        assert pipelined.roundtrips_on_wire < sequential.roundtrips_on_wire
        assert pipelined.link_wall_clock_s < sequential.link_wall_clock_s
        assert pipelined.waves > 0

    @pytest.mark.parametrize(
        "method_factory", [OursMethod, MultiroundRsyncMethod]
    )
    def test_transcripts_bit_identical_modulo_interleaving(
        self, method_factory, wire
    ):
        """Each lane is charged exactly its file's sequential transcript:
        the same ``(direction, phase, bits)`` sequence and payload bits.
        The 1-bit proceed and NACK flags travel as bits inside a joined
        message and as a whole byte alone, so they compare by value."""
        sends, lanes = wire
        old_side, new_side = make_collection(count=4)
        sync_collection(
            old_side, new_side, method_factory(), link=LINK,
            window=3,
        )
        assert len(lanes) == len(old_side)
        for name, lane in zip(sorted(old_side), lanes):
            channel = SimulatedChannel(LINK)
            session = method_factory().open_session(
                old_side[name], new_side[name]
            )
            session.start(channel)
            while not session.done:
                session.step_round(channel)
            session.finish(channel)
            pipelined, sequential = sends[lane], sends[channel]
            assert _effective(pipelined) == _effective(sequential), name
            for (_d, _p, bits, ours), (_d2, _p2, _b, theirs) in zip(
                pipelined, sequential
            ):
                if bits == 1:
                    assert ours[0] & 1 == theirs[0] & 1, name
                else:
                    assert ours == theirs, name

    @pytest.mark.parametrize("repair", [True, False], ids=["repair", "fallback"])
    def test_multiround_collisions_match_sequential(self, repair):
        """Weak hashes make every lane reject its first reconstruction:
        the status codes, repair descents and fallbacks run lane by lane
        and still charge each file its one-file transcript."""
        from repro.multiround import MultiroundConfig

        config = MultiroundConfig(
            hash_bits=16, start_block_size=1024, min_block_size=32,
            repair=repair,
        )
        old_side, new_side = make_collection(count=3, nbytes=16000, edits=10)
        sequential = sync_collection(
            old_side, new_side, MultiroundRsyncMethod(config), link=LINK
        )
        pipelined = sync_collection(
            old_side, new_side, MultiroundRsyncMethod(config), link=LINK,
            window=3,
        )
        assert pipelined.reconstructed == new_side
        assert pipelined.per_file == sequential.per_file
        assert pipelined.collisions_detected == len(old_side)
        if repair:
            assert pipelined.repair_rounds > 0
        else:
            assert pipelined.retransmitted_bytes > 0

    def test_one_cohort_reproduces_synchronize_batch(self, wire):
        """With a window covering every changed file, the shared link
        carries exactly ``synchronize_batch``'s wire over those files."""
        from repro.core import synchronize_batch
        from repro.workloads import gcc_like
        from tests.test_wire_golden import RecordingChannel, _digest

        sends, lanes = wire
        tree = gcc_like(scale=0.08, seed=6)
        report = sync_collection(
            tree.old, tree.new, OursMethod(), window=1000
        )
        [shared] = [
            channel for channel in sends if type(channel) is SimulatedChannel
        ]
        transcript = [
            [direction.value, phase, bits, hashlib.sha256(payload).hexdigest()]
            for direction, phase, bits, payload in sends[shared]
        ]
        changed = report.diff.changed
        channel = RecordingChannel()
        batch = synchronize_batch(
            {n: tree.old[n] for n in changed},
            {n: tree.new[n] for n in changed},
            channel=channel,
        )
        assert _digest(transcript) == _digest(channel.transcript)
        assert _digest(transcript) == ONE_COHORT_GOLDEN
        assert report.roundtrips_on_wire == batch.roundtrips == 81
        assert report.total_bytes == sync_collection(
            tree.old, tree.new, OursMethod()
        ).total_bytes

    def test_cross_engine_parity(self, monkeypatch):
        """Scalar and vectorized engines put identical bytes through the
        pipelined scheduler — wire figures included."""
        old_side, new_side = make_collection(count=4)
        reports = {}
        for engine in ("scalar", "vectorized"):
            monkeypatch.setenv("REPRO_PROTOCOL_ENGINE", engine)
            reports[engine] = sync_collection(
                old_side, new_side, OursMethod(), link=LINK,
                window=4,
            )
        scalar, vectorized = reports["scalar"], reports["vectorized"]
        assert scalar.per_file == vectorized.per_file
        assert scalar.roundtrips_on_wire == vectorized.roundtrips_on_wire
        assert scalar.link_wall_clock_s == vectorized.link_wall_clock_s
        assert scalar.waves == vectorized.waves

    def test_cross_executor_parity(self):
        """Serial, pickle-pool and arena-pool sequential runs all agree
        with the pipelined outcomes — the scheduler changes scheduling,
        never bytes."""
        old_side, new_side = make_collection(count=4)
        pipelined = sync_collection(
            old_side, new_side, OursMethod(), link=LINK,
            window=4,
        )
        variants = [
            dict(workers=1),
            dict(workers=2, use_arena=False),
        ]
        if arena_available():
            variants.append(dict(workers=2, use_arena=True))
        for kwargs in variants:
            sequential = sync_collection(
                old_side, new_side, OursMethod(), link=LINK, **kwargs
            )
            assert sequential.per_file == pipelined.per_file, kwargs

    def test_checkpointed_outcomes_match_sequential(self, tmp_path):
        """Journalling under the scheduler mirrors the supervisor's
        accounting on a clean run."""
        old_side, new_side = make_collection(count=3)
        sequential = sync_collection(
            old_side, new_side, OursMethod(), link=LINK,
            checkpoint_dir=tmp_path / "seq",
        )
        pipelined = sync_collection(
            old_side, new_side, OursMethod(), link=LINK,
            checkpoint_dir=tmp_path / "pipe", window=3,
        )
        assert pipelined.per_file == sequential.per_file
        assert pipelined.checkpoint_bytes_written > 0
        # Both runs committed every journal away.
        assert sorted((tmp_path / "seq").glob("*.ckpt")) == []
        assert sorted((tmp_path / "pipe").glob("*.ckpt")) == []

    def test_window_one_still_correct(self):
        # window=1 (the library default) is the file-by-file path.
        old_side, new_side = make_collection(count=3)
        report = sync_collection(
            old_side, new_side, OursMethod(), link=LINK,
            window=1,
        )
        assert report.reconstructed == new_side
        assert not report.pipelined
        default = sync_collection(old_side, new_side, OursMethod(), link=LINK)
        assert not default.pipelined
        assert report.per_file == default.per_file

    def test_only_total_compute_time_is_measured(self):
        # A cohort's lanes interleave their work, so no per-file time is
        # reported; the cohorts' total goes to cpu_seconds.
        old_side, new_side = make_collection(count=3)
        report = sync_collection(
            old_side, new_side, OursMethod(), link=LINK,
            window=2,
        )
        assert report.per_file_seconds == {}
        assert report.cpu_seconds > 0.0

    def test_validation(self):
        old_side, new_side = make_collection(count=2)
        with pytest.raises(ValueError, match="does not support pipelined"):
            sync_collection(old_side, new_side, RsyncMethod(), window=2)
        with pytest.raises(ValueError, match="window"):
            sync_collection(
                old_side, new_side, OursMethod(), window=0
            )
        from repro.net.faults import FaultPlan

        with pytest.raises(ValueError, match="incompatible"):
            sync_collection(
                old_side, new_side, OursMethod(), window=2,
                fault_plan=FaultPlan.uniform(0.01),
            )
        with pytest.raises(ValueError, match="incompatible"):
            sync_collection(
                old_side, new_side, OursMethod(), window=2, deadline_s=5.0,
            )
        with pytest.raises(ValueError, match="workers=1"):
            sync_collection(
                old_side, new_side, OursMethod(), window=2, workers=2,
            )


class TestOnErrorOnCohorts:
    """Cohorts settle failures through the file-by-file path's
    ``on_error`` rule: a wrong rebuild gives the same per-file outcomes,
    fallbacks and failures under either scheduler."""

    @staticmethod
    def seam(monkeypatch, target, fault):
        """Apply ``fault`` to the client's rebuild of ``target``."""
        from repro.core.client import ClientSession

        apply = ClientSession.apply_delta

        def patched(self, delta):
            rebuilt = apply(self, delta)
            return fault(rebuilt) if rebuilt == target else rebuilt

        monkeypatch.setattr(ClientSession, "apply_delta", patched)

    @pytest.fixture
    def corrupt_one(self, monkeypatch):
        old_side, new_side = make_collection(count=5)
        self.seam(
            monkeypatch, new_side["f02.bin"],
            lambda rebuilt: rebuilt[:-1] + bytes([rebuilt[-1] ^ 1]),
        )
        return old_side, new_side

    @pytest.mark.parametrize("on_error", ["skip", "fallback"])
    def test_settlement_matches_file_by_file(self, corrupt_one, on_error):
        old_side, new_side = corrupt_one
        by_file, windowed = (
            sync_collection(
                old_side, new_side, OursMethod(), link=LINK,
                on_error=on_error, window=window,
            )
            for window in (1, 3)
        )
        assert windowed.pipelined and not by_file.pipelined
        assert windowed.per_file == by_file.per_file
        assert windowed.fallbacks == by_file.fallbacks
        assert windowed.failed == by_file.failed
        assert windowed.reconstructed == by_file.reconstructed
        if on_error == "skip":
            assert windowed.failed == {"f02.bin": "IntegrityError: bad bytes"}
            assert windowed.reconstructed["f02.bin"] == old_side["f02.bin"]
        else:
            assert windowed.fallbacks == {"f02.bin": "rescue-full"}
            assert windowed.reconstructed == new_side
            assert windowed.per_file["f02.bin"].retransmitted_bytes > 0

    def test_raise_matches_file_by_file(self, corrupt_one):
        from repro.exceptions import IntegrityError

        old_side, new_side = corrupt_one
        for window in (1, 3):
            with pytest.raises(IntegrityError, match="f02.bin"):
                sync_collection(
                    old_side, new_side, OursMethod(), on_error="raise",
                    window=window,
                )

    def test_rescue_priced_on_the_shared_link(self, corrupt_one):
        """The rescue adds its payload, and no leg, to the shared link."""
        old_side, new_side = corrupt_one
        skip, fallback = (
            sync_collection(
                old_side, new_side, OursMethod(), link=LINK,
                on_error=on_error, window=3,
            )
            for on_error in ("skip", "fallback")
        )
        rescue = fallback.per_file["f02.bin"].total_bytes
        assert fallback.roundtrips_on_wire == skip.roundtrips_on_wire
        assert fallback.link_wall_clock_s - skip.link_wall_clock_s == (
            pytest.approx(8 * rescue / LINK.bandwidth_bps)
        )

    def test_aborted_cohort_settles_every_lane(self, monkeypatch):
        """An error that aborts the lanes fails its whole cohort, each
        file charged its lane's bytes as retransmission; other cohorts
        are untouched."""
        from repro.exceptions import ProtocolError

        old_side, new_side = make_collection(count=5)

        def abort(rebuilt):
            raise ProtocolError("seam")

        self.seam(monkeypatch, new_side["f01.bin"], abort)
        cohort = ["f00.bin", "f01.bin", "f02.bin"]
        skip = sync_collection(
            old_side, new_side, OursMethod(), on_error="skip", window=3
        )
        assert skip.failed == dict.fromkeys(cohort, "ProtocolError: seam")
        for name in cohort:
            assert skip.reconstructed[name] == old_side[name]
            assert skip.per_file[name].retransmitted_bytes > 0
        for name in ("f03.bin", "f04.bin"):
            assert skip.reconstructed[name] == new_side[name]
        fallback = sync_collection(
            old_side, new_side, OursMethod(), on_error="fallback", window=3
        )
        assert fallback.fallbacks == dict.fromkeys(cohort, "rescue-full")
        assert fallback.reconstructed == new_side
        with pytest.raises(ProtocolError, match="seam"):
            sync_collection(
                old_side, new_side, OursMethod(), on_error="raise", window=3
            )


class TestFileByFileLink:
    def test_protocol_fallback_bytes_priced(self):
        """A protocol-internal fallback reclassifies its bytes as
        retransmission, but they crossed the link with the delivering
        attempt: the file-by-file link time prices them."""
        from repro.multiround import MultiroundConfig

        config = MultiroundConfig(
            hash_bits=16, start_block_size=1024, min_block_size=32,
            repair=False,
        )
        old_side, new_side = make_collection(count=3, nbytes=16000, edits=10)
        report = sync_collection(
            old_side, new_side, MultiroundRsyncMethod(config), window=1
        )
        totals = report.totals()
        assert report.retransmitted_bytes == totals.reclassified_bytes == 12911
        link = LinkModel()
        assert report.link_wall_clock_s == pytest.approx(
            link.transfer_seconds(
                totals.client_to_server,
                totals.server_to_client + 12911,
                report.roundtrips_on_wire,
            )
        )


class TestPipelinedCacheCounters:
    """Both schedulers report the same process-cache traffic: the
    pipelined path measures the index, reference and delta-memo caches
    around its run exactly as the executor does around its batch."""

    @pytest.mark.parametrize(
        "method_factory", [OursMethod, MultiroundRsyncMethod],
        ids=["ours", "multiround"],
    )
    def test_cache_counters_match_sequential(self, method_factory):
        from repro.parallel import (
            reset_default_cache,
            reset_default_reference_cache,
        )
        from repro.parallel.executor import CACHE_COUNTERS
        from repro.reuse.memo import reset_default_delta_memo
        from repro.workloads import gcc_like

        tree = gcc_like(0.1, seed=1)
        counters = {}
        for window in (1, 8):
            reset_default_cache()
            reset_default_reference_cache()
            reset_default_delta_memo()
            report = sync_collection(
                tree.old, tree.new, method_factory(),
                window=window, delta_memo=True,
            )
            counters[window] = {k: getattr(report, k) for k in CACHE_COUNTERS}
        assert counters[8] == counters[1]
        assert counters[8]["cache_hits"] > 0


# ----------------------------------------------------------------------
# Crash mid-cohort, resume under the other scheduler
# ----------------------------------------------------------------------
def run_cli(*args, crash_env=None):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_CRASH")}
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    if crash_env:
        env.update(crash_env)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.fixture
def crash_pair(tmp_path):
    old_dir = tmp_path / "old"
    new_dir = tmp_path / "new"
    old_dir.mkdir()
    new_dir.mkdir()
    new_side = {}
    for index, seed in enumerate([941, 942, 943]):
        old, new = make_version_pair(seed=seed, nbytes=15000, edits=8)
        (old_dir / f"f{index}.bin").write_bytes(old)
        (new_dir / f"f{index}.bin").write_bytes(new)
        new_side[f"f{index}.bin"] = new
    return old_dir, new_dir, new_side


class TestCrashSchedulerInterchange:
    """Checkpoints are scheduler-agnostic: a run crashed mid-cohort under
    one scheduler resumes under the other."""

    @pytest.mark.parametrize(
        "crash_flags,resume_flags",
        [
            pytest.param(["--window", "3"], ["--window", "1"],
                         id="pipelined-crash-sequential-resume"),
            pytest.param(["--window", "1"], ["--window", "3"],
                         id="sequential-crash-pipelined-resume"),
        ],
    )
    def test_crash_resume_across_schedulers(self, tmp_path, crash_pair,
                                            crash_flags, resume_flags):
        old_dir, new_dir, new_side = crash_pair
        ckpt = tmp_path / "ckpt"
        out = tmp_path / "out"

        proc = run_cli(
            "sync", old_dir, new_dir,
            "--checkpoint-dir", ckpt, "--output", out, *crash_flags,
            crash_env={"REPRO_CRASH_AFTER_CHECKPOINTS": "4"},
        )
        assert proc.returncode == -signal.SIGKILL, (
            f"expected SIGKILL, got rc={proc.returncode}\n"
            f"stdout: {proc.stdout}\nstderr: {proc.stderr}"
        )
        assert sorted(ckpt.glob("*.ckpt")), "crashed run left no journal"

        proc = run_cli(
            "sync", old_dir, new_dir,
            "--checkpoint-dir", ckpt, "--output", out,
            "--resume", "--json", *resume_flags,
        )
        assert proc.returncode == 0, proc.stderr
        run = json.loads(proc.stdout)
        assert run["rounds_salvaged"] >= 1
        assert run["resume_handshake_bits"] > 0
        assert run["pipelined"] == (resume_flags[-1] != "1")
        for name, data in new_side.items():
            assert (out / name).read_bytes() == data
        assert sorted(ckpt.glob("*.ckpt")) == []

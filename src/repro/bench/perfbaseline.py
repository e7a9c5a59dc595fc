"""Perf-regression baselines: one registry of suites (``BENCH_<suite>.json``).

The paper's closing note (§6.2) concedes the prototype "runs at a speed
of up to a few MB of raw data per second" — CPU throughput, not wire
bytes, is the deployment bottleneck.  This harness pins that throughput
down so it cannot silently regress.  Each :class:`Suite` row in
:data:`SUITES` is one committed baseline: its seeded workload
parameters, the function that times its ops, the ratios derived from
those ops with the floors the gates enforce, and the fields that must
reproduce exactly.  Everything else — the ``environment`` block, the
``derived`` block, the table title, the ``repro-sync bench perf`` loop
and the gates in ``benchmarks/test_perf_baseline.py`` — is written once
and reads the table.

The suites:

* ``parallel`` — core substrate ops (vectorised window-hash scan, rsync
  token matching, zdelta encoding) and the collection executor's two
  dispatch substrates (zero-copy shared-memory arena vs. classic pickle).
  The executor ops use a fingerprint *probe* method — it MD5s both
  payloads and nothing else — so they isolate the dispatch substrate
  (serialization, page traffic, scheduling), not protocol compute;
* ``delta`` — the delta-matching engines (vectorized vs. scalar oracle);
* ``protocol`` — the whole-round protocol engines, cold-cache;
* ``pipeline`` — modelled link wall clock of sequential vs. pipelined
  collection sync over a slow link (machine-independent);
* ``reuse`` — the cross-file reuse layer on an 8-client fleet.

Timings are best-of-``rounds`` wall clock, the steady-state figure.
Baselines are machine-specific: compare runs against a baseline recorded
on comparable hardware and use a generous tolerance in CI (the committed
files record the reference machine's numbers).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.syncmethod import MethodOutcome, SyncMethod

#: Format marker for the ``BENCH_<suite>.json`` files.
SCHEMA_VERSION = 1

#: Comparison tolerance: an op regresses when it is slower than
#: ``committed * (1 + tolerance)``.  0.5 locally; CI uses 2.0 (3x).
DEFAULT_TOLERANCE = 0.5


class FingerprintProbeMethod(SyncMethod):
    """Reads every payload byte (MD5) and does nothing else.

    The cheapest *honest* per-file method: every byte of ``old`` and
    ``new`` is touched exactly once, so executor timings measure the
    dispatch substrate, not protocol compute.
    """

    name = "fingerprint-probe"
    supports_pickle = True

    def sync_file(self, old: bytes, new: bytes) -> MethodOutcome:
        digest_bytes = len(hashlib.md5(old).digest()) + len(
            hashlib.md5(new).digest()
        )
        return MethodOutcome(
            total_bytes=digest_bytes,
            server_to_client=digest_bytes,
            breakdown={"s2c/probe": digest_bytes},
        )


@dataclass
class OpTiming:
    """Best-of-rounds timing of one substrate operation."""

    name: str
    seconds: float
    payload_bytes: int
    rounds: int

    @property
    def mb_per_s(self) -> float:
        if self.seconds <= 0.0:
            return 0.0
        return self.payload_bytes / self.seconds / 1e6

    def to_row(self) -> dict[str, object]:
        return {
            "seconds": round(self.seconds, 6),
            "mb_per_s": round(self.mb_per_s, 3),
            "payload_bytes": self.payload_bytes,
            "rounds": self.rounds,
        }

    @classmethod
    def from_row(cls, name: str, row: dict) -> "OpTiming":
        return cls(
            name=name,
            seconds=float(row["seconds"]),
            payload_bytes=int(row["payload_bytes"]),
            rounds=int(row.get("rounds", 1)),
        )


@dataclass
class PerfBaseline:
    """One full measurement of a suite (one ``BENCH_<suite>.json``)."""

    workload: dict[str, int]
    ops: dict[str, OpTiming]
    environment: dict[str, object] = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    def to_json(self) -> str:
        derived = {}
        for ratio in RATIOS:
            value = ratio.of(self)
            if value:
                derived[ratio.key] = round(value, ratio.digits)
        payload = {
            "schema": self.schema,
            "workload": dict(self.workload),
            "environment": dict(self.environment),
            "ops": {name: op.to_row() for name, op in sorted(self.ops.items())},
            "derived": derived,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "PerfBaseline":
        payload = json.loads(text)
        return cls(
            schema=int(payload.get("schema", 0)),
            workload={k: int(v) for k, v in payload["workload"].items()},
            environment=dict(payload.get("environment", {})),
            ops={
                name: OpTiming.from_row(name, row)
                for name, row in payload["ops"].items()
            },
        )


def save_baseline(baseline: PerfBaseline, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(baseline.to_json())
    return path


def load_baseline(path: str | Path) -> PerfBaseline:
    return PerfBaseline.from_json(Path(path).read_text())


def check_tolerance(tolerance: float) -> None:
    """Raise ValueError unless ``tolerance`` is a usable regression budget.

    NaN and infinity are refused: every ``seconds > budget`` comparison
    against them is false, which would switch the gate off.
    """
    if not math.isfinite(tolerance) or tolerance < 0:
        raise ValueError(
            f"tolerance must be a finite number >= 0, got {tolerance}"
        )


def compare_baselines(
    current: PerfBaseline,
    committed: PerfBaseline,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Regression report: committed ops that are missing or too slow now.

    An op regresses when it is slower than ``committed * (1 + tolerance)``.
    A committed op absent from ``current`` is a finding too, unless it is
    an arena op and this machine has no arena (see :func:`op_runs_here`).
    Ops only ``current`` has are skipped — the baseline schema may grow.
    Returns human-readable findings (empty = no regression).
    """
    check_tolerance(tolerance)
    findings: list[str] = []
    for name, committed_op in sorted(committed.ops.items()):
        current_op = current.ops.get(name)
        if current_op is None:
            if op_runs_here(name):
                findings.append(f"{name}: missing from the current measurement")
            continue
        if committed_op.seconds <= 0:
            continue
        budget = committed_op.seconds * (1.0 + tolerance)
        if current_op.seconds > budget:
            findings.append(
                f"{name}: {current_op.seconds:.4f}s exceeds "
                f"{committed_op.seconds:.4f}s baseline "
                f"(+{tolerance:.0%} budget = {budget:.4f}s)"
            )
    return findings


# ----------------------------------------------------------------------
# Workload construction (seeded, deterministic)
# ----------------------------------------------------------------------
def build_workload(
    files: int = 64,
    file_kb: int = 384,
    edits: int = 12,
    seed: int = 20240806,
) -> tuple[dict[str, bytes], dict[str, bytes]]:
    """``files`` distinct pseudo-random file pairs, every file changed."""
    rng = random.Random(seed)
    size = file_kb * 1024
    old_side: dict[str, bytes] = {}
    new_side: dict[str, bytes] = {}
    for index in range(files):
        old = rng.randbytes(size)
        new = bytearray(old)
        for _ in range(edits):
            at = rng.randrange(max(1, size - 256))
            new[at : at + 64] = rng.randbytes(96)
        name = f"f{index:03d}.bin"
        old_side[name] = old
        new_side[name] = bytes(new)
    return old_side, new_side


def build_delta_workload(
    files: int, file_kb: int, seed: int
) -> list[tuple[bytes, bytes]]:
    """``files`` reference/target pairs with interleaved shared and novel runs.

    Each target alternates copied reference regions (2–8 KB, what real
    version chains share) with novel random runs (1–4 KB, what the
    matcher must emit as literals) — roughly 40% novel bytes overall.
    Novel runs are where the scalar loop pays two binary searches per
    byte, so this is the profile the delta-throughput gate watches.
    """
    rng = random.Random(seed)
    size = file_kb * 1024
    pairs: list[tuple[bytes, bytes]] = []
    for _ in range(files):
        reference = rng.randbytes(size)
        target = bytearray()
        position = 0
        while position < size:
            copy_length = rng.randrange(2048, 8192)
            target += reference[position : position + copy_length]
            position += copy_length
            target += rng.randbytes(rng.randrange(1024, 4096))
        pairs.append((reference, bytes(target)))
    return pairs


def best_of(rounds: int, run: Callable[[], object]) -> float:
    """Fastest wall clock of ``rounds`` calls of ``run`` (at least one)."""
    best = float("inf")
    for _ in range(max(1, rounds)):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


# ----------------------------------------------------------------------
# Per-suite measurement: each returns the suite's ops
# ----------------------------------------------------------------------
def _measure_parallel(
    files: int, file_kb: int, workers: int, rounds: int, seed: int
) -> dict[str, OpTiming]:
    """Core substrate micro-ops on one pair, then executor dispatch.

    ``executor_arena`` is recorded only where the arena engages (POSIX
    shared memory available).
    """
    from repro.delta import zdelta_encode
    from repro.hashing import DecomposableAdler, window_hashes
    from repro.parallel import FileTask, SyncExecutor, arena_available
    from repro.rsync import compute_signatures, match_tokens

    old_side, new_side = build_workload(files=files, file_kb=file_kb, seed=seed)
    tasks = [
        FileTask(name, old_side[name], new_side[name]) for name in old_side
    ]
    payload = sum(task.total_bytes for task in tasks)
    ops: dict[str, OpTiming] = {}

    def record(name: str, seconds: float, nbytes: int, used_rounds: int) -> None:
        ops[name] = OpTiming(name, seconds, nbytes, used_rounds)

    # --- core substrate micro-ops on one representative pair ----------
    sample_old = tasks[0].old
    sample_new = tasks[0].new
    hasher = DecomposableAdler(seed=1)

    scan_rounds = max(rounds, 3)
    record(
        "window_hash_scan",
        best_of(scan_rounds, lambda: window_hashes(sample_old, 64, hasher)),
        len(sample_old),
        scan_rounds,
    )

    signatures = compute_signatures(sample_old, 700)
    record(
        "match_tokens",
        best_of(rounds, lambda: match_tokens(sample_new, signatures, 2)),
        len(sample_new),
        rounds,
    )

    delta_old = sample_old[: 128 * 1024]
    delta_new = sample_new[: 128 * 1024]
    record(
        "zdelta_encode",
        best_of(rounds, lambda: zdelta_encode(delta_old, delta_new)),
        len(delta_new),
        rounds,
    )

    # --- collection-sync dispatch: pickle vs zero-copy arena ----------
    probe = FingerprintProbeMethod()

    pickle_executor = SyncExecutor(workers=workers, use_arena=False)
    record(
        "executor_pickle",
        best_of(rounds, lambda: pickle_executor.run(probe, tasks)),
        payload,
        rounds,
    )

    if arena_available():
        arena_executor = SyncExecutor(workers=workers, use_arena=True)
        sample_batch = arena_executor.run(probe, tasks)
        if sample_batch.arena_used:
            record(
                "executor_arena",
                best_of(rounds, lambda: arena_executor.run(probe, tasks)),
                payload,
                rounds,
            )
    return ops


def _measure_delta(
    files: int, file_kb: int, rounds: int, seed: int, scalar_files: int
) -> dict[str, OpTiming]:
    """Time the delta-matching engines on the seeded mixed workload.

    * ``delta_index_build`` — ``ReferenceMatcher`` construction (the
      cost the :class:`~repro.parallel.cache.ReferenceIndexCache`
      amortises away on repeated references);
    * ``delta_match_vectorized`` — the batched engine over every pair;
    * ``delta_match_scalar`` — the oracle loop over the first
      ``scalar_files`` pairs (MB/s normalises by payload).

    Matchers are prebuilt so both engines time the matching loop itself,
    not index construction; payload counts *target* bytes matched.
    """
    from repro.delta.matcher import ReferenceMatcher, compute_instructions

    pairs = build_delta_workload(files=files, file_kb=file_kb, seed=seed)
    matchers = [ReferenceMatcher(reference) for reference, _target in pairs]
    ops: dict[str, OpTiming] = {}

    build_rounds = max(1, rounds - 1)
    ops["delta_index_build"] = OpTiming(
        "delta_index_build",
        best_of(
            build_rounds,
            lambda: ReferenceMatcher(pairs[0][0]),
        ),
        len(pairs[0][0]),
        build_rounds,
    )

    def run_engine(engine: str, count: int) -> None:
        for (reference, target), matcher in zip(pairs[:count], matchers[:count]):
            compute_instructions(
                reference, target, matcher=matcher, engine=engine
            )

    ops["delta_match_vectorized"] = OpTiming(
        "delta_match_vectorized",
        best_of(rounds, lambda: run_engine("vectorized", files)),
        sum(len(target) for _reference, target in pairs),
        rounds,
    )

    scalar_files = max(1, min(scalar_files, files))
    scalar_rounds = max(1, rounds - 1)
    ops["delta_match_scalar"] = OpTiming(
        "delta_match_scalar",
        best_of(scalar_rounds, lambda: run_engine("scalar", scalar_files)),
        sum(len(target) for _reference, target in pairs[:scalar_files]),
        scalar_rounds,
    )
    return ops


def _measure_protocol(
    files: int, file_kb: int, rounds: int, seed: int, scalar_files: int
) -> dict[str, OpTiming]:
    """Time the whole-round protocol engines on the seeded mixed workload.

    * ``protocol_sync_vectorized`` — end-to-end :func:`repro.core.synchronize`
      with the batched engine over every pair;
    * ``protocol_sync_scalar`` — the scalar parity oracle over the first
      ``scalar_files`` pairs (MB/s normalises by payload).

    Each timed pass starts from a cold :func:`~repro.parallel.cache.
    default_cache` — the shared content-keyed :class:`HashIndexCache`
    would otherwise hand whichever engine runs second prebuilt indexes
    and corrupt the ratio.
    """
    from repro.core import ProtocolConfig, synchronize
    from repro.parallel.cache import reset_default_cache

    pairs = build_delta_workload(files=files, file_kb=file_kb, seed=seed)
    config = ProtocolConfig()
    ops: dict[str, OpTiming] = {}

    def run_engine(engine: str, count: int) -> None:
        reset_default_cache()
        for reference, target in pairs[:count]:
            synchronize(reference, target, config, engine=engine)

    rounds = max(1, rounds)
    ops["protocol_sync_vectorized"] = OpTiming(
        "protocol_sync_vectorized",
        best_of(rounds, lambda: run_engine("vectorized", files)),
        sum(len(target) for _reference, target in pairs),
        rounds,
    )

    scalar_files = max(1, min(scalar_files, files))
    ops["protocol_sync_scalar"] = OpTiming(
        "protocol_sync_scalar",
        best_of(rounds, lambda: run_engine("scalar", scalar_files)),
        sum(len(target) for _reference, target in pairs[:scalar_files]),
        rounds,
    )
    reset_default_cache()
    return ops


def _measure_pipeline(
    files: int, file_kb: int, window: int, seed: int, latency_ms: int
) -> dict[str, OpTiming]:
    """Measure the pipelined scheduler's latency hiding.

    Runs the same seeded workload through
    :func:`~repro.collection.sync.sync_collection` twice with the
    paper's protocol — sequentially and pipelined with ``window`` files
    in flight — over a ``latency_ms`` one-way-delay link (150 ms = a
    300 ms-RTT slow network).  Each op records the *modelled* link wall
    clock as its timing and the wire direction reversals as its round
    count, so the record is fully deterministic: byte counts and
    reversal counts do not depend on the machine.
    """
    from repro.bench.methods import OursMethod
    from repro.collection.sync import sync_collection
    from repro.net.channel import LinkModel

    old_side, new_side = build_workload(files=files, file_kb=file_kb, seed=seed)
    payload = sum(len(data) for data in new_side.values())
    link = LinkModel(latency_s=latency_ms / 1000)
    ops: dict[str, OpTiming] = {}

    sequential = sync_collection(
        old_side, new_side, OursMethod(), link=link
    )
    ops["collection_sequential"] = OpTiming(
        "collection_sequential",
        sequential.link_wall_clock_s,
        payload,
        sequential.roundtrips_on_wire,
    )

    pipelined = sync_collection(
        old_side,
        new_side,
        OursMethod(),
        link=link,
        pipeline=True,
        window=window,
    )
    ops["collection_pipelined"] = OpTiming(
        "collection_pipelined",
        pipelined.link_wall_clock_s,
        payload,
        pipelined.roundtrips_on_wire,
    )
    return ops


def _measure_reuse(
    clients: int, files: int, versions: int, file_kb: int, rounds: int,
    seed: int,
) -> dict[str, OpTiming]:
    """Measure the cross-file reuse layer on the fleet workload.

    * ``broadcast_cold_client`` — serving the last fleet client from a
      freshly-built :class:`~repro.reuse.broadcast.BroadcastDeltaServer`
      (empty memo: every delta computed from scratch);
    * ``broadcast_warm_client`` — serving the *same* client after the
      rest of the fleet primed the shared memo cache (the steady-state
      Nth-client cost the layer is designed for);
    * ``broadcast_wire_sibling`` / ``broadcast_wire_full`` — total fleet
      wire bytes (recorded as the payload) with the sibling-reference
      path on and off.
    """
    from repro.reuse import BroadcastDeltaServer, DedupStore, DeltaMemoCache
    from repro.workloads.fleet import make_fleet

    fleet = make_fleet(
        clients=clients,
        files=files,
        versions=versions,
        seed=seed,
        mean_size=file_kb * 1024,
    )
    last_client = fleet.clients[-1].files
    payload = sum(len(data) for data in fleet.server.values())
    ops: dict[str, OpTiming] = {}

    def fresh_server(resemblance_threshold: float = 0.5) -> BroadcastDeltaServer:
        server = BroadcastDeltaServer(
            fleet.server,
            memo=DeltaMemoCache(),
            dedup=DedupStore(),
            resemblance_threshold=resemblance_threshold,
        )
        for version in fleet.versions[:-1]:
            server.ingest_history(version)
        return server

    rounds = max(1, rounds)
    cold_best = float("inf")
    for _ in range(rounds):
        server = fresh_server()
        started = time.perf_counter()
        server.serve(last_client)
        cold_best = min(cold_best, time.perf_counter() - started)
    ops["broadcast_cold_client"] = OpTiming(
        "broadcast_cold_client", cold_best, payload, rounds
    )

    warm_server = fresh_server()
    for client in fleet.clients:
        warm_server.serve(client.files)
    ops["broadcast_warm_client"] = OpTiming(
        "broadcast_warm_client",
        best_of(rounds, lambda: warm_server.serve(last_client)),
        payload,
        rounds,
    )

    for op_name, threshold in (
        ("broadcast_wire_sibling", 0.5),
        ("broadcast_wire_full", 2.0),  # nothing resembles above 1.0
    ):
        server = fresh_server(resemblance_threshold=threshold)
        started = time.perf_counter()
        wire = sum(
            server.serve(client.files).wire_bytes for client in fleet.clients
        )
        ops[op_name] = OpTiming(
            op_name, time.perf_counter() - started, wire, 1
        )
    return ops


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Ratio:
    """A figure of merit derived from two ops of one suite.

    A ``speedup`` is ``op`` MB/s over ``versus`` MB/s — throughput-based,
    so a scalar oracle may be timed on a payload subset.  A ``savings`` is
    the fraction of ``versus`` payload bytes that ``op`` does without.
    The committed baseline must show ``> 0`` and ``>= committed_floor``;
    a fresh measurement must show ``>= floor_default``, overridable via
    the ``floor_env`` environment variable (no current-machine floor
    when ``floor_env`` is None).
    """

    key: str
    label: str
    op: str
    versus: str
    kind: str = "speedup"
    committed_floor: float = 0.0
    floor_env: str | None = None
    floor_default: float = 0.0

    @property
    def digits(self) -> int:
        """Decimal places kept in the ``derived`` block."""
        return 4 if self.kind == "savings" else 3

    def of(self, baseline: PerfBaseline) -> float:
        """This ratio on ``baseline`` (0.0 when either op is absent)."""
        op, versus = baseline.ops.get(self.op), baseline.ops.get(self.versus)
        if op is None or versus is None:
            return 0.0
        if self.kind == "savings":
            if versus.payload_bytes <= 0:
                return 0.0
            return 1.0 - op.payload_bytes / versus.payload_bytes
        if versus.mb_per_s <= 0:
            return 0.0
        return op.mb_per_s / versus.mb_per_s


@dataclass(frozen=True)
class Suite:
    """One committed perf baseline, ``BENCH_<name>.json``.

    ``params`` is the seeded workload, exactly as written to the file's
    ``workload`` block and passed to ``measure`` by keyword.
    ``arena_ops`` run only where the shared-memory arena is available
    (recorded as ``arena_available`` in ``environment``).
    ``same_payload`` ops must carry equal payloads in the committed file.
    ``exact`` maps an op to the fields a fresh run must reproduce (to the
    millisecond for modelled seconds, exactly for integers).
    """

    name: str
    params: dict[str, int]
    measure: Callable[..., dict[str, OpTiming]]
    ops: tuple[str, ...]
    ratios: tuple[Ratio, ...]
    arena_ops: tuple[str, ...] = ()
    same_payload: tuple[str, ...] = ()
    exact: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def file_name(self) -> str:
        return f"BENCH_{self.name}.json"


SUITES: dict[str, Suite] = {
    suite.name: suite
    for suite in (
        Suite(
            name="parallel",
            params={"files": 64, "file_kb": 384, "workers": 4, "rounds": 3,
                    "seed": 20240806},
            measure=_measure_parallel,
            ops=("executor_arena", "executor_pickle", "match_tokens",
                 "window_hash_scan", "zdelta_encode"),
            ratios=(
                Ratio("executor_arena_speedup",
                      "arena speedup {:.2f}x over pickle dispatch",
                      "executor_arena", "executor_pickle",
                      committed_floor=1.3,
                      floor_env="REPRO_PERF_MIN_SPEEDUP", floor_default=1.05),
            ),
            arena_ops=("executor_arena",),
            same_payload=("executor_arena", "executor_pickle"),
        ),
        Suite(
            name="delta",
            params={"files": 64, "file_kb": 96, "rounds": 3,
                    "seed": 20240806, "scalar_files": 4},
            measure=_measure_delta,
            ops=("delta_index_build", "delta_match_scalar",
                 "delta_match_vectorized"),
            ratios=(
                Ratio("delta_vectorized_speedup",
                      "vectorized delta match {:.2f}x over scalar",
                      "delta_match_vectorized", "delta_match_scalar",
                      committed_floor=3.0,
                      floor_env="REPRO_PERF_MIN_DELTA_SPEEDUP",
                      floor_default=1.5),
            ),
        ),
        Suite(
            name="protocol",
            params={"files": 64, "file_kb": 96, "rounds": 1,
                    "seed": 20240806, "scalar_files": 4},
            measure=_measure_protocol,
            ops=("protocol_sync_scalar", "protocol_sync_vectorized"),
            ratios=(
                Ratio("protocol_vectorized_speedup",
                      "vectorized protocol {:.2f}x over scalar",
                      "protocol_sync_vectorized", "protocol_sync_scalar",
                      committed_floor=3.0,
                      floor_env="REPRO_PERF_MIN_PROTOCOL_SPEEDUP",
                      floor_default=1.5),
            ),
        ),
        Suite(
            name="pipeline",
            params={"files": 64, "file_kb": 24, "window": 8,
                    "seed": 20240806, "latency_ms": 150},
            measure=_measure_pipeline,
            ops=("collection_pipelined", "collection_sequential"),
            ratios=(
                Ratio("pipeline_latency_speedup",
                      "pipelined wall clock {:.2f}x over sequential",
                      "collection_pipelined", "collection_sequential",
                      committed_floor=4.0,
                      floor_env="REPRO_PERF_MIN_PIPELINE_SPEEDUP",
                      floor_default=4.0),
            ),
            exact={"collection_pipelined": ("seconds", "rounds"),
                   "collection_sequential": ("seconds", "rounds")},
        ),
        Suite(
            name="reuse",
            params={"clients": 8, "files": 12, "versions": 4, "file_kb": 24,
                    "rounds": 3, "seed": 20240806},
            measure=_measure_reuse,
            ops=("broadcast_cold_client", "broadcast_warm_client",
                 "broadcast_wire_full", "broadcast_wire_sibling"),
            ratios=(
                Ratio("reuse_memo_speedup",
                      "warm memo serve {:.2f}x over cold",
                      "broadcast_warm_client", "broadcast_cold_client",
                      committed_floor=5.0,
                      floor_env="REPRO_PERF_MIN_REUSE_SPEEDUP",
                      floor_default=5.0),
                Ratio("sibling_wire_savings",
                      "sibling refs save {:.1%} of fleet wire bytes",
                      "broadcast_wire_sibling", "broadcast_wire_full",
                      kind="savings"),
            ),
            exact={"broadcast_wire_full": ("payload_bytes",),
                   "broadcast_wire_sibling": ("payload_bytes",)},
        ),
    )
}

#: Every suite's ratios, in registry order (``derived`` keys, title parts).
RATIOS: tuple[Ratio, ...] = tuple(
    ratio for suite in SUITES.values() for ratio in suite.ratios
)


def _arena_available() -> bool:
    from repro.parallel import arena_available

    return arena_available()


def op_runs_here(name: str) -> bool:
    """False only for an arena op on a machine without the arena."""
    if any(name in suite.arena_ops for suite in SUITES.values()):
        return _arena_available()
    return True


def measure_suite(suite: Suite, workers: int | None = None) -> PerfBaseline:
    """Time every op of ``suite`` on its seeded workload; return the record.

    ``workers`` overrides the executor worker count of suites whose
    workload has one (``parallel``); the others ignore it.
    """
    params = dict(suite.params)
    if workers is not None and "workers" in params:
        params["workers"] = workers
    environment: dict[str, object] = {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    if suite.arena_ops:
        environment["arena_available"] = _arena_available()
    return PerfBaseline(
        workload=params, ops=suite.measure(**params), environment=environment
    )


def render_baseline(baseline: PerfBaseline) -> str:
    """Terminal table of one measurement (CLI + benchmark output)."""
    from repro.bench.report import render_table

    rows = []
    for name, op in sorted(baseline.ops.items()):
        rows.append(
            [
                name,
                f"{op.seconds * 1000:.1f}",
                f"{op.mb_per_s:,.1f}",
                f"{op.payload_bytes / 1024:,.0f}",
                str(op.rounds),
            ]
        )
    title = (
        f"perf baseline — {baseline.workload['files']} files × "
        f"{baseline.workload['file_kb']} KB"
    )
    if "workers" in baseline.workload:
        title += f", workers={baseline.workload['workers']}"
    for ratio in RATIOS:
        value = ratio.of(baseline)
        if value:
            title += "; " + ratio.label.format(value)
    return render_table(
        ["op", "ms (best)", "MB/s", "payload KB", "rounds"], rows, title=title
    )

"""Cold-process benchmark of ``repro.cli sync`` on seeded directory trees.

Run from the root of a checkout::

    python3 perfbench/run.py --workload reorg --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload reorg --seed 1 --seconds 36 --trace 1
    python3 perfbench/run.py --smoke

Each timed sync is one fresh ``python -m repro.cli sync OLD NEW --json
--output OUT --workers 1`` process, so every sync pays interpreter start,
imports and cold caches, as a user's does.  Every sync is checked: OUT
must equal NEW byte for byte, the CLI must report no failed file, and
the wire and ladder figures must repeat exactly across the syncs of a
run.  Over a fault-free link no file may be retried or fall back: the
CLI rescues a wrongly rebuilt file with a full transfer, so a fallback
there is the only trace of a wrong rebuild.  A workload with a faulty
link is also synced once without its faults, under that rule.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds one
traced sync (see bootstrap.py) and prints the per-layer metrics, a
per-layer table and the path of a Chrome trace.  The last line of
standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, Metric
from tracer import BOUNDARIES, self_seconds, span_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch trees and results, inside the checkout (listed in .gitignore).
WORK = ROOT / ".perfbench"

#: Fresh interpreters timed for ``setup_s`` before each untraced sync,
#: so the samples spread over the run like the syncs do.
SETUP_PER_SYNC = 2
#: Untraced syncs per run even when ``--seconds`` has already elapsed.
MIN_SYNCS = 3


class BenchmarkError(Exception):
    """The program under test did not run, or produced a wrong tree."""


@dataclass
class Sync:
    """One cold CLI sync process and what it reported."""

    wall_s: float
    peak_rss_mb: float
    report: dict
    wire: tuple  # (wire_bytes, roundtrips, link_s)
    failed_names: list[str] = field(default_factory=list)
    #: Synced over a fault-free link: every changed file must finish on
    #: the protocol's first attempt, with no retry and no fallback.
    clean: bool = True

    @property
    def failed(self) -> int:
        """Changed files the protocol did not deliver byte-exact."""
        reported = self.report["failed_files"]
        if self.clean:
            reported += self.report["fallback_files"]
        return max(reported, len(self.failed_names))

    @property
    def repeat(self) -> tuple:
        """What must be identical across the syncs of a run."""
        return (*self.wire, self.report["retries"],
                self.report["fallback_files"])


def _spawn(
    argv: list[str], stdout: Path, stderr: Path
) -> tuple[float, int, float]:
    """Run ``argv`` to completion; (wall seconds, exit code, peak RSS MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


def measure_setup(work: Path, samples: int) -> list[float]:
    """Wall seconds of ``samples`` fresh interpreters importing repro.cli."""
    argv = [sys.executable, "-c", "import repro.cli"]
    walls = []
    for _ in range(samples):
        wall, code, _ = _spawn(argv, work / "setup.out", work / "setup.err")
        if code != 0:
            raise BenchmarkError(
                "import repro.cli failed:\n" + (work / "setup.err").read_text()
            )
        walls.append(wall)
    return walls


class Runner:
    """Syncs one generated workload in fresh processes and checks each."""

    def __init__(self, workload, work: Path) -> None:
        from workloads import write_tree  # needs src on sys.path

        self.workload = workload
        self.work = work
        self.old, self.new = work / "old", work / "new"
        self.out, self.checkpoints = work / "out", work / "checkpoints"
        write_tree(self.old, workload.old)
        write_tree(self.new, workload.new)
        flags = [
            flag.format(checkpoints=self.checkpoints)
            for flag in workload.flags
        ]
        self.cli_args = [
            "sync", str(self.old), str(self.new), "--json",
            "--output", str(self.out), "--workers", "1", *flags,
        ]

    def sync(self, trace_path: Path | None = None,
             faults: bool = True) -> Sync:
        """One sync; ``faults`` False leaves out the workload's faults."""
        for stale in (self.out, self.checkpoints):
            shutil.rmtree(stale, ignore_errors=True)
        cli_args = self.cli_args + list(self.workload.faults if faults else ())
        if trace_path is None:
            argv = [sys.executable, "-m", "repro.cli", *cli_args]
        else:
            argv = [sys.executable, str(HERE / "bootstrap.py"),
                    str(trace_path), *cli_args]
        stdout, stderr = self.work / "sync.out", self.work / "sync.err"
        wall, code, rss = _spawn(argv, stdout, stderr)
        if code != 0:
            raise BenchmarkError(
                f"repro.cli sync exited with {code}:\n{stderr.read_text()}"
            )
        report = json.loads(stdout.read_text())
        from workloads import read_tree  # needs src on sys.path

        delivered = read_tree(self.out) if self.out.is_dir() else {}
        expected = self.workload.new
        failed_names = sorted(
            name for name in set(delivered) | set(expected)
            if delivered.get(name) != expected.get(name)
        )
        wire = (
            report["total_bytes"] + report["retransmitted_bytes"],
            report["roundtrips_on_wire"],
            report["link_wall_clock_s"] + report["recovery_seconds"],
        )
        clean = not (faults and self.workload.faults)
        return Sync(wall, rss, report, wire, failed_names, clean)


def end_to_end(syncs: list[Sync], setup_s: float | None,
               worst_failed: int) -> dict[str, float]:
    """Medians over the untraced ``syncs``; ``worst_failed`` over all syncs."""
    first = syncs[0]
    changed = max(first.report["files_changed"], 1)
    return {
        "sync_s": statistics.median(sync.wall_s for sync in syncs),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(sync.peak_rss_mb for sync in syncs),
        "wire_bytes": first.wire[0],
        "roundtrips": first.wire[1],
        "link_s": first.wire[2],
        "delivered_frac": 1.0 - min(worst_failed, changed) / changed,
    }


def per_layer(trace: dict, report: dict, traced_wall: float,
              sync_s: float) -> dict[str, float | None]:
    """Per-layer figures from one traced sync; None marks ``absent``."""
    from repro.net.channel import LinkModel

    status = trace["otherData"]["boundaries"]
    calls = trace["otherData"]["calls"]
    counters = trace["otherData"]["counters"]
    own = self_seconds(trace)

    def present(*names: str) -> bool:
        return any(status.get(name) == "ok" for name in names)

    def seconds(*names: str) -> float | None:
        return span_seconds(trace, set(names)) if present(*names) else None

    def count(name: str) -> int | None:
        return calls.get(name, 0) if present(name) else None

    def counter(name: str, key: str) -> float | None:
        return counters.get(f"{name}.{key}", 0) if present(name) else None

    def self_time(name: str) -> float | None:
        return own.get(name, 0.0) if present(name) else None

    def ratio(part, whole) -> float | None:
        if part is None or whole is None:
            return None
        return part / whole if whole else 0.0

    def hit_rate(prefix: str) -> float | None:
        hits, misses = get(f"{prefix}_hits"), get(f"{prefix}_misses")
        return ratio(hits, None if hits is None else hits + misses)

    def phase_bytes(phase: str) -> int:
        return sum(
            size for key, size in report.get("breakdown", {}).items()
            if key.split("/")[-1] == phase
        )

    get = report.get
    changed = get("files_changed")
    latency_s = 2.0 * LinkModel().latency_s * report["roundtrips_on_wire"]
    encode_s = seconds("emit_delta")
    encoded = counter("emit_delta", "target_bytes")

    values: dict[str, float | None] = {
        "collection.detect_s": seconds("manifest", "diff_manifests"),
        "collection.manifest_bytes": get("manifest_bytes"),
        "collection.added_bytes": get("added_bytes"),
        "collection.store_write_s": seconds("store_write"),
        "collection.store_bytes": counter("store_write", "bytes"),
        "parallel.dispatch_self_s": self_time("executor_run"),
        "parallel.index_cache_hit_rate": hit_rate("cache"),
        "parallel.ref_cache_hit_rate": hit_rate("ref_cache"),
        "core.sessions": count("session_init"),
        "core.rounds": count("step_round"),
        "core.session_init_s": seconds("session_init"),
        "core.server_emit_s": seconds("emit_hashes"),
        "core.client_lookup_s": seconds("process_hashes"),
        "core.verify_s": seconds("server_verify", "client_verify"),
        "core.round_self_s": self_time("step_round"),
        "core.accept_rate": ratio(
            counter("subphase", "accepted"), counter("subphase", "candidates")
        ),
        "core.map_bytes": phase_bytes("map"),
        "delta.encode_s": encode_s,
        "delta.encode_mb_s": (
            None if encode_s is None
            else (encoded / 1e6 / encode_s if encode_s else 0.0)
        ),
        "delta.decode_s": seconds("apply_delta"),
        "delta.bytes": phase_bytes("delta"),
        "hashing.fingerprint_s": seconds("fingerprint"),
        "hashing.fingerprint_calls": count("fingerprint"),
        "net.messages": count("send"),
        "net.send_s": seconds("send"),
        "net.link_latency_s": latency_s,
        "net.link_transfer_s": report["link_wall_clock_s"] - latency_s,
        "net.retransmit_bytes": get("retransmitted_bytes"),
        "net.faults_injected": counter("next_fault", "faults"),
        "resilience.retries": get("retries"),
        "resilience.first_rung_frac": ratio(
            None if changed is None else changed - get("fallback_files"),
            changed,
        ),
        "resilience.backoff_s": get("adaptive_backoff_s"),
        "resilience.rounds_salvaged": get("rounds_salvaged"),
        "resilience.checkpoint_write_s": seconds(
            "journal_record", "journal_commit"
        ),
        "resilience.checkpoint_bytes": get("checkpoint_bytes_written"),
        "reuse.sketch_s": seconds("sketch_add", "sketch_signature"),
        "reuse.lookup_s": seconds("best_reference"),
        "reuse.dedup_hits": get("dedup_hits"),
        "reuse.sibling_refs": get("sibling_refs_used"),
        "reuse.bytes_saved": get("bytes_saved_vs_self_ref"),
        "reuse.memo_hit_rate": hit_rate("delta_memo"),
        "trace.overhead_s": traced_wall - sync_s,
    }
    layers = {boundary.layer for boundary in BOUNDARIES}
    for layer in sorted(layers):
        names = [b.name for b in BOUNDARIES if b.layer == layer]
        values[f"{layer}.self_s"] = (
            sum(own.get(name, 0.0) for name in names)
            if present(*names) else None
        )
    return values


def layer_table(values: dict[str, float | None]) -> str:
    """Markdown table of ``values``; perfbench/README.md explains each."""
    lines = ["| metric | value | unit |", "|---|---|---|"]
    for metric in PER_LAYER:
        value = values[metric.name]
        shown = "absent" if value is None else f"{value:.6g}"
        lines.append(f"| {metric.name} | {shown} | {metric.unit} |")
    return "\n".join(lines)


def metric_objects(values: dict[str, float | None],
                   metrics: tuple[Metric, ...]) -> dict[str, dict]:
    """``metrics`` as JSON objects; an absent value stays null, never 0."""
    return {m.name: {"value": values[m.name], "unit": m.unit}
            for m in metrics}


def run(name: str, seed: int, seconds: float, trace: bool, size: str,
        setup_per_sync: int, min_syncs: int) -> dict:
    """One benchmark run.

    Returns ``correct``/``attempted``/``failed`` plus ``end_to_end`` and,
    with ``trace``, ``per_layer`` metric objects (name → value, unit).
    ``setup_s`` is measured only when ``setup_per_sync`` is positive.
    """
    from workloads import build, tree_digest  # needs src on sys.path

    workload = build(name, seed, size)
    print(f"workload {name} seed {seed} ({size}): "
          f"old {len(workload.old)} files {tree_digest(workload.old)}, "
          f"new {len(workload.new)} files {tree_digest(workload.new)}")
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    results = WORK / "results" / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(workload, work)
        setup_walls: list[float] = []
        syncs: list[Sync] = []
        start = time.perf_counter()
        # Start another sync only if it should end within ``seconds``.
        while len(syncs) < min_syncs or (
            (time.perf_counter() - start) * (len(syncs) + 1) / len(syncs)
            <= seconds
        ):
            setup_walls += measure_setup(work, setup_per_sync)
            syncs.append(runner.sync())
        checked = list(syncs)
        if workload.faults:
            checked.append(runner.sync(faults=False))
        if trace:
            results.mkdir(parents=True, exist_ok=True)
            traced = runner.sync(results / "trace.json")
            checked.append(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = _check(checked)
    for failure in failures:
        print(f"INCORRECT: {failure}", file=sys.stderr)
    e2e = end_to_end(
        syncs,
        statistics.median(setup_walls) if setup_walls else None,
        max(sync.failed for sync in checked),
    )
    print(f"{len(syncs)} untraced syncs, sync_s samples: "
          + ", ".join(f"{sync.wall_s:.3f}" for sync in syncs))
    print(f"{len(setup_walls)} setup samples")
    for metric in END_TO_END:
        value = e2e[metric.name]
        shown = "not measured" if value is None else f"{value:.6g}"
        print(f"  {metric.name:>14} {shown} {metric.unit}")
    result = {
        "correct": not failures,
        "attempted": len(checked),
        "failed": sum(1 for sync in checked if sync.failed),
        "end_to_end": metric_objects(e2e, END_TO_END),
    }
    if trace:
        trace_data = json.loads((results / "trace.json").read_text())
        values = per_layer(trace_data, traced.report, traced.wall_s,
                           e2e["sync_s"])
        table = layer_table(values)
        (results / "layers.md").write_text(table + "\n")
        print(table)
        print(f"chrome trace: {results / 'trace.json'}")
        result["per_layer"] = metric_objects(values, PER_LAYER)
    return result


def _check(syncs: list[Sync]) -> list[str]:
    """Every way the syncs of one run disagree with NEW or each other."""
    failures = []
    for index, sync in enumerate(syncs):
        report = sync.report
        if report["failed_files"]:
            failures.append(f"sync {index}: CLI reports "
                            f"{report['failed_files']} failed files")
        if sync.clean and (report["fallback_files"] or report["retries"]):
            failures.append(
                f"sync {index}: {report['fallback_files']} fallbacks and "
                f"{report['retries']} retries over a fault-free link: the "
                "protocol rebuilt a file wrongly or raised"
            )
        if sync.failed_names:
            failures.append(f"sync {index}: OUT differs from NEW at "
                            + ", ".join(sync.failed_names[:10]))
        first = next(other for other in syncs if other.clean == sync.clean)
        if sync.repeat != first.repeat:
            failures.append(
                f"sync {index}: (wire_bytes, roundtrips, link_s, retries, "
                f"fallback_files) {sync.repeat} != {first.repeat}"
            )
    return failures


def smoke() -> int:
    """Tiny scales: one sync plus the traced sync per workload."""
    from workloads import WORKLOADS  # needs src on sys.path

    ok = True
    for name in WORKLOADS:
        result = run(name, seed=1, seconds=0, trace=True, size="smoke",
                     setup_per_sync=1, min_syncs=1)
        printed = {**result["end_to_end"], **result["per_layer"]}
        # A per-layer value may be null: its boundary is absent.
        missing = [
            m.name for m in END_TO_END + PER_LAYER
            if printed.get(m.name, {}).get("unit") != m.unit
            or (m in END_TO_END and printed[m.name]["value"] is None)
        ]
        if missing or not result["correct"]:
            ok = False
            print(f"SMOKE FAILED {name}: missing {missing}", file=sys.stderr)
        print(json.dumps({"workload": name, **result}))
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scales, every workload, then exit")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.smoke:
        return smoke()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     "full", 0 if args.trace else SETUP_PER_SYNC, MIN_SYNCS)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    metrics = result.pop("per_layer" if args.trace else "end_to_end")
    result.pop("end_to_end", None)
    print(json.dumps({**result, "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

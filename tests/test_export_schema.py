"""Golden schema pins for the two machine-readable outputs.

``rows_to_csv([run_to_row(run)])`` and ``repro-sync sync --json`` are read
by scripts and plots outside this package, so their column order, key
order and deterministic values are pinned here exactly: one clean run
and one run over a faulty link with adaptive retry and checkpoints, so
the resilience counters are non-zero.  Values that depend on timing or on
the process-wide caches (warmed by whatever ran earlier in the process)
are pinned by key only.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from repro.bench import OursMethod, run_method_on_collection
from repro.bench.export import rows_to_csv, run_to_row
from repro.cli import main
from repro.net.faults import FaultPlan
from repro.workloads import gcc_like

FAULT_RATE, FAULT_SEED = 0.05, 3

#: Keys whose values vary with timing or warm process-wide caches.
VOLATILE = (
    "elapsed_seconds", "cpu_seconds", "p50_file_seconds",
    "p95_file_seconds", "cache_hits", "cache_misses", "ref_cache_hits",
    "ref_cache_misses", "delta_memo_hits", "delta_memo_misses",
)

COUNTER_COLUMNS = [
    "method", "total_bytes", "manifest_bytes", "changed_bytes",
    "added_bytes", "files_changed", "files_unchanged", "elapsed_seconds",
    "workers", "cpu_seconds", "p50_file_seconds", "p95_file_seconds",
    "cache_hits", "cache_misses", "ref_cache_hits", "ref_cache_misses",
    "arena_used", "arena_bytes", "retries", "fallback_files",
    "failed_files", "retransmitted_bytes", "recovery_seconds",
    "rounds_salvaged", "resume_handshake_bits", "checkpoint_bytes_written",
    "health_score", "breaker_opens", "deadline_salvages",
    "adaptive_backoff_s", "collisions_detected", "repair_rounds",
    "repair_bytes", "pipelined", "waves",
    "roundtrips_on_wire", "link_wall_clock_s", "dedup_hits",
    "delta_memo_hits", "delta_memo_misses", "sibling_refs_used",
    "bytes_saved_vs_self_ref",
]

CLEAN_PHASES = [
    "c2s/fallback", "c2s/handshake", "c2s/map", "s2c/delta",
    "s2c/handshake", "s2c/map",
]
FAULTY_PHASES = [
    "c2s/fallback", "c2s/handshake", "c2s/map", "c2s/resume",
    "c2s/signatures", "s2c/delta", "s2c/handshake", "s2c/map", "s2c/resume",
]

JSON_KEYS = [
    "method", "total_bytes", "manifest_bytes", "changed_bytes",
    "added_bytes", "files_changed", "files_unchanged", "breakdown",
    "workers", "cpu_seconds", "cache_hits", "cache_misses",
    "ref_cache_hits", "ref_cache_misses", "arena_used", "arena_bytes",
    "retries", "fallback_files", "failed_files", "retransmitted_bytes",
    "recovery_seconds", "rounds_salvaged", "resume_handshake_bits",
    "checkpoint_bytes_written", "health_score", "breaker_opens",
    "deadline_salvages", "adaptive_backoff_s", "collisions_detected",
    "repair_rounds", "repair_bytes", "pipelined", "waves",
    "roundtrips_on_wire", "link_wall_clock_s",
    "dedup_hits", "delta_memo_hits", "delta_memo_misses",
    "sibling_refs_used", "bytes_saved_vs_self_ref",
]

_COMMON = {
    "method": "ours", "manifest_bytes": 425, "added_bytes": 0,
    "files_changed": 8, "files_unchanged": 4, "workers": 1,
    "arena_used": False, "arena_bytes": 0, "failed_files": 0,
    "breaker_opens": 0, "deadline_salvages": 0, "collisions_detected": 0,
    "repair_rounds": 0, "repair_bytes": 0, "pipelined": False, "waves": 0,
    "dedup_hits": 0, "sibling_refs_used": 0,
    "bytes_saved_vs_self_ref": 0,
}
CLEAN_VALUES = {
    **_COMMON,
    "total_bytes": 2033, "changed_bytes": 1608,
    "breakdown": {
        "c2s/fallback": 8, "c2s/handshake": 24, "c2s/map": 234,
        "s2c/delta": 976, "s2c/handshake": 144, "s2c/map": 222,
    },
    "retries": 0, "fallback_files": 0, "retransmitted_bytes": 0,
    "recovery_seconds": 0.0, "rounds_salvaged": 0,
    "resume_handshake_bits": 0, "checkpoint_bytes_written": 0,
    "health_score": 1.0, "adaptive_backoff_s": 0.0,
    "roundtrips_on_wire": 296, "link_wall_clock_s": 29.6129,
}
#: The CLI resolves a clean run's window to 8: one cohort of the 8
#: changed files, same bytes, fewer legs on the shared link.
CLI_CLEAN_VALUES = {
    **CLEAN_VALUES,
    "pipelined": True, "waves": 11,
    "roundtrips_on_wire": 61, "link_wall_clock_s": 6.1128,
}
FAULTY_VALUES = {
    **_COMMON,
    "total_bytes": 3056, "changed_bytes": 2631,
    # Insertion order: the first file's phases, then later newcomers.
    "breakdown": {
        "c2s/fallback": 7, "c2s/handshake": 9, "c2s/map": 329,
        "c2s/resume": 68, "s2c/delta": 1869, "s2c/handshake": 118,
        "s2c/map": 85, "s2c/resume": 3, "c2s/signatures": 143,
    },
    "retries": 23, "fallback_files": 5, "retransmitted_bytes": 559,
    "recovery_seconds": 427.2766, "rounds_salvaged": 9,
    "resume_handshake_bits": 1370, "checkpoint_bytes_written": 8765,
    "health_score": 0.2969, "adaptive_backoff_s": 415.8721,
    "roundtrips_on_wire": 165, "link_wall_clock_s": 16.521,
}


@pytest.fixture(scope="module")
def tree():
    return gcc_like(scale=0.05, seed=7)


def _deterministic(mapping):
    return {k: v for k, v in mapping.items() if k not in VOLATILE}


class TestCsvSchema:
    def test_clean_run_header_and_values(self, tree):
        run = run_method_on_collection(OursMethod(), tree.old, tree.new)
        row = run_to_row(run)
        header = rows_to_csv([row]).splitlines()[0].split(",")
        assert header == COUNTER_COLUMNS + [
            f"breakdown.{phase}" for phase in CLEAN_PHASES
        ]
        expected = {k: v for k, v in CLEAN_VALUES.items() if k != "breakdown"}
        expected.update(
            (f"breakdown.{k}", v) for k, v in CLEAN_VALUES["breakdown"].items()
        )
        assert _deterministic(row) == expected

    def test_resilient_run_header_and_values(self, tree, tmp_path):
        run = run_method_on_collection(
            OursMethod(), tree.old, tree.new,
            on_error="fallback", adaptive_retry=True,
            checkpoint_dir=tmp_path / "ckpt",
            fault_plan=FaultPlan.uniform(FAULT_RATE, seed=FAULT_SEED),
        )
        row = run_to_row(run)
        header = rows_to_csv([row]).splitlines()[0].split(",")
        assert header == COUNTER_COLUMNS + [
            f"breakdown.{phase}" for phase in FAULTY_PHASES
        ]
        expected = {k: v for k, v in FAULTY_VALUES.items() if k != "breakdown"}
        expected.update(
            (f"breakdown.{k}", v) for k, v in FAULTY_VALUES["breakdown"].items()
        )
        assert _deterministic(row) == expected


class TestCliJsonSchema:
    @pytest.fixture
    def dirs(self, tree, tmp_path):
        for side, files in (("old", tree.old), ("new", tree.new)):
            for name, data in files.items():
                path = tmp_path / side / name
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(data)
        return tmp_path / "old", tmp_path / "new"

    @staticmethod
    def _sync_json(*argv) -> tuple[str, dict]:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(["sync", *map(str, argv), "--json"]) == 0
        return buffer.getvalue(), json.loads(buffer.getvalue())

    def test_clean_run_keys_and_values(self, dirs):
        text, payload = self._sync_json(*dirs)
        assert list(payload) == JSON_KEYS
        assert _deterministic(payload) == CLI_CLEAN_VALUES
        assert list(payload["breakdown"]) == list(CLEAN_VALUES["breakdown"])
        assert text.startswith('{\n  "method": "ours",\n')

    def test_resilient_run_keys_and_values(self, dirs, tmp_path):
        _text, payload = self._sync_json(
            *dirs, "--adaptive-retry", "--checkpoint-dir", tmp_path / "ckpt",
            "--fault-rate", FAULT_RATE, "--fault-seed", FAULT_SEED,
        )
        assert list(payload) == JSON_KEYS
        assert _deterministic(payload) == FAULTY_VALUES
        assert list(payload["breakdown"]) == list(FAULTY_VALUES["breakdown"])

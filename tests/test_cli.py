"""Tests for the command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.perfbaseline import SUITES, load_baseline
from repro.cli import main
from tests.conftest import make_version_pair


@pytest.fixture
def file_pair(tmp_path):
    old, new = make_version_pair(seed=70, nbytes=8000)
    old_path = tmp_path / "old.txt"
    new_path = tmp_path / "new.txt"
    old_path.write_bytes(old)
    new_path.write_bytes(new)
    return old_path, new_path


@pytest.fixture
def dir_pair(tmp_path):
    old_dir = tmp_path / "old"
    new_dir = tmp_path / "new"
    (old_dir / "sub").mkdir(parents=True)
    (new_dir / "sub").mkdir(parents=True)
    old_a, new_a = make_version_pair(seed=71, nbytes=3000)
    (old_dir / "a.txt").write_bytes(old_a)
    (new_dir / "a.txt").write_bytes(new_a)
    (old_dir / "sub" / "same.txt").write_bytes(b"unchanged")
    (new_dir / "sub" / "same.txt").write_bytes(b"unchanged")
    (new_dir / "added.txt").write_bytes(b"brand new file")
    return old_dir, new_dir


class TestSyncCommand:
    def test_file_pair(self, file_pair, capsys):
        old_path, new_path = file_pair
        assert main(["sync", str(old_path), str(new_path)]) == 0
        out = capsys.readouterr().out
        assert "bytes on wire" in out
        assert "1 changed" in out

    def test_directory_pair(self, dir_pair, capsys):
        old_dir, new_dir = dir_pair
        assert main(["sync", str(old_dir), str(new_dir)]) == 0
        out = capsys.readouterr().out
        assert "1 changed, 1 unchanged" in out

    def test_json_output(self, file_pair, capsys):
        old_path, new_path = file_pair
        assert main(["sync", str(old_path), str(new_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "ours"
        assert payload["total_bytes"] > 0
        assert payload["files_changed"] == 1

    @pytest.mark.parametrize("method", ["rsync", "rsync-opt", "zdelta",
                                        "vcdiff", "full"])
    def test_alternative_methods(self, file_pair, capsys, method):
        old_path, new_path = file_pair
        assert main(["sync", str(old_path), str(new_path),
                     "--method", method]) == 0
        assert "bytes on wire" in capsys.readouterr().out

    def test_tuning_flags(self, file_pair, capsys):
        old_path, new_path = file_pair
        assert main([
            "sync", str(old_path), str(new_path),
            "--min-block", "32", "--continuation-min", "8",
            "--verification", "group3",
        ]) == 0

    def test_missing_path_fails_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        existing = tmp_path / "real"
        existing.write_bytes(b"x")
        assert main(["sync", str(missing), str(existing)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_reuse_counters_in_json(self, dir_pair, capsys):
        old_dir, new_dir = dir_pair
        assert main(["sync", str(old_dir), str(new_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for key in ("dedup_hits", "delta_memo_hits", "delta_memo_misses",
                    "sibling_refs_used", "bytes_saved_vs_self_ref"):
            assert key in payload
        # Clean default run: the reuse layer stays inert.
        assert payload["dedup_hits"] == 0
        assert payload["sibling_refs_used"] == 0

    def test_sibling_refs_flag_detects_rename(self, tmp_path, capsys):
        old_dir = tmp_path / "old"
        new_dir = tmp_path / "new"
        old_dir.mkdir()
        new_dir.mkdir()
        content = bytes(range(256)) * 40
        (old_dir / "original.bin").write_bytes(content)
        (new_dir / "original.bin").write_bytes(content)
        (new_dir / "renamed.bin").write_bytes(content)
        assert main([
            "sync", str(old_dir), str(new_dir), "--json", "--sibling-refs",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dedup_hits"] == 1
        assert payload["added_bytes"] == 0

    def test_delta_memo_flag_accepted(self, file_pair, capsys):
        old_path, new_path = file_pair
        assert main([
            "sync", str(old_path), str(new_path), "--delta-memo",
            "--resemblance-threshold", "0.7",
        ]) == 0
        assert "reuse" in capsys.readouterr().out

    def test_no_delta_memo_flag(self, file_pair, capsys):
        old_path, new_path = file_pair
        assert main([
            "sync", str(old_path), str(new_path), "--no-delta-memo",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta_memo_hits"] == 0
        assert payload["delta_memo_misses"] == 0


class TestBatchedSync:
    """``--batched`` is ``--window <number of files>``."""

    def test_batched_directory(self, dir_pair, capsys):
        old_dir, new_dir = dir_pair
        assert main(["sync", str(old_dir), str(new_dir), "--batched"]) == 0
        out = capsys.readouterr().out
        assert "method          : ours" in out
        assert "pipeline        :" in out

    def test_batched_json(self, dir_pair, capsys):
        old_dir, new_dir = dir_pair
        assert main(["sync", str(old_dir), str(new_dir), "--batched",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "ours"
        assert payload["pipelined"] is True
        assert main(["sync", str(old_dir), str(new_dir), "--window", "3",
                     "--json"]) == 0
        pipelined = json.loads(capsys.readouterr().out)
        for key in ("total_bytes", "breakdown", "waves",
                    "roundtrips_on_wire", "link_wall_clock_s"):
            assert pipelined[key] == payload[key], key

    def test_batched_requires_ours(self, dir_pair, capsys):
        old_dir, new_dir = dir_pair
        assert main(["sync", str(old_dir), str(new_dir), "--batched",
                     "--method", "rsync"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: method rsync does not support "
                              "pipelined scheduling")


class TestTraceCommand:
    def test_trace_output(self, file_pair, capsys):
        old_path, new_path = file_pair
        assert main(["trace", str(old_path), str(new_path)]) == 0
        out = capsys.readouterr().out
        assert "round" in out
        assert "coverage" in out

    def test_trace_with_tuning(self, file_pair, capsys):
        old_path, new_path = file_pair
        assert main(["trace", str(old_path), str(new_path),
                     "--min-block", "32"]) == 0


class TestBenchCommand:
    def test_gcc_table(self, capsys):
        assert main(["bench", "--workload", "gcc", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        for name in ("ours", "rsync", "zdelta"):
            assert name in out

    def test_web_table(self, capsys):
        assert main(["bench", "--workload", "web", "--scale", "0.1"]) == 0
        assert "ours" in capsys.readouterr().out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_method_rejected(self, file_pair):
        old_path, new_path = file_pair
        with pytest.raises(SystemExit):
            main(["sync", str(old_path), str(new_path), "--method", "nope"])


class TestAdaptiveFlags:
    def test_adaptive_sync_text_output(self, dir_pair, capsys):
        old_dir, new_dir = dir_pair
        assert main([
            "sync", str(old_dir), str(new_dir),
            "--adaptive-retry", "--breaker-threshold", "3",
            "--deadline", "3600",
        ]) == 0
        out = capsys.readouterr().out
        assert "link health" in out
        assert "1.00 score" in out  # clean link: the untouched default

    def test_adaptive_json_counters(self, file_pair, capsys):
        old_path, new_path = file_pair
        assert main([
            "sync", str(old_path), str(new_path),
            "--json", "--adaptive-retry",
        ]) == 0
        run = json.loads(capsys.readouterr().out)
        assert run["health_score"] == 1.0
        assert run["breaker_opens"] == 0
        assert run["deadline_salvages"] == 0
        assert run["adaptive_backoff_s"] == 0.0

    def test_clean_run_output_identical_with_and_without_layer(
        self, dir_pair, capsys
    ):
        old_dir, new_dir = dir_pair
        # The resilience flags resolve the window to 1 (file by file).
        assert main(["sync", str(old_dir), str(new_dir), "--json",
                     "--window", "1"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main([
            "sync", str(old_dir), str(new_dir), "--json",
            "--adaptive-retry", "--breaker-threshold", "3",
            "--deadline", "3600", "--run-deadline", "100000",
        ]) == 0
        adaptive = json.loads(capsys.readouterr().out)
        # workers differ by design (a run budget forces serial); timing
        # and the process-global hash caches are volatile between runs.
        volatile = ("workers", "cpu_seconds", "cache_hits", "cache_misses",
                    "ref_cache_hits", "ref_cache_misses",
                    "delta_memo_hits", "delta_memo_misses")
        for key in volatile:
            plain.pop(key)
            adaptive.pop(key)
        assert adaptive == plain


class TestChaosCommand:
    def test_soak_matrix(self, capsys):
        assert main([
            "chaos", "--shapes", "bursty", "--seeds", "1",
            "--profile", "short",
        ]) == 0
        out = capsys.readouterr().out
        assert "chaos soak [short]" in out
        assert "bursty" in out

    def test_json_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "soak.json"
        assert main([
            "chaos", "--shapes", "degrading", "--seeds", "2",
            "--json", "--out", str(artifact),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_cells_consistent"] is True
        assert json.loads(artifact.read_text()) == payload

    def test_unknown_shape_rejected(self, capsys):
        assert main(["chaos", "--shapes", "lumpy"]) == 2
        assert "unknown shape" in capsys.readouterr().err


class TestBatchedOutputAndRefusals:
    def test_batched_output_writes_collection(self, dir_pair, tmp_path,
                                              capsys):
        old_dir, new_dir = dir_pair
        out = tmp_path / "out"
        assert main(["sync", str(old_dir), str(new_dir), "--batched",
                     "--output", str(out)]) == 0
        written = {
            str(p.relative_to(out)): p.read_bytes()
            for p in out.rglob("*") if p.is_file()
        }
        expected = {
            str(p.relative_to(new_dir)): p.read_bytes()
            for p in new_dir.rglob("*") if p.is_file()
        }
        assert written == expected

    @pytest.mark.parametrize("flag", ["--delta-memo", "--sibling-refs"])
    def test_batched_honours_flag(self, dir_pair, capsys, flag):
        old_dir, new_dir = dir_pair
        assert main(["sync", str(old_dir), str(new_dir), "--batched",
                     flag, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pipelined"] is True

    @pytest.mark.parametrize(
        "flags,reason",
        [
            (["--fault-rate", "0.1"], "incompatible with fault injection"),
            (["--workers", "2"], "use workers=1"),
            (["--deadline", "5"], "incompatible with fault injection"),
        ],
        ids=["fault-rate", "workers", "deadline"],
    )
    def test_batched_refusals_come_from_validate(self, dir_pair, capsys,
                                                 flags, reason):
        old_dir, new_dir = dir_pair
        assert main(["sync", str(old_dir), str(new_dir), "--batched",
                     *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: window > 1 ")
        assert reason in err

    def test_batched_refuses_window(self, dir_pair, capsys):
        # --batched picks the window itself; an explicit one is refused,
        # not silently overridden.
        old_dir, new_dir = dir_pair
        assert main(["sync", str(old_dir), str(new_dir), "--batched",
                     "--window", "4"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: --batched sets the window")


class TestOptionRefusals:
    """Every SyncOptions.validate() refusal is `error: <reason>`, exit 2."""

    @pytest.mark.parametrize(
        "flags,reason",
        [
            (["--resemblance-threshold", "1.5"], "resemblance_threshold"),
            (["--resemblance-threshold", "nan"], "resemblance_threshold"),
            (["--window", "0"], "window"),
            (["--resume"], "durable checkpoint location"),
            (["--window", "4", "--method", "rsync"],
             "does not support pipelined"),
            (["--window", "4", "--fault-rate", "0.1"], "incompatible"),
            (["--window", "4", "--retries", "2"], "incompatible"),
            (["--window", "4", "--workers", "2"], "workers=1"),
        ],
    )
    def test_refusal_exit_code_and_reason(self, dir_pair, capsys, flags,
                                          reason):
        old_dir, new_dir = dir_pair
        assert main(["sync", str(old_dir), str(new_dir), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert reason in err
        assert "Traceback" not in err


class TestDefaultWindow:
    """Without --window, sync runs cohorts of 8 wherever the lane path
    can run (SyncOptions.lane_refusal) and file by file elsewhere."""

    @pytest.mark.parametrize(
        "flags,pipelined",
        [
            ([], True),
            (["--fault-rate", "0.1"], False),
            (["--retries", "2"], False),
            (["--workers", "2"], False),
            (["--method", "rsync"], False),
            (["--window", "1"], False),
        ],
        ids=["no-flags", "fault-rate", "retries", "workers", "rsync",
             "window-1"],
    )
    def test_resolution(self, dir_pair, capsys, flags, pipelined):
        old_dir, new_dir = dir_pair
        assert main(["sync", str(old_dir), str(new_dir), "--json",
                     *flags]) == 0
        assert json.loads(capsys.readouterr().out)["pipelined"] is pipelined

    def test_default_matches_window_one(self, dir_pair, tmp_path, capsys):
        old_dir, new_dir = dir_pair
        runs = {}
        for label, window in (("windowed", []), ("by_file", ["--window", "1"])):
            out = tmp_path / label
            assert main(["sync", str(old_dir), str(new_dir), "--json",
                         "--output", str(out), *window]) == 0
            runs[label] = json.loads(capsys.readouterr().out)
            written = {
                p.relative_to(out): p.read_bytes()
                for p in out.rglob("*") if p.is_file()
            }
            assert written == {
                p.relative_to(new_dir): p.read_bytes()
                for p in new_dir.rglob("*") if p.is_file()
            }
        windowed, by_file = runs["windowed"], runs["by_file"]
        assert windowed["pipelined"] and not by_file["pipelined"]
        for key in ("total_bytes", "breakdown"):
            assert windowed[key] == by_file[key], key


class TestBenchPerf:
    """`bench perf` loops over the suite registry; it refuses bad input
    with `error: <reason>`, exit 2, before measuring anything."""

    REPO = Path(__file__).parent.parent

    @pytest.fixture
    def no_measuring(self, monkeypatch):
        def refuse(suite, workers=None):
            raise AssertionError(f"measured {suite.name} before refusing")

        monkeypatch.setattr("repro.cli.measure_suite", refuse)

    @pytest.fixture
    def committed_numbers(self, monkeypatch):
        """Measure nothing: each suite "measures" its committed file."""
        measured = []

        def replay(suite, workers=None):
            measured.append(suite.name)
            return load_baseline(self.REPO / suite.file_name)

        monkeypatch.setattr("repro.cli.measure_suite", replay)
        return measured

    @pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
    def test_unusable_tolerance_refused(self, no_measuring, capsys,
                                        tolerance):
        assert main(["bench", "perf", "--tolerance", tolerance]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: tolerance must be a finite number")

    def test_missing_baseline_refused(self, no_measuring, tmp_path, capsys):
        (tmp_path / "BENCH_parallel.json").write_text("{}")
        assert main(["bench", "perf", "--baseline-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: no baseline at {tmp_path / 'BENCH_delta.json'}"
        )

    def test_missing_directory_refused(self, no_measuring, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        assert main(["bench", "perf", "--update",
                     "--baseline-dir", str(missing)]) == 2
        assert capsys.readouterr().err.startswith("error: no baseline dir")

    def test_unknown_suite_rejected(self, no_measuring):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "perf", "--suite", "nope"])
        assert exit_info.value.code == 2

    def test_compares_every_suite_by_default(self, committed_numbers, capsys):
        assert main(["bench", "perf", "--baseline-dir", str(self.REPO),
                     "--tolerance", "0"]) == 0
        assert committed_numbers == list(SUITES)
        assert "no regressions vs" in capsys.readouterr().out

    def test_suite_selection_and_json(self, committed_numbers, capsys):
        assert main(["bench", "perf", "--baseline-dir", str(self.REPO),
                     "--suite", "reuse", "--suite", "delta",
                     "--suite", "reuse", "--json"]) == 0
        assert committed_numbers == ["reuse", "delta"]
        text = capsys.readouterr().out
        first = json.loads(text[: text.index("}\n{") + 2])
        assert set(first) == {"schema", "workload", "environment", "ops",
                              "derived"}
        assert set(first["derived"]) == {"reuse_memo_speedup",
                                         "sibling_wire_savings"}

    def test_update_writes_only_selected_suites(self, committed_numbers,
                                                tmp_path):
        assert main(["bench", "perf", "--baseline-dir", str(tmp_path),
                     "--suite", "pipeline", "--update"]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_pipeline.json"]

    def test_regression_exits_1(self, monkeypatch, tmp_path, capsys):
        suite = SUITES["pipeline"]
        slower = load_baseline(self.REPO / suite.file_name)
        for op in slower.ops.values():
            op.seconds *= 10
        monkeypatch.setattr("repro.cli.measure_suite",
                            lambda suite, workers=None: slower)
        assert main(["bench", "perf", "--baseline-dir", str(self.REPO),
                     "--suite", "pipeline", "--tolerance", "2"]) == 1
        err = capsys.readouterr().err
        assert "[BENCH_pipeline.json] collection_pipelined:" in err

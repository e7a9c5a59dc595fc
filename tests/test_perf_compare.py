"""The perf gate's comparison: tolerance refusals and missing ops."""

from __future__ import annotations

import math

import pytest

from repro.bench.perfbaseline import (
    SUITES,
    OpTiming,
    PerfBaseline,
    check_tolerance,
    compare_baselines,
    op_runs_here,
)


def _baseline(seconds: dict[str, float]) -> PerfBaseline:
    return PerfBaseline(
        workload={"files": 1, "file_kb": 1},
        ops={
            name: OpTiming(name, value, payload_bytes=1000, rounds=1)
            for name, value in seconds.items()
        },
    )


COMMITTED = _baseline({"executor_pickle": 0.2, "match_tokens": 0.04})


class TestTolerance:
    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1.0, -0.01])
    def test_unusable_tolerance_refused(self, tolerance):
        slower = _baseline({"executor_pickle": 20.0, "match_tokens": 4.0})
        with pytest.raises(ValueError, match="finite number >= 0"):
            compare_baselines(slower, COMMITTED, tolerance=tolerance)
        with pytest.raises(ValueError):
            check_tolerance(tolerance)

    @pytest.mark.parametrize("tolerance", [0.0, 0.5, 2.0])
    def test_usable_tolerance_accepted(self, tolerance):
        check_tolerance(tolerance)

    def test_budget_boundary(self):
        within = _baseline({"executor_pickle": 0.3, "match_tokens": 0.06})
        beyond = _baseline({"executor_pickle": 0.31, "match_tokens": 0.04})
        assert compare_baselines(within, COMMITTED, tolerance=0.5) == []
        findings = compare_baselines(beyond, COMMITTED, tolerance=0.5)
        assert len(findings) == 1 and findings[0].startswith(
            "executor_pickle:"
        )


class TestMissingOps:
    def test_missing_op_is_a_finding(self):
        current = _baseline({"executor_pickle": 0.2})
        assert compare_baselines(current, COMMITTED) == [
            "match_tokens: missing from the current measurement"
        ]

    def test_new_op_is_not_a_finding(self):
        current = _baseline(
            {"executor_pickle": 0.2, "match_tokens": 0.04, "extra": 9.0}
        )
        assert compare_baselines(current, COMMITTED) == []

    def test_arena_op_exempt_only_without_arena(self, monkeypatch):
        committed = _baseline({"executor_pickle": 0.2, "executor_arena": 0.1})
        current = _baseline({"executor_pickle": 0.2})
        assert compare_baselines(current, committed) == [
            "executor_arena: missing from the current measurement"
        ]
        monkeypatch.setattr("repro.parallel.arena_available", lambda: False)
        assert not op_runs_here("executor_arena")
        assert compare_baselines(current, committed) == []
        committed.ops["match_tokens"] = OpTiming("match_tokens", 0.04, 1, 1)
        assert compare_baselines(current, committed) == [
            "match_tokens: missing from the current measurement"
        ]

    def test_only_the_arena_op_is_platform_dependent(self):
        declared = {op for suite in SUITES.values() for op in suite.arena_ops}
        assert declared == {"executor_arena"}

"""Perf-regression gates: every suite of ``repro.bench.perfbaseline.SUITES``
re-measured and checked against its committed ``BENCH_<suite>.json``.

Three gates per suite, parametrized with the suite name as the test id
(``-k pipeline`` selects the pipeline suite's gates):

* the committed baseline names every op, shows every ratio above its
  committed floor, and carries equal payloads where the suite says so;
* the current run has every committed op, none slowed past the
  tolerance, and reproduces the suite's deterministic fields exactly;
* the current machine keeps every ratio above its current-machine floor.

Environment knobs (CI machines differ from the reference box):

* ``REPRO_PERF_WORKERS``   executor workers (default 4)
* ``REPRO_PERF_TOLERANCE`` allowed slowdown fraction vs the committed
  baseline (default 2.0, i.e. 3x budget — generous for shared runners)
* each ratio's current-machine floor, named by its ``floor_env`` in the
  registry: ``REPRO_PERF_MIN_SPEEDUP`` (arena over pickle, default
  1.05), ``REPRO_PERF_MIN_DELTA_SPEEDUP`` (1.5),
  ``REPRO_PERF_MIN_PROTOCOL_SPEEDUP`` (1.5),
  ``REPRO_PERF_MIN_PIPELINE_SPEEDUP`` (4.0) and
  ``REPRO_PERF_MIN_REUSE_SPEEDUP`` (5.0)
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from conftest import RESULTS_DIR, publish
from repro.bench.perfbaseline import (
    SUITES,
    compare_baselines,
    load_baseline,
    measure_suite,
    op_runs_here,
    render_baseline,
    save_baseline,
)

REPO_ROOT = Path(__file__).parent.parent

WORKERS = int(os.environ.get("REPRO_PERF_WORKERS", "4"))
TOLERANCE = float(os.environ.get("REPRO_PERF_TOLERANCE", "2.0"))

every_suite = pytest.mark.parametrize(
    "suite", list(SUITES.values()), ids=list(SUITES), scope="module"
)


@pytest.fixture(scope="module")
def committed(suite):
    path = REPO_ROOT / suite.file_name
    if not path.exists():
        pytest.fail(f"missing committed baseline {path}")
    return load_baseline(path)


@pytest.fixture(scope="module")
def current(suite):
    baseline = measure_suite(suite, workers=WORKERS)
    # The parallel suite publishes under the name it had alone.
    suffix = "" if suite.name == "parallel" else f"_{suite.name}"
    publish(f"perf_baseline{suffix}", render_baseline(baseline))
    # Persist this machine's numbers for the CI artifact.
    save_baseline(baseline, RESULTS_DIR / f"BENCH_{suite.name}.current.json")
    return baseline


@every_suite
def test_committed_baseline_meets_floors(suite, committed):
    """The checked-in trajectory point must show each acceptance floor."""
    for op in suite.ops:
        assert op in committed.ops, f"committed baseline missing {op}"
    for ratio in suite.ratios:
        value = ratio.of(committed)
        assert value > 0 and value >= ratio.committed_floor, (
            f"committed {suite.file_name} records {ratio.key} "
            f"{value:.4g} (floor {ratio.committed_floor}, must be > 0)"
        )
    payloads = {committed.ops[op].payload_bytes for op in suite.same_payload}
    assert len(payloads) <= 1, (
        f"{' / '.join(suite.same_payload)} payloads differ: {payloads}"
    )


@every_suite
def test_current_run_matches_committed(suite, current, committed):
    """No op missing or slowed past tolerance; deterministic fields equal."""
    findings = compare_baselines(current, committed, tolerance=TOLERANCE)
    assert not findings, "\n".join(findings)
    for name, fields in suite.exact.items():
        for field in fields:
            now = getattr(current.ops[name], field)
            then = getattr(committed.ops[name], field)
            # Integers must match exactly; modelled seconds to the ms.
            assert abs(now - then) < 1e-3, (
                f"{name}: {field} {now} != committed {then}"
            )


@every_suite
def test_current_machine_meets_floors(suite, current):
    """The measured advantages must hold on this machine too."""
    floored = [ratio for ratio in suite.ratios if ratio.floor_env]
    for ratio in floored:
        for op in (ratio.op, ratio.versus):
            if not op_runs_here(op):
                pytest.skip(f"{op} needs POSIX shared memory")
    for op in filter(op_runs_here, suite.ops):
        assert op in current.ops, f"{op} did not run on this machine"
    for ratio in floored:
        floor = float(os.environ.get(ratio.floor_env, ratio.floor_default))
        value = ratio.of(current)
        assert value >= floor, (
            f"{ratio.key} {value:.2f} fell below the {floor} floor on "
            f"this machine ({ratio.floor_env})"
        )

"""Golden pins for the committed perf baselines (``BENCH_<suite>.json``).

The five committed baselines are read back by the perf gates in
``benchmarks/test_perf_baseline.py`` and by ``repro-sync bench perf``, so
loading one and writing it out again must give back the same file, and
its terminal table must not drift.  ``mb_per_s`` and the ``derived``
ratios were computed from unrounded seconds when the file was recorded,
so recomputing them from the stored (rounded) seconds is pinned to a
relative 1e-3 rather than exactly: ``BENCH_reuse.json`` commits
``reuse_memo_speedup`` 83.176, and its stored ops give 83.138.  The
registry row of each suite must describe its file: the same workload
parameters, op names and ratios.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.perfbaseline import SUITES, load_baseline, render_baseline

REPO_ROOT = Path(__file__).parent.parent

SUITE_NAMES = ("parallel", "delta", "protocol", "pipeline", "reuse")

RENDERED = {
    "parallel": """\
perf baseline — 64 files × 384 KB, workers=4; arena speedup 1.57x over pickle dispatch
op                ms (best)   MB/s  payload KB  rounds
----------------  ---------  -----  ----------  ------
executor_arena        133.4  377.4      49,176       3
executor_pickle       209.3  240.6      49,176       3
match_tokens           39.6    9.9         384       3
window_hash_scan       13.1   30.0         384       3
zdelta_encode          30.1    4.4         128       3""",
    "delta": """\
perf baseline — 64 files × 96 KB; vectorized delta match 3.98x over scalar
op                      ms (best)  MB/s  payload KB  rounds
----------------------  ---------  ----  ----------  ------
delta_index_build            11.8   8.3          96       2
delta_match_scalar          476.5   1.3         588       2
delta_match_vectorized     1898.2   5.0       9,312       3""",
    "protocol": """\
perf baseline — 64 files × 96 KB; vectorized protocol 3.24x over scalar
op                        ms (best)  MB/s  payload KB  rounds
------------------------  ---------  ----  ----------  ------
protocol_sync_scalar         1971.1   0.3         588       1
protocol_sync_vectorized     9643.5   1.0       9,312       1""",
    "pipeline": """\
perf baseline — 64 files × 24 KB; pipelined wall clock 6.40x over sequential
op                     ms (best)  MB/s  payload KB  rounds
---------------------  ---------  ----  ----------  ------
collection_pipelined    197023.9   0.0       1,560     653
collection_sequential  1260305.5   0.0       1,560    4198""",
    "reuse": """\
perf baseline — 12 files × 24 KB; warm memo serve 83.14x over cold; sibling refs save 80.9% of fleet wire bytes
op                      ms (best)   MB/s  payload KB  rounds
----------------------  ---------  -----  ----------  ------
broadcast_cold_client        72.2    7.8         549       3
broadcast_warm_client         0.9  646.9         549       3
broadcast_wire_full         170.1    1.4         232       1
broadcast_wire_sibling      220.8    0.2          44       1""",
}


def _committed(name: str) -> tuple[Path, dict]:
    path = REPO_ROOT / f"BENCH_{name}.json"
    return path, json.loads(path.read_text())


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_round_trip_reproduces_committed_file(name):
    path, committed = _committed(name)
    written = json.loads(load_baseline(path).to_json())

    assert set(written) == set(committed)
    for block in ("schema", "workload", "environment"):
        assert written[block] == committed[block], block
    assert set(written["ops"]) == set(committed["ops"])
    for op, row in committed["ops"].items():
        assert set(written["ops"][op]) == set(row), op
        for column in ("seconds", "payload_bytes", "rounds"):
            assert written["ops"][op][column] == row[column], (op, column)
        assert written["ops"][op]["mb_per_s"] == pytest.approx(
            row["mb_per_s"], rel=1e-3
        ), op
    assert set(written["derived"]) == set(committed["derived"])
    for key, value in committed["derived"].items():
        assert written["derived"][key] == pytest.approx(value, rel=1e-3), key


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_render_is_pinned(name):
    path, _committed_payload = _committed(name)
    assert render_baseline(load_baseline(path)) == RENDERED[name]


def test_registry_lists_the_committed_suites():
    assert tuple(SUITES) == SUITE_NAMES


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_registry_row_describes_committed_file(name):
    suite = SUITES[name]
    path, committed = _committed(name)
    assert suite.file_name == path.name
    assert suite.params == committed["workload"]
    assert sorted(suite.ops) == sorted(committed["ops"])
    assert {ratio.key for ratio in suite.ratios} == set(committed["derived"])
    if suite.arena_ops:
        assert "arena_available" in committed["environment"]

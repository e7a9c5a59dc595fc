"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from metrics import END_TO_END, PER_LAYER
from tracer import Boundary, Tracer, install
from workloads import WORKLOADS, build, tree_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_missing_attribute_is_absent_not_an_error():
    tracer = Tracer()
    status = install(tracer, (
        Boundary("gone", "core", "repro.core.protocol",
                 "CoreSyncSession.no_such_method"),
        Boundary("gone_class", "core", "repro.core.protocol",
                 "NoSuchClass.step_round"),
        Boundary("gone_module", "core", "repro.no_such_module", "anything"),
    ))
    assert status == {
        "gone": "absent", "gone_class": "absent", "gone_module": "absent",
    }
    assert tracer.calls == {"gone": 0, "gone_class": 0, "gone_module": 0}


def test_absent_boundaries_reduce_to_absent_metrics():
    tracer = Tracer()
    install(tracer, ())
    report = {"roundtrips_on_wire": 10, "link_wall_clock_s": 1.5}
    values = run.per_layer(tracer.chrome_trace(), report, 2.0, 1.0)
    assert values["core.round_self_s"] is None
    assert values["reuse.sketch_s"] is None
    assert values["net.link_latency_s"] == pytest.approx(1.0)
    table = run.layer_table(values)
    assert "| core.round_self_s | absent | s |" in table
    # In the JSON an absent metric is null, never a measured-looking 0.
    printed = json.loads(json.dumps(run.metric_objects(values, PER_LAYER)))
    assert printed["core.round_self_s"] == {"value": None, "unit": "s"}


def test_wrapper_sits_where_callers_look_the_name_up():
    # In a fresh interpreter, so the patched modules stay out of this one.
    script = """
import json
from tracer import Tracer, install, BOUNDARIES
import repro.cli
from repro.collection.manifest import Manifest
tracer = Tracer()
install(tracer, [b for b in BOUNDARIES
                 if b.name in ("fingerprint", "manifest")])
Manifest.of_collection({"a": b"x", "b": b"y"})
trace = tracer.chrome_trace()
events = [(e["name"], e["args"]["parent"]) for e in trace["traceEvents"]]
print(json.dumps([trace["otherData"]["calls"], events]))
"""
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=HERE, capture_output=True,
        text=True, check=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
    )
    calls, events = json.loads(out.stdout)
    assert calls == {"fingerprint": 2, "manifest": 1}
    assert events == [["manifest", -1], ["fingerprint", 0], ["fingerprint", 0]]


def _report(fallback_files=0, retries=0):
    return {"failed_files": 0, "files_changed": 4,
            "fallback_files": fallback_files, "retries": retries}


def test_wrong_tree_or_wire_drift_fails_the_run():
    good = run.Sync(1.0, 50.0, _report(), (100, 5, 1.0))
    wrong = run.Sync(1.0, 50.0, _report(), (100, 5, 1.0), ["src/a.c"])
    drift = run.Sync(1.0, 50.0, _report(), (101, 5, 1.0))
    assert run._check([good, good]) == []
    assert len(run._check([good, wrong, drift])) == 2
    e2e = run.end_to_end([good], 0.5, worst_failed=wrong.failed)
    assert e2e["delivered_frac"] == 0.75


def test_fallback_over_a_clean_link_is_a_wrong_rebuild():
    # The CLI rescues a wrongly rebuilt file with a full transfer, so OUT
    # equals NEW and only the fallback count shows the fault.
    good = run.Sync(1.0, 50.0, _report(), (100, 5, 1.0))
    rescued = run.Sync(1.0, 50.0, _report(fallback_files=1), (100, 5, 1.0))
    retried = run.Sync(1.0, 50.0, _report(retries=1), (100, 5, 1.0))
    assert rescued.failed == 1
    assert len(run._check([good, rescued])) == 2  # and its count drifted
    assert len(run._check([retried])) == 1
    # Over a faulty link the ladder may descend; the count must repeat.
    faulty = run.Sync(1.0, 50.0, _report(1, 3), (150, 9, 2.0), clean=False)
    assert faulty.failed == 0
    assert run._check([faulty, faulty, good]) == []
    fewer = run.Sync(1.0, 50.0, _report(0, 3), (150, 9, 2.0), clean=False)
    assert len(run._check([faulty, fewer])) == 1


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_fixes_the_input_trees(name):
    first, again, other = (build(name, s, "smoke") for s in (1, 1, 2))
    assert tree_digest(first.old) == tree_digest(again.old)
    assert tree_digest(first.new) == tree_digest(again.new)
    assert tree_digest(first.old) != tree_digest(other.old)
    assert tree_digest(first.new) != tree_digest(other.new)
    # The seed changes content, not the tree's shape.
    assert sorted(first.new) == sorted(other.new)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for listed, metrics in ((spec["end_to_end"], END_TO_END),
                            (spec["per_layer"], PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in listed] == [
            (m.name, m.unit, m.better) for m in metrics
        ]
    readme = (HERE / "README.md").read_text()
    for metric in END_TO_END + PER_LAYER:
        assert f"`{metric.name}`" in readme, metric.name


def test_smoke_mode_prints_every_metric_with_its_unit():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    lines = [json.loads(line) for line in out.stdout.splitlines()
             if line.startswith("{")]
    assert lines[-1] == {"smoke": "ok"}
    results = {line["workload"]: line for line in lines[:-1]}
    assert sorted(results) == sorted(WORKLOADS)
    for result in results.values():
        assert result["correct"] and result["failed"] == 0
        assert result["end_to_end"]["delivered_frac"]["value"] == 1.0
        for metric in END_TO_END:
            assert result["end_to_end"][metric.name]["unit"] == metric.unit
        for metric in PER_LAYER:
            assert result["per_layer"][metric.name]["unit"] == metric.unit


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reorg",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout

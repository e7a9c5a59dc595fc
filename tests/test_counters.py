"""The counter spec is the single declaration every export derives from."""

from __future__ import annotations

import dataclasses

from repro.bench import OursMethod, run_method_on_collection
from repro.collection import sync_collection
from repro.counters import (
    COLLECTION,
    COUNTERS,
    FILE,
    MERGE_RULES,
    OUTCOME_MERGE,
    RUN,
    Counter,
)
from repro.syncmethod import MethodOutcome

OLD = {"a.txt": b"alpha " * 300, "b.txt": b"beta " * 300}
NEW = {"a.txt": b"alpha " * 299 + b"omega ", "b.txt": b"beta " * 300}


class TestSpec:
    def test_names_unique_and_rules_known(self):
        names = [counter.name for counter in COUNTERS]
        assert len(names) == len(set(names))
        for counter in COUNTERS:
            assert counter.scope in (FILE, COLLECTION, RUN)
            assert counter.merge in MERGE_RULES

    def test_every_outcome_field_has_a_merge_rule(self):
        fields = {f.name for f in dataclasses.fields(MethodOutcome)}
        assert fields == set(OUTCOME_MERGE)

    def test_every_counter_has_a_source(self):
        report = sync_collection(OLD, NEW, OursMethod())
        outcome = MethodOutcome(total_bytes=0)
        for counter in COUNTERS:
            if counter.scope == FILE:
                assert hasattr(outcome, counter.name), counter.name
                assert hasattr(report, counter.name), counter.name
            elif counter.scope == COLLECTION:
                assert hasattr(report, counter.name), counter.name

    def test_export_rounds_only_declared_digits(self):
        assert Counter("x", digits=2).export(1.23456) == 1.23
        assert Counter("x").export(1.23456) == 1.23456


class TestDerived:
    def test_outcome_addition_follows_rules(self):
        a = MethodOutcome(
            10, breakdown={"x": 1}, health_score=0.9, retries=1,
            recovery_seconds=0.5,
        )
        b = MethodOutcome(
            5, breakdown={"y": 2, "x": 3}, health_score=0.4, retries=2,
            fallback_method="rsync", correct=False,
        )
        merged = a + b
        assert merged.total_bytes == 15
        assert merged.breakdown == {"x": 4, "y": 2}
        assert list(merged.breakdown) == ["x", "y"]
        assert merged.health_score == 0.4
        assert merged.retries == 3
        assert merged.recovery_seconds == 0.5
        assert merged.fallback_method == "rsync"
        assert merged.correct is False

    def test_empty_outcome_is_the_merge_identity(self):
        outcome = MethodOutcome(
            7, client_to_server=3, breakdown={"p": 7}, health_score=0.5,
            fallback_method="gzip-full", correct=False, repair_bytes=4,
        )
        assert MethodOutcome(total_bytes=0) + outcome == outcome

    def test_report_aggregates_per_file_counters(self):
        report = sync_collection(OLD, NEW, OursMethod())
        totals = report.totals()
        assert report.repair_bytes == totals.repair_bytes
        assert report.health_score == 1.0
        assert report.breakdown == totals.breakdown
        assert report.changed_bytes == totals.total_bytes

    def test_run_carries_every_counter_in_order(self):
        run = run_method_on_collection(OursMethod(), OLD, NEW)
        assert list(run.values) == [counter.name for counter in COUNTERS]
        assert run.total_bytes == run.values["total_bytes"]
        assert run.cache_hit_rate >= 0.0

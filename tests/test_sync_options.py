"""SyncOptions: one declaration of the collection-update options and one
validate() owning their compatibility matrix."""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.bench import OursMethod, RsyncMethod, run_method_on_collection
from repro.collection import SyncOptions, sync_collection
from repro.exceptions import ResumeRefusedError
from repro.resilience import CheckpointStore

OLD = {"a.txt": b"alpha " * 200, "b.txt": b"beta " * 200}
NEW = {"a.txt": b"alpha " * 199 + b"omega ", "b.txt": b"beta " * 200,
       "c.txt": b"alpha " * 180 + b"gamma "}


class TestDeclaredOnce:
    def test_entry_points_take_only_keywords(self):
        for entry in (sync_collection, run_method_on_collection):
            kinds = [p.kind for p in inspect.signature(entry).parameters.values()]
            assert kinds[-1] is inspect.Parameter.VAR_KEYWORD
            assert kinds.count(inspect.Parameter.POSITIONAL_OR_KEYWORD) == 3

    def test_unknown_keyword_raises_type_error(self):
        with pytest.raises(TypeError):
            sync_collection(OLD, NEW, OursMethod(), wrokers=2)
        with pytest.raises(TypeError):
            run_method_on_collection(OursMethod(), OLD, NEW, wrokers=2)

    def test_options_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SyncOptions().window = 3

    def test_defaults_validate(self):
        SyncOptions().validate(OursMethod())


class TestValidate:
    @pytest.mark.parametrize("threshold", [1.5, -0.1, float("nan")])
    def test_resemblance_threshold_out_of_range(self, threshold):
        with pytest.raises(ValueError, match="resemblance_threshold"):
            sync_collection(
                OLD, NEW, OursMethod(), sibling_refs=True,
                resemblance_threshold=threshold,
            )

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_resemblance_threshold_bounds_accepted(self, threshold):
        report = sync_collection(
            OLD, NEW, OursMethod(), sibling_refs=True,
            resemblance_threshold=threshold,
        )
        assert report.reconstructed == NEW

    def test_window_checked_without_pipeline(self):
        with pytest.raises(ValueError, match="window"):
            sync_collection(OLD, NEW, OursMethod(), window=0)

    @pytest.mark.parametrize(
        "options,match",
        [
            (dict(on_error="ignore"), "on_error"),
            (dict(change_detection="guess"), "change_detection"),
            (dict(pipeline=True, executor=object()), "executor"),
            (dict(pipeline=True, breaker_threshold=3), "incompatible"),
            (dict(pipeline=True, adaptive_retry=True), "incompatible"),
        ],
    )
    def test_refusals(self, options, match):
        with pytest.raises(ValueError, match=match):
            SyncOptions(**options).validate(OursMethod())

    def test_pipeline_needs_stepwise_method(self):
        with pytest.raises(ValueError, match="does not support pipelined"):
            SyncOptions(pipeline=True).validate(RsyncMethod())

    def test_resume_needs_durable_location(self, tmp_path):
        with pytest.raises(ResumeRefusedError):
            SyncOptions(resume=True).validate(OursMethod())
        with pytest.raises(ResumeRefusedError):
            SyncOptions(
                resume=True, checkpoints=CheckpointStore(None)
            ).validate(OursMethod())
        SyncOptions(resume=True, checkpoint_dir=tmp_path).validate(OursMethod())

    def test_refused_before_any_work(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ValueError):
            sync_collection(
                OLD, NEW, OursMethod(), store=out, resemblance_threshold=2.0
            )
        assert not out.exists()

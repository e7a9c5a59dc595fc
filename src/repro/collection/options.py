"""Every option of a collection update, declared and validated once."""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ResumeRefusedError

__all__ = ["DEFAULT_WINDOW", "SyncOptions"]

#: Files per cohort when ``window=None`` and the lane path can run.
DEFAULT_WINDOW = 8


@dataclass(frozen=True)
class SyncOptions:
    """The knobs of :func:`~repro.collection.sync.sync_collection`.

    ``sync_collection`` and
    :func:`~repro.bench.runner.run_method_on_collection` take these as
    keywords; :meth:`validate` refuses every unsupported combination with
    the reason.  Every option defaults to off, leaving behaviour and byte
    accounting identical to a run without it.

    Change detection is charged first — either the full fingerprint
    manifest (``"manifest"``, the paper's approach) or Merkle-trie
    reconciliation (``"reconcile"``, cost proportional to the number of
    changes).  With ``verify`` the reconstructed collection is checked
    byte for byte.

    ``workers`` (or a preconfigured ``executor``) fans the changed files
    out over a process pool; ``None`` uses one process per CPU.
    ``use_arena`` picks the pool's dispatch substrate: ``None`` ships
    payloads through a zero-copy shared-memory arena when the platform
    supports it, ``False`` forces pickling, ``True`` insists on trying
    the arena.  Reports are byte-identical either way.

    Resilience: a ``fault_plan`` (:class:`~repro.net.faults.FaultPlan`)
    and/or a ``retry_policy`` (:class:`~repro.resilience.RetryPolicy`)
    wrap the method in a :class:`~repro.resilience.SyncSupervisor` that
    retries and degrades down a fallback ladder per file; ``link`` is the
    :class:`~repro.net.LinkModel` that prices wire time.  ``on_error``
    decides what happens to a file that still cannot be synchronised:

    * ``"raise"`` — propagate the error, aborting the update;
    * ``"skip"`` — keep the client's copy, record the error in
      ``report.failed``;
    * ``"fallback"`` — rescue the file with a reliable compressed full
      transfer, recorded in ``report.fallbacks``; the update never raises.

    Resumable sessions: ``checkpoint_dir`` (or a preconfigured
    ``checkpoints`` :class:`~repro.resilience.CheckpointStore`) journals
    every checkpoint-capable session's round boundaries, so retries resume
    from the last completed round.  ``resume`` also honours journals left
    by a *previous* (crashed) run and needs a durable location.

    ``store`` (a :class:`~repro.collection.store.CollectionStore` or a
    directory path) materialises the reconstructed collection on disk,
    every file written atomically.

    Adaptive resilience (DESIGN §14): ``adaptive_retry`` (``True`` or an
    :class:`~repro.resilience.AdaptiveRetryPolicy`) replaces the static
    backoff with AIMD scaling, seeded jitter and failure-signature ladder
    routing; ``breaker_threshold`` (an int or a
    :class:`~repro.resilience.BreakerBoard`) gives every file a circuit
    breaker; ``deadline_s`` bounds the simulated seconds per file and
    ``run_deadline_s`` across the run (forcing serial execution).  With
    breakers or deadlines a file refused by its breaker or out of budget
    is recorded in ``report.failed`` even under ``on_error="raise"``.

    Lane scheduling (DESIGN §16): ``window`` above 1 runs the changed
    files in cohorts of that many, each cohort's messages joined on one
    shared channel, so link latency is paid per cohort round instead of
    per file per round.  ``1`` runs file by file; ``None`` picks
    :data:`DEFAULT_WINDOW` where :meth:`lane_refusal` allows cohorts and
    1 elsewhere.  Per-file transcripts, byte accounting, checkpoints and
    ``on_error`` settlement stay bit-identical to the file-by-file run.

    Cross-file reuse (DESIGN §17): ``delta_memo`` scopes the delta-memo
    switch for the update (``None`` defers to ``REPRO_DELTA_MEMO``);
    ``sibling_refs`` serves *added* files by content identity (a rename)
    or as a delta against the most similar client file whose min-hash
    resemblance reaches ``resemblance_threshold``, whichever is cheaper
    than the full transfer.
    """

    verify: bool = True
    change_detection: str = "manifest"
    workers: int | None = 1
    use_arena: bool | None = None
    executor: object = None
    on_error: str = "raise"
    fault_plan: object = None
    retry_policy: object = None
    link: object = None
    checkpoint_dir: object = None
    resume: bool = False
    checkpoints: object = None
    store: object = None
    adaptive_retry: object = False
    deadline_s: float | None = None
    run_deadline_s: float | None = None
    breaker_threshold: object = None
    window: int | None = 1
    delta_memo: bool | None = None
    sibling_refs: bool = False
    resemblance_threshold: float = 0.5

    def validate(self, method) -> None:
        """Refuse an unsupported combination with the reason.

        Raises :class:`ValueError`, or
        :class:`~repro.exceptions.ResumeRefusedError` for ``resume``
        without a durable checkpoint location.
        """
        if self.on_error not in ("raise", "skip", "fallback"):
            raise ValueError(
                f"on_error must be 'raise', 'skip' or 'fallback', "
                f"got {self.on_error!r}"
            )
        if self.change_detection not in ("manifest", "reconcile"):
            raise ValueError(
                f"change_detection must be 'manifest' or 'reconcile', "
                f"got {self.change_detection!r}"
            )
        if self.window is not None and self.window < 1:
            raise ValueError(f"window must be at least 1, got {self.window}")
        if not 0.0 <= self.resemblance_threshold <= 1.0:  # NaN fails too
            raise ValueError(
                f"resemblance_threshold must be within [0, 1], "
                f"got {self.resemblance_threshold!r}"
            )
        if self.resume and not self._durable_checkpoints():
            raise ResumeRefusedError(
                "resume=True needs a durable checkpoint location "
                "(checkpoint_dir or a CheckpointStore with a root)"
            )
        if (self.window or 1) > 1 and (refusal := self.lane_refusal(method)):
            raise ValueError(refusal)

    def _durable_checkpoints(self) -> bool:
        if self.checkpoints is not None:
            return self.checkpoints.root is not None
        return self.checkpoint_dir is not None

    @property
    def supervised(self) -> bool:
        """Whether a resilience option asks for a per-file supervisor."""
        return bool(self.adaptive_retry) or any(
            option is not None
            for option in (
                self.fault_plan, self.retry_policy, self.breaker_threshold,
                self.deadline_s, self.run_deadline_s,
            )
        )

    def lane_refusal(self, method) -> str | None:
        """Why ``method`` under these options cannot run in lane cohorts
        (``None``: it can) — the one rule behind the default window, the
        refusal of an explicit one and the supervised file-by-file path."""
        if not getattr(method, "supports_pipeline", False):
            return (
                f"method {method.name} does not support pipelined "
                f"scheduling (no step-wise session)"
            )
        if self.supervised:
            return (
                "window > 1 is incompatible with fault injection, retries, "
                "breakers and deadlines; run those with window=1"
            )
        if self.executor is not None or self.workers != 1:
            return "window > 1 runs in one process; use workers=1 and no executor"
        return None

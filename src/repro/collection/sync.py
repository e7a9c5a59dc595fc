"""Synchronise an entire replicated collection with any per-file method."""

from __future__ import annotations

import operator
import zlib
from dataclasses import asdict, dataclass, field, replace
from functools import reduce

from repro.collection.manifest import Manifest, ManifestDiff, diff_manifests
from repro.collection.options import SyncOptions
from repro.counters import COUNTERS, FILE
from repro.exceptions import IntegrityError
from repro.parallel.executor import (
    CACHE_COUNTERS,
    FileTask,
    SyncExecutor,
    cache_deltas,
)
from repro.syncmethod import MethodOutcome, SyncMethod

_PER_FILE = frozenset(c.name for c in COUNTERS if c.scope == FILE)


@dataclass
class CollectionReport:
    """Aggregated accounting for one collection update.

    Byte accounting (``total_bytes``, ``per_file``, ``reconstructed``) is
    deterministic and identical across serial and parallel execution; the
    compute-cost fields (``per_file_seconds``, ``cpu_seconds``, cache
    counters) describe where and how the work actually ran.

    The resilience fields stay empty on a clean run: ``retries`` maps a
    file to the failed attempts its sync burnt, ``fallbacks`` to the
    ladder rung (or collection-level rescue) that finally moved it, and
    ``failed`` to the error that stopped it (``on_error="skip"`` only).

    Every per-file counter of :mod:`repro.counters` also reads as an
    attribute aggregated over ``per_file`` (``report.repair_bytes``).
    """

    method: str
    manifest_bytes: int
    diff: ManifestDiff
    per_file: dict[str, MethodOutcome] = field(default_factory=dict)
    added_bytes: int = 0
    reconstructed: dict[str, bytes] = field(default_factory=dict)
    workers: int = 1
    per_file_seconds: dict[str, float] = field(default_factory=dict)
    cpu_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    ref_cache_hits: int = 0
    ref_cache_misses: int = 0
    arena_used: bool = False
    arena_bytes: int = 0
    retries: dict[str, int] = field(default_factory=dict)
    fallbacks: dict[str, str] = field(default_factory=dict)
    failed: dict[str, str] = field(default_factory=dict)
    #: Wire-latency accounting (always filled for the changed files):
    #: ``roundtrips_on_wire`` counts direction reversals on the (real or
    #: modelled) link — per-file sums for the sequential path, the shared
    #: multiplexed channel's count for the pipelined path — and
    #: ``link_wall_clock_s`` the modelled wall clock those bytes and
    #: reversals cost on the configured :class:`~repro.net.LinkModel`.
    pipelined: bool = False
    waves: int = 0
    mux_overhead_bytes: int = 0
    roundtrips_on_wire: int = 0
    link_wall_clock_s: float = 0.0
    #: Reuse-layer counters (DESIGN §17), all zero on a clean default
    #: run: added files served by content identity (renames) or as a
    #: delta against a similar sibling, the wire bytes that saved versus
    #: a full transfer, and the delta-memo cache's hit/miss deltas.
    dedup_hits: int = 0
    delta_memo_hits: int = 0
    delta_memo_misses: int = 0
    sibling_refs_used: int = 0
    bytes_saved_vs_self_ref: int = 0

    def __getattr__(self, name: str):
        # Per-file counters of the spec (``report.repair_bytes``) read
        # through to the merge of every file's outcome.
        if name in _PER_FILE:
            return getattr(self.totals(), name)
        raise AttributeError(name)

    def totals(self) -> MethodOutcome:
        """Every file's outcome merged by the counter spec's rules."""
        return reduce(
            operator.add, self.per_file.values(), MethodOutcome(total_bytes=0)
        )

    @property
    def changed_bytes(self) -> int:
        return sum(outcome.total_bytes for outcome in self.per_file.values())

    changed_transfer_bytes = changed_bytes

    @property
    def total_bytes(self) -> int:
        return self.manifest_bytes + self.changed_bytes + self.added_bytes

    @property
    def files_changed(self) -> int:
        return len(self.diff.changed)

    @property
    def files_unchanged(self) -> int:
        return len(self.diff.unchanged)

    @property
    def total_retries(self) -> int:
        return sum(self.retries.values())

    @property
    def fallback_files(self) -> int:
        return len(self.fallbacks)

    files_fallback = fallback_files

    @property
    def failed_files(self) -> int:
        return len(self.failed)

    files_failed = failed_files

    def summary(self) -> dict[str, int]:
        return {
            "manifest": self.manifest_bytes,
            "changed": self.changed_transfer_bytes,
            "added": self.added_bytes,
            "total": self.total_bytes,
        }


def sync_collection_batched(
    client_files: dict[str, bytes],
    server_files: dict[str, bytes],
    config=None,
    verify: bool = True,
) -> CollectionReport:
    """Like :func:`sync_collection` with our protocol, but every changed
    file shares the same roundtrips (``repro.core.synchronize_batch``).

    This is the deployment mode the paper assumes for large collections:
    recursive splitting costs latency once per *collection*, not once per
    file.
    """
    from repro.core.batch import synchronize_batch

    opts = SyncOptions(verify=verify)
    report, changed = _detect_changes(
        client_files, server_files, "ours-batched", opts
    )
    if changed:
        batch = synchronize_batch(
            {task.name: task.old for task in changed},
            {task.name: task.new for task in changed},
            config,
        )
        report.reconstructed.update(batch.reconstructed)
        # Attribute the shared cost to one aggregate outcome entry.
        report.per_file["<batch>"] = MethodOutcome(
            total_bytes=batch.total_bytes,
            client_to_server=batch.stats.client_to_server_bytes,
            server_to_client=batch.stats.server_to_client_bytes,
            breakdown=dict(batch.stats.breakdown()),
        )
    _verify_and_store(report, server_files, opts)
    return report


def _detect_changes(client_files, server_files, method_name, opts):
    """Charge change detection, then settle every file that needs no
    per-file protocol: unchanged files cost nothing, files only on the
    server are transferred whole (or by sibling reference).  Returns the
    report so far and the changed files as tasks.

    Detection is either the full fingerprint manifest (``"manifest"``,
    the paper's approach) or Merkle-trie reconciliation
    (``"reconcile"``, cost proportional to the number of changes).
    """
    client_manifest = Manifest.of_collection(client_files)
    server_manifest = Manifest.of_collection(server_files)
    if opts.change_detection == "manifest":
        diff = diff_manifests(client_manifest, server_manifest)
        detection_bytes = server_manifest.wire_bytes()
    else:
        from repro.collection.reconcile import reconcile_manifests

        diff, channel = reconcile_manifests(client_manifest, server_manifest)
        detection_bytes = channel.stats.total_bytes

    report = CollectionReport(
        method=method_name, manifest_bytes=detection_bytes, diff=diff
    )
    for name in diff.unchanged:
        report.reconstructed[name] = client_files[name]
    if diff.added:
        _transfer_added(
            report,
            client_files,
            server_files,
            diff.added,
            client_manifest,
            opts,
        )
    changed = [
        FileTask(name, client_files[name], server_files[name])
        for name in diff.changed
    ]
    return report, changed


def _verify_and_store(report, server_files, opts) -> None:
    """Check the reconstruction byte for byte (files skipped under
    ``on_error="skip"`` keep the client's copy), then materialise it."""
    if opts.verify:
        for name, data in server_files.items():
            if name in report.failed:
                continue
            if report.reconstructed.get(name) != data:
                raise IntegrityError(
                    f"collection reconstruction differs at {name}"
                )
    store = opts.store
    if store is not None:
        from repro.collection.store import CollectionStore

        if not isinstance(store, CollectionStore):
            store = CollectionStore(store)
        store.write_collection(report.reconstructed)


def _transfer_added(
    report: CollectionReport,
    client_files: dict[str, bytes],
    server_files: dict[str, bytes],
    added,
    client_manifest: Manifest,
    opts: SyncOptions,
) -> None:
    """Transfer the files the client lacks entirely.

    Default: compressed full transfer, exactly the pre-reuse behaviour.
    With ``opts.sibling_refs`` each added file is first matched by content
    identity (the client already holds these bytes under another name —
    a rename, zero wire bytes beyond the manifest) and then against the
    most similar client file by min-hash resemblance (delta-coded when
    that beats the full transfer).  Every decision takes the cheaper
    payload, so the option never costs bytes.
    """
    from repro.delta.encoder import zdelta_decode, zdelta_encode
    from repro.hashing.strong import file_fingerprint

    index = None
    by_fingerprint: dict[bytes, str] = {}
    if opts.sibling_refs and client_files:
        from repro.reuse.similarity import SimilarityIndex

        # Earliest name wins per content (sorted = deterministic).
        for name in sorted(client_files, reverse=True):
            by_fingerprint[client_manifest.entries[name]] = name
        index = SimilarityIndex()
        for name in sorted(client_files):
            index.add(name, client_files[name])
    for name in added:
        new = server_files[name]
        payload = zlib.compress(new, 9)
        if by_fingerprint:
            twin = by_fingerprint.get(file_fingerprint(new))
            if twin is not None:
                # Rename: content-identical bytes already on the client.
                report.dedup_hits += 1
                report.bytes_saved_vs_self_ref += len(payload)
                report.reconstructed[name] = client_files[twin]
                continue
        if index is not None:
            candidate = index.best_reference(
                new, threshold=opts.resemblance_threshold
            )
            if candidate is not None:
                sibling_name, _resemblance = candidate
                sibling = client_files[sibling_name]
                delta = zdelta_encode(sibling, new)
                if len(delta) < len(payload):
                    report.added_bytes += len(delta)
                    report.sibling_refs_used += 1
                    report.bytes_saved_vs_self_ref += (
                        len(payload) - len(delta)
                    )
                    report.reconstructed[name] = zdelta_decode(sibling, delta)
                    continue
        report.added_bytes += len(payload)
        report.reconstructed[name] = zlib.decompress(payload)


def sync_collection(
    client_files: dict[str, bytes],
    server_files: dict[str, bytes],
    method: SyncMethod,
    **options,
) -> CollectionReport:
    """Update ``client_files`` to ``server_files`` using ``method``.

    ``options`` are the :class:`~repro.collection.options.SyncOptions`
    fields (an unknown keyword raises :class:`TypeError`), validated
    before any work starts.  Change detection is charged first;
    unchanged files cost nothing further, files only on the server are
    sent compressed (or served by sibling references), and changed files
    go through the per-file method — sequentially or over a process pool
    (results reassembled in manifest order, so the byte accounting is
    identical), or pipelined round by round over one multiplexed channel.
    """
    from repro.reuse.memo import delta_memo_scope

    opts = SyncOptions(**options)
    opts.validate(method)
    with delta_memo_scope(
        None if opts.delta_memo is None else bool(opts.delta_memo)
    ):
        checkpoints = opts.checkpoints
        if checkpoints is None and opts.checkpoint_dir is not None:
            from repro.resilience import CheckpointStore

            checkpoints = CheckpointStore(
                opts.checkpoint_dir, resume=opts.resume
            )
        if not opts.pipeline:  # the pipelined scheduler drives journals itself
            method, graceful, budget = _supervised(method, opts, checkpoints)

        report, changed = _detect_changes(
            client_files, server_files, method.name, opts
        )
        if opts.pipeline:
            _sync_pipelined(report, method, changed, opts, checkpoints)
        else:
            _sync_sequential(report, method, changed, opts, graceful, budget)
        _verify_and_store(report, server_files, opts)
    return report


def _sync_pipelined(report, method, changed, opts, checkpoints) -> None:
    """Interleave the changed files' rounds over one multiplexed channel
    (:class:`~repro.collection.pipeline.CollectionScheduler`); per-file
    accounting stays bit-identical to the sequential path, only
    ``roundtrips_on_wire`` and ``link_wall_clock_s`` collapse."""
    from repro.collection.pipeline import CollectionScheduler

    scheduler = CollectionScheduler(
        method, window=opts.window, link=opts.link, checkpoints=checkpoints
    )
    with cache_deltas() as deltas:
        run = scheduler.run([(t.name, t.old, t.new) for t in changed])
    vars(report).update(deltas)
    report.pipelined = True
    report.waves = run.waves
    report.mux_overhead_bytes = run.mux_overhead_bytes
    report.roundtrips_on_wire = run.roundtrips_on_wire
    report.link_wall_clock_s = run.link_wall_clock_s
    for task in changed:
        name = task.name
        outcome = run.per_file[name]
        report.per_file[name] = outcome
        report.per_file_seconds[name] = run.per_file_seconds[name]
        report.cpu_seconds += run.per_file_seconds[name]
        report.reconstructed[name] = run.reconstructed[name]
        if opts.verify and not outcome.correct:
            raise IntegrityError(f"method {method.name} failed on {name}")


def _supervised(method, opts, checkpoints):
    """``method`` under a :class:`~repro.resilience.SyncSupervisor` when
    any resilience option asks for one, plus whether the run degrades
    gracefully (breakers or deadlines) and the run-deadline budget."""
    from repro.resilience import (
        AdaptiveRetryPolicy,
        BreakerBoard,
        DeadlineBudget,
        SyncSupervisor,
    )

    budget = None
    if opts.run_deadline_s is not None:
        budget = DeadlineBudget(opts.run_deadline_s)
    retry_policy = opts.retry_policy
    if opts.adaptive_retry:
        if isinstance(opts.adaptive_retry, AdaptiveRetryPolicy):
            retry_policy = opts.adaptive_retry
        elif not isinstance(retry_policy, AdaptiveRetryPolicy):
            # Mirror a given static schedule into the adaptive policy so
            # `adaptive_retry=True` composes with `retry_policy=...`.
            schedule = asdict(retry_policy) if retry_policy else {}
            retry_policy = AdaptiveRetryPolicy(**schedule)
    breakers = opts.breaker_threshold
    if breakers is not None:
        if not isinstance(breakers, BreakerBoard):
            breakers = BreakerBoard(failure_threshold=int(breakers))
    graceful = (
        breakers is not None
        or opts.deadline_s is not None
        or budget is not None
    )
    if (
        opts.fault_plan is not None
        or retry_policy is not None
        or checkpoints is not None
        or graceful
    ):
        if not isinstance(method, SyncSupervisor):
            method = SyncSupervisor(
                method,
                retry=retry_policy,
                fault_plan=opts.fault_plan,
                link=opts.link,
                checkpoints=checkpoints,
                breakers=breakers,
                deadline_s=opts.deadline_s,
                budget=budget,
            )
    return method, graceful, budget


def _sync_sequential(report, method, changed, opts, graceful, budget) -> None:
    """Run every changed file's protocol to completion, serially or over
    the executor's process pool, isolating failures per ``on_error``."""
    workers, executor = opts.workers, opts.executor
    if budget is not None:
        # The run-level budget is shared mutable state charged by every
        # file in sequence; pool workers each mutate their own pickled
        # copy, so a run deadline forces serial execution.
        workers, executor = 1, None
    if executor is None:
        executor = SyncExecutor(workers=workers, use_arena=opts.use_arena)
    batch = executor.run(
        method,
        changed,
        # Breakers/deadlines promise graceful degradation, so their typed
        # refusals must be captured (and skipped below) even when other
        # errors still abort the run.
        capture_errors=(opts.on_error != "raise") or graceful,
    )
    report.workers = batch.workers_used
    vars(report).update((key, getattr(batch, key)) for key in CACHE_COUNTERS)
    report.arena_used = batch.arena_used
    report.arena_bytes = batch.arena_bytes
    tasks = {task.name: task for task in changed}
    for result in batch.files:
        name = result.name
        outcome = result.outcome
        report.per_file_seconds[name] = result.elapsed_seconds
        report.cpu_seconds += result.cpu_seconds
        if outcome.retries:
            report.retries[name] = outcome.retries
        failed = result.error is not None or not outcome.correct
        skip_this = failed and opts.on_error == "skip"
        if failed and opts.on_error == "raise" and graceful:
            if result.error is not None and result.error.startswith(
                ("DeadlineExceededError", "CircuitOpenError")
            ):
                skip_this = True  # graceful degradation, not an abort
            elif result.error is not None:
                from repro.exceptions import SyncFailedError

                raise SyncFailedError(f"{name}: {result.error}")
        if skip_this:
            report.failed[name] = result.error or "IntegrityError: bad bytes"
            report.per_file[name] = outcome
            report.reconstructed[name] = tasks[name].old
            continue
        if failed and opts.on_error == "fallback":
            # Out-of-band rescue: a reliable compressed full transfer
            # replaces the wire accounting; everything the doomed
            # attempts sent is charged as retransmission, and the
            # attempts' other counters carry over.
            payload_bytes = len(zlib.compress(tasks[name].new, 9))
            outcome = replace(
                outcome,
                total_bytes=payload_bytes,
                client_to_server=0,
                server_to_client=payload_bytes,
                breakdown={"s2c/rescue": payload_bytes},
                correct=True,
                fallback_method="rescue-full",
                retransmitted_bytes=(
                    outcome.retransmitted_bytes + outcome.total_bytes
                ),
                roundtrips=0,
            )
        report.per_file[name] = outcome
        report.reconstructed[name] = tasks[name].new
        if outcome.fallback_method:
            report.fallbacks[name] = outcome.fallback_method
        if opts.verify and not outcome.correct:
            raise IntegrityError(f"method {method.name} failed on {name}")

    # Wire-latency accounting for the sequential path: each file's
    # session pays its own direction reversals on the link, so the
    # collection's cost is the per-file sum — the figure the pipelined
    # scheduler collapses.
    from repro.net.channel import LinkModel

    outcomes = list(report.per_file.values())
    report.roundtrips_on_wire = sum(o.roundtrips for o in outcomes)
    if outcomes:
        report.link_wall_clock_s = (opts.link or LinkModel()).transfer_seconds(
            [o.client_to_server for o in outcomes],
            [o.server_to_client for o in outcomes],
            [o.roundtrips for o in outcomes],
        )

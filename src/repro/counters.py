"""The counter spec: every figure a collection sync reports, declared once.

Each :class:`Counter` names one figure, says where its value lives and
how it combines, and how it is rounded on export.  Everything else is
derived from :data:`COUNTERS`: ``MethodOutcome.__add__``, the per-file
aggregates readable on a ``CollectionReport`` (``report.repair_bytes``),
the fields of a ``CollectionRun``, the CSV/JSON row of
:func:`repro.bench.export.run_to_row`, and the ``repro-sync sync --json``
object.  Both outputs list the counters in the order declared here.

Adding a counter:

1. add a :class:`Counter` to :data:`COUNTERS` at the export position;
2. declare the field on ``MethodOutcome`` (per file) or
   ``CollectionReport`` (per collection) with its "nothing happened"
   default;
3. increment it where it happens.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

#: A ``MethodOutcome`` field, combined across a collection's files.
FILE = "file"
#: An attribute of the ``CollectionReport`` itself.
COLLECTION = "collection"
#: Measured by the benchmark runner around the sync; in CSV/JSON rows
#: but not in the CLI's ``--json`` object.
RUN = "run"

#: How two per-file values combine (the outcome's defaults are the
#: identity of every rule, so merging starts from an empty outcome).
MERGE_RULES = {
    "sum": operator.add,
    "min": min,
    "all": lambda a, b: a and b,
    "first": lambda a, b: a or b,
    "keywise": lambda a, b: {**a, **{k: a.get(k, 0) + v for k, v in b.items()}},
}


@dataclass(frozen=True)
class Counter:
    """One reported figure.

    ``digits`` rounds the exported value (``None`` exports it exactly);
    ``merge`` names a :data:`MERGE_RULES` entry and matters only for
    per-file counters.
    """

    name: str
    scope: str = COLLECTION
    merge: str = "sum"
    digits: int | None = None

    def export(self, value):
        return value if self.digits is None else round(value, self.digits)


COUNTERS: tuple[Counter, ...] = (
    Counter("total_bytes"),  # manifest + changed + added
    Counter("manifest_bytes"),  # change detection
    Counter("changed_bytes"),
    Counter("added_bytes"),
    Counter("files_changed"),
    Counter("files_unchanged"),
    #: Changed-file bytes per wire phase; flattened to ``breakdown.<phase>``
    #: columns (sorted) at the end of a CSV/JSON row.
    Counter("breakdown", FILE, merge="keywise"),
    Counter("elapsed_seconds", RUN, digits=4),
    Counter("workers"),
    Counter("cpu_seconds", digits=4),
    Counter("p50_file_seconds", RUN, digits=6),
    Counter("p95_file_seconds", RUN, digits=6),
    # Process-wide index, reference-index and delta-memo cache deltas.
    Counter("cache_hits"),
    Counter("cache_misses"),
    Counter("ref_cache_hits"),
    Counter("ref_cache_misses"),
    Counter("arena_used"),
    Counter("arena_bytes"),
    # Resilience (DESIGN §9–10, §14).
    Counter("retries", FILE),
    Counter("fallback_files"),
    Counter("failed_files"),
    Counter("retransmitted_bytes", FILE),
    Counter("recovery_seconds", FILE, digits=4),
    Counter("rounds_salvaged", FILE),
    Counter("resume_handshake_bits", FILE),
    Counter("checkpoint_bytes_written", FILE),  # local disk, never wire
    Counter("health_score", FILE, merge="min", digits=4),  # worst link seen
    Counter("breaker_opens", FILE),
    Counter("deadline_salvages", FILE),
    Counter("adaptive_backoff_s", FILE, digits=4),
    # Integrity (DESIGN §15).
    Counter("collisions_detected", FILE),
    Counter("repair_rounds", FILE),
    Counter("repair_bytes", FILE),
    # Wire latency and pipelining (DESIGN §16).
    Counter("pipelined"),
    Counter("waves"),
    Counter("mux_overhead_bytes"),
    Counter("roundtrips_on_wire"),
    Counter("link_wall_clock_s", digits=4),
    # Cross-file reuse (DESIGN §17).
    Counter("dedup_hits"),
    Counter("delta_memo_hits"),
    Counter("delta_memo_misses"),
    Counter("sibling_refs_used"),
    Counter("bytes_saved_vs_self_ref"),
)

#: ``MethodOutcome`` fields that merge across files but reach the exports
#: only through collection figures (``changed_bytes``,
#: ``roundtrips_on_wire``, ``fallback_files``).
OUTCOME_ONLY: tuple[Counter, ...] = (
    Counter("total_bytes", FILE),
    Counter("client_to_server", FILE),
    Counter("server_to_client", FILE),
    Counter("correct", FILE, merge="all"),
    Counter("fallback_method", FILE, merge="first"),
    Counter("roundtrips", FILE),
)

#: Merge rule of every ``MethodOutcome`` field, by name.
OUTCOME_MERGE = {
    counter.name: MERGE_RULES[counter.merge]
    for counter in COUNTERS + OUTCOME_ONLY
    if counter.scope == FILE
}


def counter_values(report, **measured) -> dict[str, object]:
    """Every :data:`COUNTERS` value of one collection update, in order.

    Per-file counters come from the merge of ``report.per_file``,
    collection counters from the report's attributes, and run counters
    from ``measured``.
    """
    totals = report.totals()
    sources = {FILE: totals, COLLECTION: report}
    return {
        counter.name: (
            measured[counter.name]
            if counter.scope == RUN
            else getattr(sources[counter.scope], counter.name)
        )
        for counter in COUNTERS
    }

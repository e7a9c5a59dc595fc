"""Run methods over collection pairs and collect comparable rows."""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bench.methods import SyncMethod
from repro.collection.sync import sync_collection
from repro.counters import counter_values


def _percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


@dataclass
class CollectionRun:
    """One (method, collection-pair) measurement.

    ``values`` holds every counter of :data:`repro.counters.COUNTERS` in
    export order — wire bytes, compute cost (workers, CPU seconds,
    per-file wall-clock percentiles, cache hit/miss counters),
    resilience, integrity, pipelining and reuse — each also readable as
    an attribute (``run.total_bytes``, ``run.cache_hits``).
    """

    method: str
    values: dict[str, object]

    def __getattr__(self, name: str):
        try:
            return self.__dict__["values"][name]
        except KeyError:
            raise AttributeError(name) from None

    @property
    def total_kb(self) -> float:
        return self.total_bytes / 1024.0

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0


def run_method_on_collection(
    method: SyncMethod,
    old_files: dict[str, bytes],
    new_files: dict[str, bytes],
    **options,
) -> CollectionRun:
    """Synchronise one collection pair and flatten the report to a row.

    ``options`` are the :class:`~repro.collection.options.SyncOptions`
    fields, passed through to
    :func:`~repro.collection.sync.sync_collection`.
    """
    started = time.perf_counter()
    report = sync_collection(old_files, new_files, method, **options)
    elapsed = time.perf_counter() - started
    file_seconds = list(report.per_file_seconds.values())
    return CollectionRun(
        method.name,
        counter_values(
            report,
            elapsed_seconds=elapsed,
            p50_file_seconds=_percentile(file_seconds, 0.50),
            p95_file_seconds=_percentile(file_seconds, 0.95),
        ),
    )

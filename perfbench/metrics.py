"""Every metric the benchmark reports: name, unit and which way is better.

BENCHMARK.json lists the same names and units (a test keeps them equal);
README.md describes each metric's layer and what it should move.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"


END_TO_END: tuple[Metric, ...] = (
    Metric("sync_s", "s", "lower"),
    Metric("setup_s", "s", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
    Metric("wire_bytes", "bytes", "lower"),
    Metric("roundtrips", "count", "lower"),
    Metric("link_s", "s", "lower"),
    Metric("delivered_frac", "ratio", "higher"),
)

PER_LAYER: tuple[Metric, ...] = (
    Metric("collection.detect_s", "s", "lower"),
    Metric("collection.manifest_bytes", "bytes", "lower"),
    Metric("collection.added_bytes", "bytes", "lower"),
    Metric("collection.store_write_s", "s", "lower"),
    Metric("collection.store_bytes", "bytes", "lower"),
    Metric("parallel.dispatch_self_s", "s", "lower"),
    Metric("parallel.index_cache_hit_rate", "ratio", "higher"),
    Metric("parallel.ref_cache_hit_rate", "ratio", "higher"),
    Metric("core.sessions", "count", "lower"),
    Metric("core.rounds", "count", "lower"),
    Metric("core.session_init_s", "s", "lower"),
    Metric("core.server_emit_s", "s", "lower"),
    Metric("core.client_lookup_s", "s", "lower"),
    Metric("core.verify_s", "s", "lower"),
    Metric("core.round_self_s", "s", "lower"),
    Metric("core.accept_rate", "ratio", "higher"),
    Metric("core.map_bytes", "bytes", "lower"),
    Metric("delta.encode_s", "s", "lower"),
    Metric("delta.encode_mb_s", "MB/s", "higher"),
    Metric("delta.decode_s", "s", "lower"),
    Metric("delta.bytes", "bytes", "lower"),
    Metric("hashing.fingerprint_s", "s", "lower"),
    Metric("hashing.fingerprint_calls", "count", "lower"),
    Metric("net.messages", "count", "lower"),
    Metric("net.send_s", "s", "lower"),
    Metric("net.link_latency_s", "s", "lower"),
    Metric("net.link_transfer_s", "s", "lower"),
    Metric("net.retransmit_bytes", "bytes", "lower"),
    Metric("net.faults_injected", "count", "lower"),
    Metric("resilience.retries", "count", "lower"),
    Metric("resilience.first_rung_frac", "ratio", "higher"),
    Metric("resilience.backoff_s", "s", "lower"),
    Metric("resilience.rounds_salvaged", "count", "higher"),
    Metric("resilience.checkpoint_write_s", "s", "lower"),
    Metric("resilience.checkpoint_bytes", "bytes", "lower"),
    Metric("reuse.sketch_s", "s", "lower"),
    Metric("reuse.lookup_s", "s", "lower"),
    Metric("reuse.dedup_hits", "count", "higher"),
    Metric("reuse.sibling_refs", "count", "higher"),
    Metric("reuse.bytes_saved", "bytes", "higher"),
    Metric("reuse.memo_hit_rate", "ratio", "higher"),
) + tuple(
    Metric(f"{layer}.self_s", "s", "lower")
    for layer in (
        "collection", "parallel", "core", "delta",
        "hashing", "net", "resilience", "reuse",
    )
) + (
    Metric("trace.overhead_s", "s", "lower"),
)

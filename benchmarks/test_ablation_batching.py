"""Extension ablation — roundtrip amortization across a collection.

"As in rsync itself, the roundtrip latencies are not incurred for each
file since many files can be processed simultaneously.  Thus, for large
collections additional roundtrips are not a problem."  Batched mode runs
every changed file in lockstep so the whole collection pays roughly one
latency budget; this table quantifies the claim on the web workload.
"""

from __future__ import annotations

from conftest import publish

from repro.bench import format_kb, render_table
from repro.bench.methods import OursMethod
from repro.collection import sync_collection
from repro.core import ProtocolConfig, synchronize
from repro.core.batch import synchronize_batch
from repro.net import LinkModel, SimulatedChannel


def test_ablation_batching(benchmark, web_collection):
    base = web_collection.snapshot(0)
    target = web_collection.snapshot(2)
    changed = {
        name: base[name]
        for name in base
        if base[name] != target[name]
    }
    link = LinkModel(bandwidth_bps=1_000_000, latency_s=0.05)

    # Per-file: every file pays its own roundtrips.
    per_file_bytes = 0
    per_file_roundtrips = 0
    for name in sorted(changed):
        channel = SimulatedChannel(link)
        result = synchronize(base[name], target[name], channel=channel)
        assert result.reconstructed == target[name]
        per_file_bytes += result.total_bytes
        per_file_roundtrips += channel.stats.roundtrips

    # Batched: one lockstep run.
    channel = SimulatedChannel(link)
    batch = synchronize_batch(
        changed, {name: target[name] for name in changed},
        ProtocolConfig(), channel,
    )
    assert all(batch.reconstructed[n] == target[n] for n in changed)

    rows = [
        [
            "per-file",
            format_kb(per_file_bytes),
            per_file_roundtrips,
            f"{link.transfer_seconds(0, per_file_bytes, per_file_roundtrips):.1f}",
        ],
        [
            "batched",
            format_kb(batch.total_bytes),
            batch.roundtrips,
            f"{link.transfer_seconds(0, batch.total_bytes, batch.roundtrips):.1f}",
        ],
    ]
    publish(
        "ablation_batching",
        render_table(
            ["mode", "KB", "roundtrips", "est. seconds (dsl)"],
            rows,
            title=(
                f"Ablation — roundtrip amortization "
                f"({len(changed)} changed pages, 2-day gap)"
            ),
        ),
    )

    assert batch.roundtrips < per_file_roundtrips / 3
    assert batch.total_bytes <= per_file_bytes * 1.05

    benchmark.extra_info["batched_roundtrips"] = batch.roundtrips
    benchmark.extra_info["per_file_roundtrips"] = per_file_roundtrips
    # Batched mode is pipelined sync with one cohort of every file.
    benchmark.pedantic(
        sync_collection,
        args=(base, target, OursMethod()),
        kwargs={"window": len(target)},
        iterations=1,
        rounds=1,
    )

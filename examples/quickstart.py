#!/usr/bin/env python
"""Quickstart: synchronise one file pair and inspect the cost breakdown.

Run with::

    python examples/quickstart.py

Creates two versions of a file, synchronises the outdated copy over a
simulated slow link, and prints what travelled in each direction and
phase, next to the rsync and zdelta baselines.
"""

from __future__ import annotations

import random

from repro import LinkModel, ProtocolConfig, SimulatedChannel, synchronize
from repro.delta import zdelta_size
from repro.rsync import rsync_sync
from repro.workloads import EditProfile, TextGenerator, mutate


def main() -> None:
    # 1. Build a ~60 KB "source file" and an edited successor.
    generator = TextGenerator(seed=7)
    rng = random.Random(7)
    old_version = generator.generate(60_000, rng)
    new_version = mutate(
        old_version,
        rng,
        EditProfile(edit_count=12, cluster_count=3, min_size=8, max_size=200),
        content=generator.snippet,
    )
    print(f"old file: {len(old_version):,} B, new file: {len(new_version):,} B")

    # 2. Synchronise over a 1 Mbit/s link with 50 ms latency.
    channel = SimulatedChannel(LinkModel(bandwidth_bps=1_000_000, latency_s=0.05))
    result = synchronize(old_version, new_version, ProtocolConfig(), channel)
    assert result.reconstructed == new_version

    print("\n== our protocol ==")
    print(f"total bytes      : {result.total_bytes:,}")
    print(f"  map phase      : {result.map_bytes:,}")
    print(f"  final delta    : {result.delta_bytes:,}")
    print(f"  client->server : {result.stats.client_to_server_bytes:,}")
    print(f"  server->client : {result.stats.server_to_client_bytes:,}")
    print(f"rounds           : {result.rounds} "
          f"({result.stats.roundtrips} one-way exchanges)")
    print(f"map coverage     : {result.known_fraction:.1%} of the new file")
    link_seconds = channel.link.transfer_seconds(
        result.stats.client_to_server_bytes,
        result.stats.server_to_client_bytes,
        result.stats.roundtrips,
    )
    print(f"est. link time   : {link_seconds:.2f} s")

    # 3. Baselines.
    rsync_result = rsync_sync(old_version, new_version)
    assert rsync_result.reconstructed == new_version
    lower_bound = zdelta_size(old_version, new_version)
    print("\n== baselines ==")
    print(f"rsync (default)  : {rsync_result.total_bytes:,} B "
          f"({rsync_result.total_bytes / result.total_bytes:.1f}x ours)")
    print(f"zdelta (local)   : {lower_bound:,} B "
          f"(ours is {result.total_bytes / lower_bound:.1f}x the lower bound)")


if __name__ == "__main__":
    main()

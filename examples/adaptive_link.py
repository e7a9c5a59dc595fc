#!/usr/bin/env python
"""Adaptive synchronization: probe the files, then pick parameters.

The paper's §7 sketches an ideal tool that "would be adaptive and thus
choose the best set of parameters and number of roundtrips based on the
characteristics of the data set and communication link."  This example
runs that tool on three very different file pairs over two links and
shows the configuration it picks each time.

Run with::

    python examples/adaptive_link.py
"""

from __future__ import annotations

import random

from repro import LinkModel, SimulatedChannel, synchronize
from repro.core import adaptive_synchronize
from repro.bench import render_table
from repro.workloads import EditProfile, TextGenerator, mutate


def make_pairs() -> dict[str, tuple[bytes, bytes]]:
    generator = TextGenerator(seed=31)
    rng = random.Random(31)
    base = generator.generate(50_000, rng)

    lightly_edited = mutate(
        base, rng,
        EditProfile(edit_count=4, cluster_count=2, min_size=8, max_size=60),
        content=generator.snippet,
    )
    heavily_edited = mutate(
        base, rng,
        EditProfile(edit_count=120, cluster_count=None, min_size=20,
                    max_size=400),
        content=generator.snippet,
    )
    unrelated = TextGenerator(seed=99).generate(50_000, random.Random(99))
    return {
        "lightly edited": (base, lightly_edited),
        "heavily edited": (base, heavily_edited),
        "unrelated": (base, unrelated),
    }


def main() -> None:
    links = {
        "dsl 50ms": LinkModel(bandwidth_bps=1_000_000, latency_s=0.05),
        "satellite 300ms": LinkModel(bandwidth_bps=1_000_000, latency_s=0.3),
    }
    rows = []
    for pair_name, (old, new) in make_pairs().items():
        for link_name, link in links.items():
            channel = SimulatedChannel(link)
            result, config = adaptive_synchronize(old, new, link, channel)
            assert result.reconstructed == new
            default_result = synchronize(old, new)
            link_seconds = link.transfer_seconds(
                channel.stats.client_to_server_bytes,
                channel.stats.server_to_client_bytes,
                channel.stats.roundtrips,
            )
            rows.append(
                [
                    pair_name,
                    link_name,
                    config.min_block_size,
                    config.max_rounds or "-",
                    config.verification,
                    f"{result.total_bytes:,}",
                    f"{default_result.total_bytes:,}",
                    f"{link_seconds:.1f}",
                ]
            )
    print(
        render_table(
            ["files", "link", "min blk", "max rounds", "verify",
             "adaptive B", "default B", "est s"],
            rows,
            title="Adaptive parameter selection (probe cost included)",
        )
    )


if __name__ == "__main__":
    main()

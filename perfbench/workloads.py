"""Seeded input trees and CLI flags for the benchmark workloads.

Every workload is built from the repository's own generators
(``SourceTreeProfile``, ``TextGenerator``, ``EditProfile``, ``mutate``).
Two random streams feed each one:

* a fixed *shape* stream draws the tree's structure — file names, file
  sizes, which files are unchanged, lightly edited, rewritten, added,
  removed, moved or vendored — so every seed syncs a tree of the same
  stated size;
* the ``--seed`` stream draws the content — the text of every file and
  the placement, size and kind of every edit.

``repro.workloads.gcc_like`` draws both from one stream, so its total
size alone varies by about 11% (interquartile range over ten seeds) and
every byte and time metric with it; fixing the shape leaves the seed to
vary only what the protocol reacts to.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path

from repro.workloads import EditProfile, TextGenerator, mutate
from repro.workloads.source_tree import SourceTreeProfile

#: Seed of the shape stream; part of each workload's definition.
SHAPE_SEED = 2004


@dataclass(frozen=True)
class Workload:
    """One benchmark input: the two trees and the sync flags to use."""

    name: str
    old: dict[str, bytes]
    new: dict[str, bytes]
    #: Extra ``repro.cli sync`` flags; the runner fills in ``{checkpoints}``.
    flags: tuple[str, ...] = ()
    #: Flags that make the link faulty.  The runner also syncs once
    #: without them, where every file must finish on the first rung.
    faults: tuple[str, ...] = ()


def tree_digest(files: dict[str, bytes]) -> str:
    """SHA-256 over the sorted (name, content) pairs of a tree."""
    digest = hashlib.sha256()
    for name in sorted(files):
        data = files[name]
        digest.update(name.encode() + b"\0")
        digest.update(len(data).to_bytes(8, "big"))
        digest.update(data)
    return digest.hexdigest()


def write_tree(root: Path, files: dict[str, bytes]) -> None:
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _gcc_profile(scale: float) -> SourceTreeProfile:
    """The profile ``repro.workloads.gcc_like`` uses at ``scale``."""
    return SourceTreeProfile(
        name="gcc-like",
        file_count=max(10, int(250 * scale)),
        unchanged_fraction=0.25,
        lightly_edited_fraction=0.58,
        heavy_rewrite_fraction=0.12,
    )


def point_release(scale: float, seed: int) -> tuple[dict, dict]:
    """A gcc-like release pair with a fixed shape and seeded content.

    Follows ``repro.workloads.source_tree.make_source_tree`` step for
    step — lognormal file sizes, the same category fractions and the
    same light/heavy edit profiles — with structure drawn from
    :data:`SHAPE_SEED` and content from ``seed``.
    """
    profile = _gcc_profile(scale)
    shape = random.Random(SHAPE_SEED)
    content = random.Random(seed)
    text = TextGenerator(seed ^ 0xC0DE)

    mu = math.log(profile.mean_file_size) - profile.size_sigma**2 / 2

    def draw_size() -> int:
        return max(256, int(shape.lognormvariate(mu, profile.size_sigma)))

    names = [
        f"src/{shape.choice(('core', 'lib', 'util', 'io', 'net'))}"
        f"/file{i:04d}.c"
        for i in range(profile.file_count)
    ]
    old = {name: text.generate(draw_size(), content) for name in names}

    shuffled = list(names)
    shape.shuffle(shuffled)
    counts = [
        int(round(fraction * profile.file_count))
        for fraction in (
            profile.removed_fraction,
            profile.heavy_rewrite_fraction,
            profile.lightly_edited_fraction,
        )
    ]
    removed = set(shuffled[: counts[0]])
    heavy = set(shuffled[counts[0] : counts[0] + counts[1]])
    light = set(shuffled[counts[0] + counts[1] : sum(counts)])

    new: dict[str, bytes] = {}
    for name in names:
        if name in removed:
            continue
        data = old[name]
        if name in heavy:
            edits = max(3, int(len(data) / 1024 * profile.heavy_edits_per_kb))
            edit_profile = EditProfile(
                edit_count=edits,
                cluster_count=max(2, edits // 4),
                cluster_spread=400.0,
                min_size=8,
                max_size=600,
            )
            data = mutate(data, content, edit_profile, content=text.snippet)
        elif name in light:
            edits = max(1, int(len(data) / 1024 * profile.light_edits_per_kb))
            edit_profile = EditProfile(
                edit_count=edits,
                cluster_count=2,
                cluster_spread=150.0,
                min_size=4,
                max_size=80,
            )
            data = mutate(data, content, edit_profile, content=text.snippet)
        new[name] = data

    added = int(round(profile.added_fraction * profile.file_count))
    for i in range(added):
        new[f"src/new/file{i:04d}.c"] = text.generate(draw_size(), content)
    return old, new


def big_files(
    count: int, size: int, edits: int, seed: int
) -> tuple[dict, dict]:
    """``count`` files of ``size`` bytes, each with clustered edits."""
    content = random.Random(seed)
    text = TextGenerator(seed ^ 0xB16)
    edit_profile = EditProfile(
        edit_count=edits,
        cluster_count=max(1, edits // 4),
        cluster_spread=2000.0,
        min_size=8,
        max_size=200,
    )
    old, new = {}, {}
    for i in range(count):
        name = f"data/blob{i:02d}.txt"
        old[name] = text.generate(size, content)[:size]
        new[name] = mutate(
            old[name], content, edit_profile, content=text.snippet
        )
    return old, new


def reorganise(
    old: dict[str, bytes],
    new: dict[str, bytes],
    moved_fraction: float,
    vendored_fraction: float,
) -> dict[str, bytes]:
    """Move some of NEW's files to a new directory; vendor copies of others.

    Which files move and which gain a copy under ``vendor/`` is drawn
    from the shape stream, so it is the same for every seed.
    """
    shape = random.Random(SHAPE_SEED + 1)
    names = sorted(name for name in new if name in old)
    shape.shuffle(names)
    moved_count = int(round(moved_fraction * len(names)))
    vendored_count = int(round(vendored_fraction * len(names)))
    moved = set(names[:moved_count])
    vendored = names[moved_count : moved_count + vendored_count]
    result = {}
    for name, data in new.items():
        if name in moved:
            name = "moved/" + name.split("/", 1)[1]
        result[name] = data
    for name in vendored:
        result["vendor/" + name.rsplit("/", 1)[1]] = new[name]
    return result


#: Workload sizes: ``full`` is what a timed run syncs, ``smoke`` the
#: tiny version the smoke mode and the tests use.
SIZES = {
    "full": {"bigfile": (4, 1 << 20, 32), "reorg": 1.0},
    "smoke": {"bigfile": (1, 1 << 15, 4), "reorg": 0.08},
}

LOSSY_FLAGS = (
    "--adaptive-retry",
    "--checkpoint-dir", "{checkpoints}",
    "--on-error", "fallback",
)
#: The link's fault sequence is fixed like the tree shape, so the seed
#: varies only the content the faults land on.
LOSSY_FAULTS = ("--fault-rate", "0.02", "--fault-seed", str(SHAPE_SEED))
REORG_FLAGS = ("--sibling-refs", "--delta-memo")

WORKLOADS = ("reorg", "bigfile", "lossy")


def build(name: str, seed: int, size: str = "full") -> Workload:
    """Generate workload ``name`` from ``seed`` at ``size`` (full/smoke)."""
    sizes = SIZES[size]
    if name == "bigfile":
        return Workload(name, *big_files(*sizes["bigfile"], seed=seed))
    if name == "lossy":
        # The bigfile trees, so lossy minus bigfile is the faulty link's cost.
        return Workload(
            name, *big_files(*sizes["bigfile"], seed=seed),
            flags=LOSSY_FLAGS, faults=LOSSY_FAULTS,
        )
    if name == "reorg":
        old, new = point_release(sizes["reorg"], seed)
        return Workload(
            name, old, reorganise(old, new, 0.30, 0.10), flags=REORG_FLAGS
        )
    raise ValueError(f"unknown workload {name!r}")

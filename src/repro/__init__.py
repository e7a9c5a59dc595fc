"""repro — multi-round file synchronization for large replicated collections.

A faithful, from-scratch reproduction of Suel, Noel & Trendafilov,
"Improved File Synchronization Techniques for Maintaining Large Replicated
Collections over Slow Networks" (ICDE 2004): the two-phase map-construction
+ delta framework with recursive splitting, group-testing match
verification, continuation/local hashes, and decomposable rolling hashes —
plus every substrate it needs (rsync baseline, zdelta/vcdiff-style delta
coders, a byte-exact simulated channel, and workload generators mirroring
the paper's data sets).

Quickstart::

    from repro import synchronize, ProtocolConfig

    result = synchronize(old_bytes, new_bytes, ProtocolConfig())
    assert result.reconstructed == new_bytes
    print(result.total_bytes, "bytes on the wire")
"""

from repro.collection import CollectionReport, SyncOptions, sync_collection
from repro.core import ProtocolConfig, SyncResult, synchronize
from repro.delta import (
    vcdiff_decode,
    vcdiff_encode,
    zdelta_decode,
    zdelta_encode,
)
from repro.exceptions import (
    ChannelEmptyError,
    FrameCorruptionError,
    ReproError,
    SyncFailedError,
)
from repro.net import (
    Direction,
    FaultPlan,
    FaultyChannel,
    LinkModel,
    SimulatedChannel,
    TransferStats,
)
from repro.parallel import HashIndexCache, SyncExecutor, default_cache
from repro.resilience import RetryPolicy, SyncSupervisor
from repro.rsync import rsync_optimal, rsync_sync

__version__ = "1.0.0"

__all__ = [
    "ChannelEmptyError",
    "CollectionReport",
    "Direction",
    "FaultPlan",
    "FaultyChannel",
    "FrameCorruptionError",
    "HashIndexCache",
    "LinkModel",
    "ProtocolConfig",
    "ReproError",
    "RetryPolicy",
    "SimulatedChannel",
    "SyncExecutor",
    "SyncFailedError",
    "SyncOptions",
    "SyncResult",
    "SyncSupervisor",
    "TransferStats",
    "__version__",
    "default_cache",
    "rsync_optimal",
    "rsync_sync",
    "sync_collection",
    "synchronize",
    "vcdiff_decode",
    "vcdiff_encode",
    "zdelta_decode",
    "zdelta_encode",
]

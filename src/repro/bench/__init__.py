"""Benchmark harness: method adapters, collection runners, table/figure output.

Every method under evaluation (our protocol, rsync default/optimal, the
zdelta and vcdiff local delta coders, full transfer) is wrapped in a
:class:`~repro.bench.methods.SyncMethod` with uniform accounting so the
per-table benchmark scripts stay small.
"""

from repro.bench.methods import (
    AdaptiveMethod,
    FullTransferMethod,
    MethodOutcome,
    MultiroundRsyncMethod,
    OursMethod,
    RsyncMethod,
    RsyncOptimalMethod,
    SyncMethod,
    VcdiffMethod,
    ZdeltaMethod,
    standard_methods,
)
from repro.bench.export import export_runs, run_to_row
from repro.bench.perfbaseline import (
    SUITES,
    FingerprintProbeMethod,
    OpTiming,
    PerfBaseline,
    Ratio,
    Suite,
    compare_baselines,
    load_baseline,
    measure_suite,
    render_baseline,
    save_baseline,
)
from repro.bench.runner import CollectionRun, run_method_on_collection
from repro.bench.report import format_kb, render_grouped_bars, render_table
from repro.bench.soak import (
    DEFAULT_SEEDS,
    DEFAULT_SHAPES,
    SOAK_PROFILES,
    SoakReport,
    SoakRow,
    run_soak,
)

__all__ = [
    "AdaptiveMethod",
    "CollectionRun",
    "DEFAULT_SEEDS",
    "DEFAULT_SHAPES",
    "SOAK_PROFILES",
    "SoakReport",
    "SoakRow",
    "FingerprintProbeMethod",
    "FullTransferMethod",
    "MethodOutcome",
    "MultiroundRsyncMethod",
    "OpTiming",
    "OursMethod",
    "PerfBaseline",
    "Ratio",
    "RsyncMethod",
    "RsyncOptimalMethod",
    "SUITES",
    "Suite",
    "SyncMethod",
    "VcdiffMethod",
    "ZdeltaMethod",
    "compare_baselines",
    "export_runs",
    "format_kb",
    "load_baseline",
    "measure_suite",
    "render_baseline",
    "render_grouped_bars",
    "render_table",
    "run_method_on_collection",
    "run_soak",
    "run_to_row",
    "save_baseline",
    "standard_methods",
]

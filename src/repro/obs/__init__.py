"""Projections-style observability: metrics, timeline analysis, critical path,
perf reports, and the perf-regression gate.

The package subscribes to the simulator's observer bus
(:mod:`repro.sim.probe`) without importing the application stack;
:func:`~repro.obs.report.collect_perf` lazy-imports the app driver.
"""

from .critpath import WAIT, CriticalPath, PathSegment, collect_segments, critical_path
from .diff import DeltaEntry, DiffReport, SchemaMismatch, diff_reports, diff_sidecar_dirs
from .metrics import (
    MAX_SERIES,
    OVERFLOW_METRIC,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    size_bucket,
)
from .report import (
    COMPARE_SCHEMA,
    Comparison,
    Observatory,
    PerfReport,
    Regression,
    collect_perf,
    compare_perf,
    extract_comparable,
)
from .whatif import (
    DEFAULT_TOLERANCE,
    Intervention,
    OdfAdvice,
    WhatIfModel,
    WhatIfPrediction,
    WhatIfValidation,
    advise_odf,
    apply_to_machine,
    odf_sweep,
    record_run,
    resolve_targets,
    validate_intervention,
)
from .timeline import (
    ResourceUsage,
    compute_comm_overlap,
    gpu_compute_spans,
    iteration_boundaries,
    per_iteration_phases,
    phase_breakdown,
    phase_intervals,
    resource_usage,
)

__all__ = [
    "COMPARE_SCHEMA",
    "DEFAULT_TOLERANCE",
    "MAX_SERIES",
    "OVERFLOW_METRIC",
    "SIZE_BUCKETS",
    "WAIT",
    "Comparison",
    "Counter",
    "CriticalPath",
    "DeltaEntry",
    "DiffReport",
    "Gauge",
    "Histogram",
    "Intervention",
    "MetricsRegistry",
    "Observatory",
    "OdfAdvice",
    "PathSegment",
    "PerfReport",
    "Regression",
    "ResourceUsage",
    "SchemaMismatch",
    "WhatIfModel",
    "WhatIfPrediction",
    "WhatIfValidation",
    "advise_odf",
    "apply_to_machine",
    "collect_perf",
    "collect_segments",
    "compare_perf",
    "compute_comm_overlap",
    "critical_path",
    "diff_reports",
    "diff_sidecar_dirs",
    "extract_comparable",
    "gpu_compute_spans",
    "iteration_boundaries",
    "odf_sweep",
    "per_iteration_phases",
    "phase_breakdown",
    "phase_intervals",
    "record_run",
    "resolve_targets",
    "resource_usage",
    "size_bucket",
    "validate_intervention",
]

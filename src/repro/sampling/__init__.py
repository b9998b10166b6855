"""SimPoint-style sampled simulation over recorded traces.

See DESIGN.md §10 and §11.  One engine serves every sampled estimate: an
:class:`~repro.sampling.adaptive.AdaptiveSession` per workload, all its
configs in lockstep, driven by a
:class:`~repro.sampling.controller.TableController`.  Public surface:

* :class:`~repro.sampling.adaptive.AdaptiveSession` -- tile the span
  into windows, cluster them on trace-derived behavior signatures
  (:mod:`repro.sampling.signature`), simulate one weighted
  representative per cluster, and split clusters one lockstep round at
  a time; fixed sampling is a session whose starting set is its region
  cap, so it never escalates;
* :class:`~repro.sampling.controller.TableController` -- whole-table
  budget control: escalate whichever workload has the worst
  CI-to-target ratio until the table meets the target;
* :func:`~repro.sampling.run.sample_workload` -- one fixed or adaptive
  cell (a one-cell table), returned as an
  :class:`~repro.sampling.adaptive.AdaptiveRun`;
* :class:`~repro.sampling.regions.Region` /
  :class:`~repro.sampling.regions.RegionPlan` -- the weighted windows a
  run simulated;
* :class:`~repro.sampling.aggregate.SampledEstimate` -- weighted
  whole-span point estimate with per-region spread (reuses
  :class:`~repro.analysis.robustness.SweepSummary`'s n>=2 honesty rule);
* :func:`~repro.sampling.paired.paired_speedup` /
  :class:`~repro.sampling.paired.PairedEstimate` -- common-regions
  paired-jackknife speedup CI over two runs' shared windows.
"""

from .adaptive import (
    DEFAULT_ADAPTIVE_CAP,
    DEFAULT_BATCH,
    DEFAULT_CI_TARGET,
    DEFAULT_START_REGIONS,
    AdaptiveRound,
    AdaptiveRun,
    AdaptiveSession,
)
from .controller import TableController
from .paired import (
    PairedEstimate,
    paired_speedup,
    shared_schedule,
)
from .aggregate import (
    CI_RELATIVE_FLOOR,
    CI_Z,
    SampledEstimate,
    estimate_cpi,
    estimate_misspec_penalty,
    weighted_ratio,
)
from .regions import (
    DEFAULT_DETAIL,
    DEFAULT_MAX_FRACTION,
    DEFAULT_MEASURE,
    DEFAULT_REGIONS,
    DEFAULT_WARMUP,
    Region,
    RegionPlan,
)
from .run import (
    CPI_ERROR_GATE,
    SampledRun,
    acquire_span_trace,
    sample_workload,
    sampled_vs_full_error,
)
from .signature import (
    assign_windows,
    cluster_windows,
    signature_distance,
    window_signature,
)

__all__ = [
    "CI_RELATIVE_FLOOR",
    "CI_Z",
    "CPI_ERROR_GATE",
    "DEFAULT_ADAPTIVE_CAP",
    "DEFAULT_BATCH",
    "DEFAULT_CI_TARGET",
    "DEFAULT_DETAIL",
    "DEFAULT_MAX_FRACTION",
    "DEFAULT_MEASURE",
    "DEFAULT_REGIONS",
    "DEFAULT_START_REGIONS",
    "DEFAULT_WARMUP",
    "AdaptiveRound",
    "AdaptiveRun",
    "AdaptiveSession",
    "PairedEstimate",
    "Region",
    "RegionPlan",
    "SampledEstimate",
    "SampledRun",
    "TableController",
    "acquire_span_trace",
    "assign_windows",
    "cluster_windows",
    "estimate_cpi",
    "estimate_misspec_penalty",
    "sample_workload",
    "paired_speedup",
    "sampled_vs_full_error",
    "shared_schedule",
    "signature_distance",
    "weighted_ratio",
    "window_signature",
]

"""Stable high-level entry points: the one import for running things.

Examples, the CLI and downstream scripts should import from here
instead of deep module paths -- the deep layout (``repro.analysis.
runner``, ``repro.sampling.run``, ...) is free to keep refactoring, and
this facade is the surface that stays put.  Everything shares one
keyword vocabulary:

``jobs``
    parallel worker processes (None -> ``REPRO_JOBS`` -> the usable-CPU
    count);
``cache``
    persistent result cache (None -> ``REPRO_CACHE`` policy);
``sampling``
    ``"off"`` / ``"fixed"`` / ``"adaptive"``
    (None -> ``REPRO_SAMPLING`` -> off);
``batch``
    max replay configs sharing one batched trace walk
    (None -> ``REPRO_BATCH`` -> 16; 0/1 disables batching);
``request``
    a :class:`RunRequest` bundling all of the above -- explicit
    keywords override its fields, the environment fills what is left,
    and library defaults apply last.

Every sampled estimate -- :func:`run_workload`'s cell, :func:`run_pair`'s
row, :func:`run_suite`'s table and :func:`sample_workload` -- runs as one
table under a :class:`TableController`, one :class:`AdaptiveSession` per
workload.

Quick start::

    from repro.api import RunRequest, run_suite

    req = RunRequest(sampling="adaptive", ci_target=0.05)
    table = run_suite({"base": base, "pubs": pubs}, ["mcf", "sjeng"],
                      request=req)
    cell = table["pubs"]["mcf"]          # a WorkloadRun estimate
    print(cell.cpi, cell.cpi_ci95)
"""

from .analysis.runner import (
    PairedRun,
    WorkloadRun,
    run_pair,
    run_suite,
    run_workload,
)
from .analysis.topdown import (
    TopdownBreakdown,
    TopdownDelta,
    breakdown_of,
    compare_topdown,
)
from .batch import run_batch
from .core.config import ProcessorConfig, RunRequest
from .exec import SweepExecutor
from .sampling.adaptive import AdaptiveRun, AdaptiveSession
from .sampling.controller import TableController
from .sampling.paired import PairedEstimate, paired_speedup
from .sampling.run import SampledRun, sample_workload

__all__ = [
    "AdaptiveRun",
    "AdaptiveSession",
    "PairedEstimate",
    "PairedRun",
    "ProcessorConfig",
    "RunRequest",
    "SampledRun",
    "SweepExecutor",
    "TableController",
    "TopdownBreakdown",
    "TopdownDelta",
    "WorkloadRun",
    "breakdown_of",
    "compare_topdown",
    "paired_speedup",
    "run_batch",
    "run_pair",
    "run_suite",
    "run_workload",
    "sample_workload",
]

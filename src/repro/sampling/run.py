"""Sampled workload runs: the run record, the span trace, one-cell runs.

:func:`sample_workload` is the sampling analogue of
:func:`repro.analysis.runner.run_workload`: instead of one simulation
over the whole timed span it simulates weighted (warmup, measure)
windows (:mod:`repro.sampling.regions`), each an independent
:class:`~repro.exec.jobs.SimJob` through a
:class:`~repro.exec.executor.SweepExecutor` -- the region rides inside
the job's :class:`~repro.core.config.ProcessorConfig`, so every window
has its own content-addressed job key and caches like any other
simulation -- and combines the per-window stats into whole-span
estimates (:mod:`repro.sampling.aggregate`).  It is a one-cell table of
the sampling engine (:mod:`repro.sampling.adaptive`,
:mod:`repro.sampling.controller`).

The trace is captured once up front into the shared
:class:`~repro.trace.store.TraceStore` (covering the furthest region
plus the widest machine's fetch reach), so pool workers find it on disk
instead of re-recording; the store's cross-process claim makes even a
cold parallel start record it exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from ..core.config import ProcessorConfig, RunRequest
from ..core.pipeline import replay_reach
from ..core.simulator import SimulationResult
from ..exec.executor import SweepExecutor
from ..trace.store import TraceStore, shared_store
from ..workloads.generator import build_program
from ..workloads.profiles import WorkloadProfile, get_profile
from .aggregate import SampledEstimate
from .regions import RegionPlan

#: Sampled CPI must land within this relative error of the full run --
#: SimPoint's headline accuracy, and the CI gate's threshold.
CPI_ERROR_GATE = 0.03


@dataclass(frozen=True)
class SampledRun:
    """Everything one sampled workload run produced."""

    workload: str
    config: ProcessorConfig  #: base config (regions are derived from it)
    plan: RegionPlan
    results: Tuple[SimulationResult, ...]  #: one per region, plan order
    cpi: SampledEstimate
    misspec_penalty: SampledEstimate

    @property
    def simulated_records(self) -> int:
        """Timed records actually simulated (the <= 1/3 coverage gate).

        Includes each region's detailed-warmup records: they run through
        the full timing model even though their stats are discarded.
        """
        return self.plan.simulated_records

    @property
    def coverage(self) -> float:
        return self.plan.coverage


def acquire_span_trace(profile: WorkloadProfile, instructions: int,
                       skip: int, checkpoint_interval: Optional[int] = None,
                       store: Optional[TraceStore] = None,
                       configs: "Sequence[Optional[ProcessorConfig]]"
                       = (None,)):
    """Capture (or load) the trace covering one sampled span.

    Acquisition happens once, up front, before any region jobs fan out:
    the session reads the trace, and pool workers then find it on disk
    instead of re-recording (the store's cross-process claim makes even
    a cold parallel start record it exactly once).  The capture covers
    the whole span plus the widest fetch reach
    (:func:`~repro.core.pipeline.replay_reach`) of the ``configs`` that
    will replay it (None: the default machine), so every schedulable
    region of every config replays from it without extending it.
    """
    trace_store = store if store is not None else shared_store()
    program = build_program(profile)
    reach = max(replay_reach(config or ProcessorConfig.cortex_a72_like())
                for config in configs)
    return trace_store.acquire(
        program, profile.mem_seed, skip + instructions + reach,
        **({"checkpoint_interval": checkpoint_interval}
           if checkpoint_interval is not None else {}))


def sample_workload(workload: Union[str, WorkloadProfile],
                    config: Optional[ProcessorConfig] = None,
                    instructions: int = 20_000,
                    skip: int = 2_000,
                    sampling: str = "fixed",
                    measure: Optional[int] = None,
                    warmup: Optional[int] = None,
                    detail: Optional[int] = None,
                    regions: Optional[int] = None,
                    max_fraction: Optional[float] = None,
                    checkpoint_interval: Optional[int] = None,
                    ci_target: Optional[float] = None,
                    executor: Optional[SweepExecutor] = None,
                    jobs: Optional[int] = None,
                    cache: "Optional[bool]" = None,
                    store: Optional[TraceStore] = None) -> SampledRun:
    """Estimate a full run's metrics from sampled regions.

    ``instructions``/``skip`` describe the *full* run being estimated;
    the regions simulate at most ``max_fraction`` of its timed records.
    ``sampling`` picks the schedule: ``"fixed"`` (default) clusters the
    span's windows on trace-derived behavior signatures and simulates
    one weighted representative per cluster, ``regions`` of them
    (default :data:`~repro.sampling.regions.DEFAULT_REGIONS`);
    ``"adaptive"`` starts from a small representative set and splits
    clusters until the estimate's CI half-width drops below
    ``ci_target`` (relative; default
    :data:`~repro.sampling.adaptive.DEFAULT_CI_TARGET`) or the region
    cap ``regions`` (default :data:`~repro.sampling.adaptive.
    DEFAULT_ADAPTIVE_CAP`) binds.  Either way the result is an
    :class:`~repro.sampling.adaptive.AdaptiveRun`.  A trace that cannot
    be captured or parsed raises instead of falling back.
    ``store`` overrides the trace store used for the up-front capture
    (pool workers always resolve theirs from the environment, so pass a
    custom store only together with ``jobs=1``).
    """
    from ..analysis.runner import _sampled_table  # runner <-> sampling
    if sampling not in ("fixed", "adaptive"):
        raise ValueError(f"sampling must be 'fixed' or 'adaptive', "
                         f"not {sampling!r}")
    request = RunRequest(
        instructions=instructions, skip=skip, sampling=sampling,
        ci_target=ci_target, regions=regions, measure=measure,
        warmup=warmup, detail=detail, max_fraction=max_fraction,
        checkpoint_interval=checkpoint_interval)
    profile = get_profile(workload) if isinstance(workload, str) else workload
    runner = executor if executor is not None \
        else SweepExecutor(jobs=jobs, cache=cache)
    cell, = _sampled_table([profile], [config], request, runner, store,
                           fallback=False)[profile.name]
    return cell.sampled


def sampled_vs_full_error(sampled: SampledRun,
                          full: SimulationResult) -> float:
    """Relative CPI error of the sampled estimate against a full run."""
    full_cpi = full.stats.cycles / full.stats.committed
    return abs(sampled.cpi.point - full_cpi) / full_cpi


__all__ = [
    "CPI_ERROR_GATE",
    "SampledRun",
    "sample_workload",
    "sampled_vs_full_error",
]

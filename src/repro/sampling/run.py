"""Sampled workload runs: plan, fan out region jobs, aggregate.

:func:`sample_workload` is the sampling analogue of
:func:`repro.analysis.runner.run_workload`: instead of one simulation
over the whole timed span it schedules (warmup, measure) windows
(:mod:`repro.sampling.regions`), runs each as an independent
:class:`~repro.exec.jobs.SimJob` through a
:class:`~repro.exec.executor.SweepExecutor` -- the region rides inside
the job's :class:`~repro.core.config.ProcessorConfig`, so every window
has its own content-addressed job key and caches like any other
simulation -- and combines the per-window stats into whole-span
estimates (:mod:`repro.sampling.aggregate`).

The trace is captured once up front into the shared
:class:`~repro.trace.store.TraceStore` (covering the furthest region
plus the widest machine's fetch reach), so pool workers find it on disk
instead of re-recording; the store's cross-process claim makes even a
cold parallel start record it exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..core.config import ProcessorConfig
from ..core.pipeline import replay_reach
from ..core.simulator import SimulationResult
from ..exec.executor import SweepExecutor
from ..exec.jobs import SimJob
from ..trace.store import TraceStore, shared_store
from ..workloads.generator import build_program
from ..workloads.profiles import WorkloadProfile, get_profile
from .aggregate import SampledEstimate, estimate_cpi, estimate_misspec_penalty
from .regions import RegionPlan, plan_regions, plan_representative_regions

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


def region_jobs(workload: Union[str, WorkloadProfile],
                config: Optional[ProcessorConfig],
                plan: RegionPlan) -> List[SimJob]:
    """One replay job per scheduled region, in plan order.

    Each job's config carries the region via ``with_region``, so its
    exec job key -- and therefore its persistent cache entry -- is
    specific to (workload, config, window): re-sampling with an
    overlapping plan reuses the windows it shares.
    """
    profile = get_profile(workload) if isinstance(workload, str) else workload
    base = config or ProcessorConfig.cortex_a72_like()
    return [SimJob(profile, base.with_region(r.start, r.warmup, r.detail),
                   r.measure, 0)
            for r in plan.regions]


def acquire_span_trace(profile: WorkloadProfile, instructions: int,
                       skip: int, checkpoint_interval: Optional[int] = None,
                       store: Optional[TraceStore] = None,
                       configs: "Sequence[Optional[ProcessorConfig]]"
                       = (None,)):
    """Capture (or load) the trace covering one sampled span.

    Acquisition happens once, up front, before any region jobs fan out:
    the planners read the trace, and pool workers then find it on disk
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


def sample_workload_many(workload: Union[str, WorkloadProfile],
                         configs: "Sequence[Optional[ProcessorConfig]]",
                         instructions: int = 20_000,
                         skip: int = 2_000,
                         strategy: str = "simpoint",
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
                         store: Optional[TraceStore] = None
                         ) -> List[SampledRun]:
    """:func:`sample_workload` for several configs of one workload.

    The plan derives from the trace alone, so every config samples the
    *same* windows; submitting all configs' region jobs in one executor
    call lets the batched replay path (:mod:`repro.batch`) walk each
    region window once for every config sharing its warm class.
    Returns one :class:`SampledRun` per config, in ``configs`` order --
    each identical to what a separate :func:`sample_workload` call
    would produce.
    """
    if strategy not in ("simpoint", "systematic", "adaptive"):
        raise ValueError(f"unknown sampling strategy: {strategy}")
    if ci_target is not None and strategy != "adaptive":
        raise ValueError("ci_target applies to the adaptive strategy")
    if not configs:
        return []
    profile = get_profile(workload) if isinstance(workload, str) else workload
    if strategy == "adaptive":
        from .adaptive import DEFAULT_CI_TARGET, sample_workload_adaptive_many
        return sample_workload_adaptive_many(
            profile, configs, instructions=instructions, skip=skip,
            ci_target=DEFAULT_CI_TARGET if ci_target is None else ci_target,
            measure=measure,
            **({} if warmup is None else {"warmup": warmup}),
            detail=detail, regions=regions, max_fraction=max_fraction,
            checkpoint_interval=checkpoint_interval,
            executor=executor, jobs=jobs, cache=cache, store=store)
    plan_kwargs = {}
    if measure is not None:
        plan_kwargs["measure"] = measure
    if warmup is not None:
        plan_kwargs["warmup"] = warmup
    if detail is not None:
        plan_kwargs["detail"] = detail
    if regions is not None:
        if strategy != "simpoint":
            raise ValueError("regions cap applies to the simpoint strategy")
        plan_kwargs["regions"] = regions
    if max_fraction is not None:
        plan_kwargs["max_fraction"] = max_fraction
    if checkpoint_interval is not None:
        plan_kwargs["checkpoint_interval"] = checkpoint_interval

    trace = acquire_span_trace(profile, instructions, skip,
                               checkpoint_interval, store, configs)

    if strategy == "simpoint":
        plan = plan_representative_regions(trace, instructions, skip,
                                           **plan_kwargs)
    else:
        plan = plan_regions(instructions, skip, **plan_kwargs)

    batch = [job for config in configs
             for job in region_jobs(profile, config, plan)]
    runner = executor if executor is not None \
        else SweepExecutor(jobs=jobs, cache=cache)
    flat = runner.run(batch)
    weights = [r.weight for r in plan.regions]
    per_config = len(plan.regions)
    runs = []
    for i, config in enumerate(configs):
        results = flat[i * per_config:(i + 1) * per_config]
        runs.append(SampledRun(
            workload=profile.name,
            config=config or ProcessorConfig.cortex_a72_like(),
            plan=plan,
            results=tuple(results),
            cpi=estimate_cpi(results, weights),
            misspec_penalty=estimate_misspec_penalty(results, weights),
        ))
    return runs


def sample_workload(workload: Union[str, WorkloadProfile],
                    config: Optional[ProcessorConfig] = None,
                    instructions: int = 20_000,
                    skip: int = 2_000,
                    strategy: str = "simpoint",
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
    the plan simulates at most ``max_fraction`` of its timed records.
    ``strategy`` picks the scheduler: ``"simpoint"`` (default) clusters
    the span's windows on trace-derived behavior signatures and
    simulates one weighted representative per cluster;
    ``"systematic"`` spaces unweighted windows evenly (SMARTS-style);
    ``"adaptive"`` (:mod:`repro.sampling.adaptive`) starts from a small
    representative set and escalates until the estimate's CI half-width
    drops below ``ci_target`` (relative; default
    :data:`~repro.sampling.adaptive.DEFAULT_CI_TARGET`) or the region
    cap is hit -- returning an :class:`~repro.sampling.adaptive.
    AdaptiveRun`.
    ``store`` overrides the trace store used for the up-front capture
    (pool workers always resolve theirs from the environment, so pass a
    custom store only together with ``jobs=1``).
    """
    return sample_workload_many(
        workload, [config], instructions=instructions, skip=skip,
        strategy=strategy, measure=measure, warmup=warmup, detail=detail,
        regions=regions, max_fraction=max_fraction,
        checkpoint_interval=checkpoint_interval, ci_target=ci_target,
        executor=executor, jobs=jobs, cache=cache, store=store)[0]


def sampled_vs_full_error(sampled: SampledRun,
                          full: SimulationResult) -> float:
    """Relative CPI error of the sampled estimate against a full run."""
    full_cpi = full.stats.cycles / full.stats.committed
    return abs(sampled.cpi.point - full_cpi) / full_cpi


__all__ = [
    "CPI_ERROR_GATE",
    "SampledRun",
    "region_jobs",
    "sample_workload",
    "sample_workload_many",
    "sampled_vs_full_error",
]

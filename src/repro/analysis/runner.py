"""High-level experiment runner: workload name + config -> result.

This is the layer examples and benchmarks call: it builds the synthetic
program for a named profile, runs the timing simulation, and (for paired
experiments) keeps the functional memory seed identical across machine
configurations so base and variant execute the *same* dynamic instruction
stream.

Every entry point routes through :class:`repro.exec.SweepExecutor`, so all
callers get job deduplication, the persistent on-disk result cache, and --
for batched calls like :func:`run_suite` -- parallel fan-out across worker
processes.  Determinism is unaffected: a cached or parallel run returns
stats identical to a fresh serial run (seeded generators, independent jobs).

**Sampling modes.**  Every entry point accepts a ``sampling`` mode (or a
whole :class:`~repro.core.config.RunRequest`): ``"off"`` (default)
simulates the entire timed span as before; ``"fixed"`` estimates it from
a fixed SimPoint representative set; ``"adaptive"`` escalates
representatives until the CI target (:mod:`repro.sampling.adaptive`).
Both run as one table under one budget controller
(:func:`_sampled_table`): a cell is a one-cell table, a pair a one-row
table.
Sampled cells come back as :class:`WorkloadRun` estimates with CI
annotations; when a workload cannot be trace-sampled the cell falls back
to a full simulation and says so in
:attr:`WorkloadRun.fallback_reason` -- never silently.

**Instruction budgets (single source of truth).**  Two budget pairs exist,
both defined here and nowhere else:

* ``DEFAULT_INSTRUCTIONS`` / ``DEFAULT_SKIP`` (20000 / 2000) -- the library
  defaults for ad-hoc ``run_workload`` / ``run_pair`` / ``run_suite`` calls
  and the examples: a quick, representative run.
* :func:`bench_budget` (8000 / 16000, overridable via
  ``REPRO_BENCH_INSTRUCTIONS`` / ``REPRO_BENCH_SKIP``) -- the benchmark
  harness budget used by everything under ``benchmarks/``: a shorter timed
  sample after a *longer* warm-up, so the reduced-scale figure
  reproductions start from a representative microarchitectural state.
  The environment overrides affect the bench harness only, and are read
  when it asks, not at import.

(Historically the two pairs lived in different modules, both read the same
environment variables with different fallbacks, and the bench docstring
disagreed with both -- reconciled here.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterable, Mapping, Optional,
                    Sequence, Tuple)

from ..core.config import ProcessorConfig, RunRequest, env_int
from ..core.simulator import SimulationResult, simulate
from ..exec import SimJob, SweepExecutor
from ..trace.format import TraceFormatError
from ..workloads.generator import build_program
from ..workloads.profiles import WorkloadProfile, get_profile, spec2006_profiles

if TYPE_CHECKING:  # repro.sampling imports this package; avoid the cycle
    from ..sampling.run import SampledRun

#: Library-default budgets for ad-hoc runs and the examples.
DEFAULT_INSTRUCTIONS = 20_000
DEFAULT_SKIP = 2_000


def bench_budget() -> Tuple[int, int]:
    """The benchmark harness's ``(instructions, skip)`` budget.

    8000 timed instructions after 16000 warm-up ones, unless
    ``REPRO_BENCH_INSTRUCTIONS`` / ``REPRO_BENCH_SKIP`` say otherwise
    (for longer, smoother runs).  An instruction count that is not a
    positive integer, or a skip that is not a non-negative one, raises
    :class:`~repro.core.config.EnvValueError` naming the variable.
    """
    return (env_int("REPRO_BENCH_INSTRUCTIONS", 8000, minimum=1),
            env_int("REPRO_BENCH_SKIP", 16000, minimum=0))


_EXECUTOR: Optional[SweepExecutor] = None


def shared_executor() -> SweepExecutor:
    """The module-wide executor (lazy; shares one cache across callers)."""
    global _EXECUTOR
    if _EXECUTOR is None:
        _EXECUTOR = SweepExecutor()
    return _EXECUTOR


def _executor_for(jobs: Optional[int], cache: "Optional[bool]",
                  batch: Optional[int] = None):
    """Pick the shared executor or build a specialised one."""
    if jobs is None and cache is None and batch is None:
        return shared_executor()
    if cache is None:
        return SweepExecutor(jobs=jobs,
                             cache=shared_executor().cache or False,
                             batch=batch)
    return SweepExecutor(jobs=jobs, cache=cache, batch=batch)


def _merge_request(request: Optional[RunRequest], **explicit) -> RunRequest:
    """Fold explicit keyword values over ``request`` and resolve the env.

    The single precedence point for every entry point: explicit keyword
    > request field > environment > library default (the defaults are
    applied by the consumers, via :func:`_budget`).
    """
    return (request if request is not None
            else RunRequest()).with_overrides(**explicit).resolved()


def _budget(req: RunRequest) -> Tuple[int, int]:
    """The request's (instructions, skip), library defaults filled in."""
    return (DEFAULT_INSTRUCTIONS if req.instructions is None
            else req.instructions,
            DEFAULT_SKIP if req.skip is None else req.skip)


@dataclass
class WorkloadRun:
    """One experiment cell: a full simulation or a sampled estimate.

    Exactly one of ``full``/``sampled`` is set.  ``fallback_reason``
    records why a sampling request fell back to a full simulation (the
    trace could not be captured or parsed); it is never set on a
    deliberate ``sampling="off"`` run.
    """

    workload: str
    full: Optional[SimulationResult] = None
    sampled: "Optional[SampledRun]" = None
    fallback_reason: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.full is None) == (self.sampled is None):
            raise ValueError("exactly one of full/sampled must be set")

    @property
    def is_sampled(self) -> bool:
        return self.sampled is not None

    @property
    def stats(self):
        """The full run's :class:`~repro.core.stats.SimStats`.

        A sampled cell has whole-span *estimates*, not counters; asking
        it for stats is a bug, so this raises instead of guessing.
        """
        if self.full is None:
            raise AttributeError(
                "sampled cell carries estimates, not SimStats -- "
                "use .cpi/.ipc/.cpi_ci95")
        return self.full.stats

    @property
    def cpi(self) -> float:
        if self.sampled is not None:
            return self.sampled.cpi.point
        return 1.0 / self.full.stats.ipc

    @property
    def ipc(self) -> float:
        return 1.0 / self.cpi

    @property
    def cpi_ci95(self) -> Tuple[float, float]:
        """~95% CI on CPI; (NaN, NaN) for a full (exact) simulation."""
        if self.sampled is not None:
            return self.sampled.cpi.ci95
        return (math.nan, math.nan)

    @property
    def relative_ci(self) -> float:
        """CI half-width / point; NaN for a full (exact) simulation."""
        if self.sampled is not None:
            return self.sampled.cpi.relative_error
        return math.nan

    @property
    def simulated_records(self) -> int:
        """Timed records actually simulated to produce this cell."""
        if self.sampled is not None:
            return self.sampled.simulated_records
        return self.full.stats.committed


def run_workload(
    workload: "str | WorkloadProfile",
    config: Optional[ProcessorConfig] = None,
    instructions: Optional[int] = None,
    skip: Optional[int] = None,
    cache: Optional[bool] = None,
    jobs: Optional[int] = None,
    sampling: Optional[str] = None,
    ci_target: Optional[float] = None,
    batch: Optional[int] = None,
    request: Optional[RunRequest] = None,
) -> "SimulationResult | WorkloadRun":
    """Simulate one named workload on one machine configuration.

    ``cache=None`` follows the environment policy (persistent cache on
    unless ``REPRO_CACHE=0``); ``cache=False`` forces a fresh simulation.
    ``sampling`` (None defers to ``REPRO_SAMPLING``, then "off") keeps
    the classic full-span :class:`SimulationResult` when off; the
    sampled modes return a :class:`WorkloadRun` estimate instead.
    ``batch`` caps batched replay grouping (None defers to
    ``REPRO_BATCH``; a single cell has nothing to group with anyway).
    ``request`` supplies any of these as a bundled
    :class:`~repro.core.config.RunRequest`; explicit keywords win.
    """
    req = _merge_request(request, instructions=instructions, skip=skip,
                         jobs=jobs, cache=cache,
                         sampling=sampling, ci_target=ci_target, batch=batch)
    if req.sampling != "off":
        profile = get_profile(workload) if isinstance(workload, str) \
            else workload
        cell, = _sampled_table([profile], [config], req, _executor_for(
            req.jobs, req.cache, req.batch))[profile.name]
        return cell
    instructions, skip = _budget(req)
    job = SimJob.make(workload, config, instructions, skip)
    if req.cache is False:
        # Uncached fast path: no hashing, no disk.
        return simulate(
            build_program(job.profile),
            job.config,
            max_instructions=instructions,
            skip_instructions=skip,
            mem_seed=job.profile.mem_seed,
        )
    return _executor_for(req.jobs, req.cache, req.batch).run_one(job)


def _sampled_table(profiles: "list[WorkloadProfile]",
                   configs: "Sequence[Optional[ProcessorConfig]]",
                   req: RunRequest,
                   executor: SweepExecutor,
                   store=None,
                   fallback: bool = True,
                   ) -> "Dict[str, list[WorkloadRun]]":
    """Every sampled estimate: one table under one budget controller.

    Each workload becomes an :class:`~repro.sampling.adaptive.
    AdaptiveSession` with all ``configs`` in lockstep, so they sample
    the same windows and every config of one region window can share a
    batched trace walk.  Fixed sampling starts each session at its
    region cap (``req.regions``, default
    :data:`~repro.sampling.regions.DEFAULT_REGIONS`), so it never
    escalates; adaptive sampling starts small and the
    :class:`~repro.sampling.controller.TableController` escalates
    whichever workload has the worst CI-to-target ratio until the whole
    table meets the target.  A single cell is a one-workload,
    one-config table.

    Returns one :class:`WorkloadRun` per config, in ``configs`` order,
    for each workload.  A workload whose trace cannot be captured or
    parsed (``OSError``, :class:`~repro.trace.format.TraceFormatError`)
    falls back to full simulation at session-construction time and says
    so in :attr:`WorkloadRun.fallback_reason` -- the rest of the table
    still goes through the controller; with ``fallback=False`` the
    error propagates instead.  Anything else (bad parameters, simulator
    bugs) always propagates.  ``store`` overrides the trace store the
    sessions capture into.
    """
    from ..sampling.adaptive import (  # runner <-> sampling
        DEFAULT_CI_TARGET,
        DEFAULT_START_REGIONS,
        AdaptiveSession,
    )
    from ..sampling.controller import TableController
    from ..sampling.regions import DEFAULT_REGIONS
    instructions, skip = _budget(req)
    ci_target = DEFAULT_CI_TARGET if req.ci_target is None else req.ci_target
    if req.sampling == "fixed":
        cap = start = req.regions or DEFAULT_REGIONS
    else:
        cap, start = req.regions, DEFAULT_START_REGIONS
    controller = TableController(ci_target)
    rows: "Dict[str, list[WorkloadRun]]" = {}
    for profile in {p.name: p for p in profiles}.values():
        try:
            controller.add(profile.name, AdaptiveSession(
                profile, configs, instructions=instructions, skip=skip,
                ci_target=ci_target, measure=req.measure,
                **({} if req.warmup is None else {"warmup": req.warmup}),
                detail=req.detail, start_regions=start, regions=cap,
                max_fraction=req.max_fraction,
                checkpoint_interval=req.checkpoint_interval,
                executor=executor, store=store))
        except (OSError, TraceFormatError) as exc:
            if not fallback:
                raise
            fulls = executor.run([SimJob.make(profile, cfg, instructions,
                                              skip) for cfg in configs])
            reason = f"{type(exc).__name__}: {exc}"
            rows[profile.name] = [
                WorkloadRun(profile.name, full=full, fallback_reason=reason)
                for full in fulls]
    controller.run()
    for name, runs in controller.results().items():
        rows[name] = [WorkloadRun(name, sampled=run) for run in runs]
    return rows


@dataclass
class PairedRun:
    """Base-vs-variant results for one workload (same dynamic stream).

    Holds two :class:`WorkloadRun` cells; with sampling off both wrap
    full simulations and the classic :attr:`base`/:attr:`variant`
    results remain available, while sampled pairs carry CI-annotated
    estimates and propagate their uncertainty into
    :attr:`speedup_ci95`.  When both cells sampled the *same* region
    schedule the speedup CI is the paired jackknife
    (:mod:`repro.sampling.paired`) -- common-mode window variance
    cancels, so it is much tighter than combining the two CPI CIs in
    quadrature; quadrature remains the fallback for a pair with a
    full-simulation cell (or genuinely different schedules).
    """

    name: str
    base_cell: WorkloadRun
    variant_cell: WorkloadRun

    @property
    def base(self) -> Optional[SimulationResult]:
        """Full base-machine result (None when the cell is sampled)."""
        return self.base_cell.full

    @property
    def variant(self) -> Optional[SimulationResult]:
        """Full variant result (None when the cell is sampled)."""
        return self.variant_cell.full

    @property
    def speedup(self) -> float:
        return self.variant_cell.ipc / self.base_cell.ipc

    @property
    def speedup_percent(self) -> float:
        return (self.speedup - 1.0) * 100.0

    @property
    def paired(self):
        """The paired speedup estimate, when pairing applies.

        Requires two sampled cells over the identical region schedule;
        None otherwise.  Its point estimate equals :attr:`speedup` --
        pairing changes the error claim, not the headline number.
        """
        if not (self.base_cell.is_sampled and self.variant_cell.is_sampled):
            return None
        from ..sampling.paired import paired_speedup  # runner <-> sampling
        return paired_speedup(self.base_cell.sampled,
                              self.variant_cell.sampled)

    @property
    def ci_method(self) -> str:
        """How :attr:`speedup_relative_ci` was obtained.

        ``"paired"`` (common-regions jackknife), ``"quadrature"``
        (independent per-side CIs combined) or ``"exact"`` (both cells
        full simulations -- no sampling error to claim).
        """
        if self.paired is not None:
            return "paired"
        if self.base_cell.is_sampled or self.variant_cell.is_sampled:
            return "quadrature"
        return "exact"

    @property
    def speedup_relative_ci(self) -> float:
        """Relative ~95% half-width on the speedup; NaN when exact.

        Paired jackknife over the shared windows when both cells
        sampled the same schedule; otherwise the per-side relative
        errors combine in quadrature (independent regions).  A full
        cell contributes zero sampling error; an undefined CI (single
        region either way) stays NaN -- no claim.
        """
        estimate = self.paired
        if estimate is not None:
            return estimate.relative_error
        rels = [cell.relative_ci
                for cell in (self.base_cell, self.variant_cell)
                if cell.is_sampled]
        if not rels:
            return math.nan
        return math.sqrt(sum(r * r for r in rels))

    @property
    def speedup_ci95(self) -> Tuple[float, float]:
        half = self.speedup * self.speedup_relative_ci
        return (self.speedup - half, self.speedup + half)


def run_pair(
    workload: "str | WorkloadProfile",
    base_config: ProcessorConfig,
    variant_config: ProcessorConfig,
    instructions: Optional[int] = None,
    skip: Optional[int] = None,
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    sampling: Optional[str] = None,
    ci_target: Optional[float] = None,
    batch: Optional[int] = None,
    request: Optional[RunRequest] = None,
    executor: Optional[SweepExecutor] = None,
) -> PairedRun:
    """Run base and variant on the identical dynamic instruction stream.

    With a sampled mode the pair is a one-row table: both sides estimate
    from the *same* windows of the same recorded trace, escalating in
    lockstep under the table criterion (the paired speedup CI), so the
    paired-stream property the full path guarantees carries over to the
    sampled one and the speedup CI is the paired jackknife over those
    shared windows -- exactly what :func:`run_suite` reports for the
    same workload.  Either way both sides go through the executor in
    one submission, so pairs that share a warm class run as one batched
    trace walk.  ``executor`` overrides the executor (e.g. to read its
    cache stats afterwards).
    """
    req = _merge_request(request, instructions=instructions, skip=skip,
                         jobs=jobs, cache=cache,
                         sampling=sampling, ci_target=ci_target, batch=batch)
    profile = get_profile(workload) if isinstance(workload, str) else workload
    runner = executor if executor is not None \
        else _executor_for(req.jobs, req.cache, req.batch)
    if req.sampling != "off":
        base_cell, variant_cell = _sampled_table(
            [profile], [base_config, variant_config], req,
            runner)[profile.name]
        return PairedRun(profile.name, base_cell, variant_cell)
    instructions, skip = _budget(req)
    base, variant = runner.run([
        SimJob(profile, base_config, instructions, skip),
        SimJob(profile, variant_config, instructions, skip),
    ])
    return PairedRun(profile.name,
                     WorkloadRun(profile.name, full=base),
                     WorkloadRun(profile.name, full=variant))


def run_suite(
    configs: Mapping[str, ProcessorConfig],
    workloads: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
    skip: Optional[int] = None,
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    sampling: Optional[str] = None,
    ci_target: Optional[float] = None,
    batch: Optional[int] = None,
    request: Optional[RunRequest] = None,
    executor: Optional[SweepExecutor] = None,
) -> "Dict[str, Dict[str, SimulationResult]] | Dict[str, Dict[str, WorkloadRun]]":
    """Run every (config, workload) pair.

    Returns ``results[config_name][workload_name]``.  With sampling off
    the values are plain :class:`SimulationResult`\\ s and the whole
    cross product is submitted as one batch, so with ``jobs > 1`` (or
    ``REPRO_JOBS``) independent simulations run in parallel and
    configs sharing a warm class walk each trace once
    (:mod:`repro.batch`).  The sampled modes return
    :class:`WorkloadRun` cells instead, from one table under the budget
    controller (:func:`_sampled_table`): each workload's configs sample
    the same windows and submit together, so every config of one region
    window becomes one batched trace walk, and adaptive escalation
    spends where the table's CI-to-target ratio is worst.  ``executor``
    overrides the executor used either way (e.g. to read its cache
    stats afterwards).
    """
    req = _merge_request(request, instructions=instructions, skip=skip,
                         jobs=jobs, cache=cache,
                         sampling=sampling, ci_target=ci_target, batch=batch)
    names = list(workloads) if workloads is not None else sorted(spec2006_profiles())
    profiles = [get_profile(name) for name in names]
    runner = executor if executor is not None \
        else _executor_for(req.jobs, req.cache, req.batch)
    if req.sampling != "off":
        rows = _sampled_table(profiles, list(configs.values()), req, runner)
        return {config_name: {name: rows[name][i] for name in names}
                for i, config_name in enumerate(configs)}
    instructions, skip = _budget(req)
    batch = [
        SimJob(profile, config, instructions, skip)
        for config in configs.values()
        for profile in profiles
    ]
    flat = runner.run(batch)
    results: Dict[str, Dict[str, SimulationResult]] = {}
    it = iter(flat)
    for config_name in configs:
        results[config_name] = {name: next(it) for name in names}
    return results


#: Workloads the profiles target as difficult-branch-prediction; benches
#: verify the *measured* classification against this expectation.
EXPECTED_D_BP = (
    "astar", "bzip2", "gcc", "gobmk", "h264ref", "mcf", "omnetpp",
    "perlbench", "sjeng", "soplex", "xalancbmk",
)


def dbp_workloads() -> Tuple[str, ...]:
    """The program set most benches sweep (expected D-BP programs)."""
    return EXPECTED_D_BP

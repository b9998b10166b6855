"""Adaptive variance-driven sampling: escalate until the CI converges.

Fixed-count SimPoint planning (:func:`~repro.sampling.regions.
plan_representative_regions`) spends ``DEFAULT_REGIONS`` representatives
on every workload, however its behavior is distributed -- wasteful on a
homogeneous trace whose estimate is tight after three windows, and
under-provisioned on a phase-heavy one that still swings past the
accuracy gate at eight.  The adaptive scheduler lets each workload's own
spread set its budget (Constantinou et al. document exactly this
cross-workload variance in misprediction behavior):

1. cluster the span's windows on their behavior signatures and simulate
   a *small* starting set of representatives (one exec-job batch through
   the cached parallel executor);
2. re-aggregate; if the weighted estimate's ~95% CI half-width is within
   ``ci_target`` of the point, stop -- converged;
3. otherwise *split* the most behaviorally dispersed clusters: the
   member farthest from its medoid becomes a new representative and the
   cluster's population is re-divided between the two, so every previous
   simulation (and its persistent cache entry) stays valid;
4. fan the new representatives out as the next batch and repeat until
   convergence, the region cap, or no cluster left to split.

Everything is deterministic -- seeding, dispersion ranking, farthest-
member selection and tie-breaks -- so a (trace, parameters) pair always
escalates through the same region sequence and therefore the same
cached job keys.  The convergence metric is
:attr:`SampledEstimate.relative_error`: the delete-one jackknife CI of
the weighted ratio estimate, floored by the tiling-truncation bias
allowance (see :mod:`repro.sampling.aggregate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.config import ProcessorConfig
from ..core.simulator import SimulationResult
from ..exec.executor import SweepExecutor
from ..exec.jobs import SimJob
from ..trace.store import TraceStore
from ..workloads.profiles import WorkloadProfile, get_profile
from .aggregate import estimate_cpi, estimate_misspec_penalty
from .regions import (
    DEFAULT_MAX_FRACTION,
    DEFAULT_MEASURE,
    DEFAULT_WARMUP,
    Region,
    RegionPlan,
)
from .run import SampledRun, acquire_span_trace
from .signature import (
    assign_windows,
    cluster_windows,
    signature_distance,
    window_signature,
)

#: Default relative CI half-width the escalation drives toward.  Chosen
#: empirically on the gated trio at the bench budget: a homogeneous
#: workload (mcf) is an order of magnitude inside it at three regions, a
#: moderate one (sjeng) converges around three to five, and a
#: phase-heavy one (gcc) keeps escalating past the fixed-count default
#: -- the spend-follows-variance behavior this module exists for.
DEFAULT_CI_TARGET = 0.05

#: Representatives the escalation starts from.  Three is the smallest
#: set with a non-degenerate jackknife spread (two leave-one-out points
#: tell you nothing about curvature).
DEFAULT_START_REGIONS = 3

#: Clusters split per escalation round; each split adds one region, so
#: every round fans this many fresh jobs through the executor.
DEFAULT_BATCH = 2

#: Default cap on adaptive representatives -- twice the fixed default,
#: because the whole point is letting high-variance workloads overshoot
#: it; the ``max_fraction`` simulated-records budget still binds first
#: on short spans.
DEFAULT_ADAPTIVE_CAP = 16


@dataclass(frozen=True)
class AdaptiveRound:
    """One escalation step's aggregate state, for reporting."""

    regions: int  #: representatives simulated so far
    simulated_records: int  #: timed records (measure + detail) so far
    relative_ci: float  #: CI half-width / point after this round


@dataclass(frozen=True)
class AdaptiveRun(SampledRun):
    """A :class:`SampledRun` produced by the escalation loop."""

    ci_target: float = DEFAULT_CI_TARGET
    converged: bool = False  #: CI target met (vs cap / nothing to split)
    rounds: Tuple[AdaptiveRound, ...] = ()

    @property
    def relative_ci(self) -> float:
        return self.cpi.relative_error


@dataclass
class _Cluster:
    """One behavior cluster: its representative and the windows it covers."""

    medoid: int  #: window index of the representative
    members: List[int]  #: window indices, medoid included

    def dispersion(self, signatures) -> float:
        """Total signature distance of the members to the medoid."""
        center = signatures[self.medoid]
        return sum(signature_distance(signatures[i], center)
                   for i in self.members)


def _split_cluster(cluster: _Cluster, signatures) -> Tuple[_Cluster, _Cluster]:
    """Divide ``cluster`` between its medoid and its farthest member.

    The farthest member (ties toward the lower window index) becomes the
    new representative; the remaining members go to whichever of the two
    is nearer (ties toward the old medoid).  The old medoid keeps its
    simulated region, so a split never invalidates prior work.
    """
    center = signatures[cluster.medoid]
    others = [i for i in cluster.members if i != cluster.medoid]
    far = max(others,
              key=lambda i: (signature_distance(signatures[i], center), -i))
    kept, moved = [cluster.medoid], [far]
    for i in others:
        if i == far:
            continue
        d_old = signature_distance(signatures[i], center)
        d_new = signature_distance(signatures[i], signatures[far])
        (kept if d_old <= d_new else moved).append(i)
    return _Cluster(cluster.medoid, kept), _Cluster(far, moved)


def _next_split(clusters: List[_Cluster], signatures) -> Optional[int]:
    """Index of the cluster to split next, or None if none is splittable.

    The most behaviorally dispersed cluster first (it contributes the
    most unexplained variance to the estimate); ties break toward the
    larger population, then the lower medoid index.  Single-member
    clusters cannot be split.
    """
    best = None
    best_rank = None
    for idx, cluster in enumerate(clusters):
        if len(cluster.members) < 2:
            continue
        rank = (cluster.dispersion(signatures), len(cluster.members),
                -cluster.medoid)
        if best_rank is None or rank > best_rank:
            best, best_rank = idx, rank
    return best


def _window_region(index: int, measure: int, skip: int,
                   warmup: "int | None", detail: int, weight: int) -> Region:
    """The :class:`Region` replaying tiled window ``index``."""
    start = skip + index * measure
    d = min(detail, start)
    full_prefix = start - d
    return Region(start=start,
                  warmup=full_prefix if warmup is None
                  else min(warmup, full_prefix),
                  measure=measure, detail=d, weight=weight)


@dataclass
class _EscalationState:
    """One config's private escalation state in a lockstep multi run."""

    base: ProcessorConfig
    clusters: List[_Cluster]
    simulated: Dict[int, SimulationResult]
    rounds: List[AdaptiveRound]
    converged: bool = False
    active: bool = True


def _validate_schedule_params(ci_target: float, start_regions: int,
                              batch: int, regions: Optional[int],
                              instructions: int, skip: int) -> None:
    """The parameter checks that precede any trace or profile work."""
    if ci_target <= 0:
        raise ValueError("ci_target must be positive")
    if start_regions < 2:
        raise ValueError("start_regions must be at least 2 (a single "
                         "region supports no CI claim)")
    if batch < 1:
        raise ValueError("batch must be positive")
    if regions is not None and regions < start_regions:
        raise ValueError("regions cap must cover the starting set")
    if instructions < 1:
        raise ValueError("instructions must be positive")
    if skip < 0:
        raise ValueError("skip must be non-negative")


class AdaptiveSession:
    """One workload's lockstep escalation state across several configs.

    Owns everything the escalation loop walks -- the trace-derived
    window signatures, each config's cluster set, the simulated regions
    and the per-round history -- and exposes it at two grains:

    * :meth:`run_per_cell` -- the classic loop: every config escalates
      until its *own* CPI CI meets ``ci_target`` (or the cap binds).
      :func:`sample_workload_adaptive_many` is exactly this.
    * :meth:`measure_all` / :meth:`escalate_all` -- one round at a
      time, all configs advancing in strict lockstep regardless of
      their individual CPI CIs, for an external budget controller
      (:mod:`repro.sampling.controller`) that decides *where* the next
      batch is spent.  Lockstep keeps every config on the identical
      region schedule, which is what keeps the windows shared for the
      paired estimator (:mod:`repro.sampling.paired`).

    Both grains walk the same deterministic split sequence and submit
    the same region jobs, so their cache keys are interchangeable: a
    controller-driven table re-uses (and pre-warms) the entries a
    standalone adaptive run would hit, and vice versa.
    """

    def __init__(self,
                 workload: Union[str, WorkloadProfile],
                 configs: "Sequence[Optional[ProcessorConfig]]",
                 instructions: int = 20_000,
                 skip: int = 2_000,
                 ci_target: float = DEFAULT_CI_TARGET,
                 measure: Optional[int] = None,
                 warmup: Optional[int] = DEFAULT_WARMUP,
                 detail: Optional[int] = None,
                 start_regions: int = DEFAULT_START_REGIONS,
                 batch: int = DEFAULT_BATCH,
                 regions: Optional[int] = None,
                 max_fraction: Optional[float] = None,
                 checkpoint_interval: Optional[int] = None,
                 executor: Optional[SweepExecutor] = None,
                 jobs: Optional[int] = None,
                 cache: "Optional[bool]" = None,
                 store: Optional[TraceStore] = None) -> None:
        _validate_schedule_params(ci_target, start_regions, batch, regions,
                                  instructions, skip)
        if not configs:
            raise ValueError("an adaptive session needs at least one config")
        self.profile = get_profile(workload) if isinstance(workload, str) \
            else workload
        bases = [config or ProcessorConfig.cortex_a72_like()
                 for config in configs]
        max_fraction = DEFAULT_MAX_FRACTION if max_fraction is None \
            else max_fraction
        if not 0 < max_fraction <= 1:
            raise ValueError("max_fraction must be in (0, 1]")
        budget = max(1, int(instructions * max_fraction))
        measure = DEFAULT_MEASURE if measure is None else measure
        if measure < 1:
            raise ValueError("measure must be positive")
        measure = min(measure, budget)
        detail = measure // 4 if detail is None else detail
        if detail < 0:
            raise ValueError("detail must be non-negative")
        detail = min(detail, budget - measure)
        if warmup is not None and warmup < 0:
            raise ValueError("warmup must be non-negative")

        self.instructions = instructions
        self.skip = skip
        self.ci_target = ci_target
        self.batch = batch
        self._measure = measure
        self._warmup = warmup
        self._detail = detail

        self._trace = acquire_span_trace(self.profile, instructions, skip,
                                         checkpoint_interval, store, bases)
        windows = max(1, instructions // measure)
        self.cap = min(regions if regions is not None else DEFAULT_ADAPTIVE_CAP,
                       max(1, budget // (measure + detail)),
                       windows)
        self._signatures = [
            window_signature(self._trace, skip + i * measure, measure)
            for i in range(windows)]

        medoids, _ = cluster_windows(self._signatures,
                                     min(start_regions, self.cap))
        assignment = assign_windows(self._signatures, medoids)
        initial = [(m, [i for i, a in enumerate(assignment) if a == slot])
                   for slot, m in enumerate(medoids)]
        self._runner = executor if executor is not None \
            else SweepExecutor(jobs=jobs, cache=cache)
        self.states = [_EscalationState(
            base=base,
            clusters=[_Cluster(m, list(members)) for m, members in initial],
            simulated={}, rounds=[]) for base in bases]

    # ------------------------------------------------------------------
    # Shared round machinery
    # ------------------------------------------------------------------

    def _region(self, window: int, weight: int = 1) -> Region:
        return _window_region(window, self._measure, self.skip,
                              self._warmup, self._detail, weight)

    def _planned_records(self, state: _EscalationState) -> int:
        """Timed records of the state's planned regions, clamps included.

        Derived from the actual :class:`Region` objects, so the
        early-window ``detail`` clamp (a window too close to record 0
        cannot fit the full detailed warmup before it) is reflected
        instead of the nominal ``regions * (measure + detail)``.
        """
        return sum(self._measure + self._region(c.medoid).detail
                   for c in state.clusters)

    def _simulate_pending(self,
                          states: "Sequence[_EscalationState]") -> None:
        """One executor submission for every unsimulated medoid."""
        requests: List[Tuple[_EscalationState, int]] = []
        for state in states:
            requests.extend(
                (state, c.medoid) for c in state.clusters
                if c.medoid not in state.simulated)
        if not requests:
            return
        jobs_batch = [
            SimJob(self.profile,
                   state.base.with_region(r.start, r.warmup, r.detail),
                   r.measure, 0)
            for state, r in ((state, self._region(m))
                             for state, m in requests)]
        for (state, m), result in zip(requests, self._runner.run(jobs_batch)):
            state.simulated[m] = result

    def _evaluate(self, state: _EscalationState) -> float:
        """Aggregate one state's regions and append its round record."""
        ordered = sorted(state.clusters, key=lambda c: c.medoid)
        results = [state.simulated[c.medoid] for c in ordered]
        weights = [len(c.members) for c in ordered]
        relative = estimate_cpi(results, weights).relative_error
        state.rounds.append(AdaptiveRound(
            regions=len(state.clusters),
            simulated_records=self._planned_records(state),
            relative_ci=relative))
        return relative

    def _split(self, state: _EscalationState) -> bool:
        """Split up to ``batch`` clusters; False when nothing split."""
        split_any = False
        for _ in range(min(self.batch, self.cap - len(state.clusters))):
            target = _next_split(state.clusters, self._signatures)
            if target is None:
                break
            kept, new = _split_cluster(state.clusters[target],
                                       self._signatures)
            state.clusters[target] = kept
            state.clusters.append(new)
            split_any = True
        return split_any

    # ------------------------------------------------------------------
    # Per-cell loop (the classic adaptive contract)
    # ------------------------------------------------------------------

    def run_per_cell(self) -> None:
        """Escalate until every config meets its own CI target or cap."""
        while any(state.active for state in self.states):
            self._simulate_pending([s for s in self.states if s.active])
            for state in self.states:
                if not state.active:
                    continue
                relative = self._evaluate(state)
                if relative == relative and relative <= self.ci_target:
                    state.converged = True
                    state.active = False
                    continue
                if len(state.clusters) >= self.cap:
                    state.active = False
                    continue
                if not self._split(state):
                    state.active = False

    # ------------------------------------------------------------------
    # Controller interface (lockstep rounds, external stop decision)
    # ------------------------------------------------------------------

    def measure_all(self) -> None:
        """Simulate every pending region and record one round per config."""
        self._simulate_pending(self.states)
        for state in self.states:
            self._evaluate(state)

    def escalate_all(self) -> bool:
        """Split every config's clusters one batch, in lockstep.

        Every config splits identically (splitting is signature-driven,
        not result-driven), so the schedules stay window-for-window
        aligned.  Returns False when no config could split -- the cap
        binds or no cluster has two members -- which closes the session
        for the controller.  Call :meth:`measure_all` afterwards to
        simulate the new representatives.
        """
        split_any = False
        for state in self.states:
            if len(state.clusters) >= self.cap:
                continue
            split_any |= self._split(state)
        return split_any

    @property
    def can_escalate(self) -> bool:
        """True while another lockstep round could add regions."""
        return any(len(state.clusters) < self.cap
                   and _next_split(state.clusters, self._signatures)
                   is not None
                   for state in self.states)

    @property
    def simulated_records(self) -> int:
        """Timed records planned across every config, clamps included."""
        return sum(self._planned_records(state) for state in self.states)

    @property
    def regions(self) -> int:
        """Scheduled regions summed across configs."""
        return sum(len(state.clusters) for state in self.states)

    def runs(self, converged: "Optional[Sequence[bool]]" = None
             ) -> List[AdaptiveRun]:
        """The per-config :class:`AdaptiveRun`\\ s for the current state.

        ``converged`` overrides the per-state flags (the controller
        judges convergence on the *table's* criterion, not each cell's
        own CPI CI).
        """
        runs = []
        flags = [state.converged for state in self.states] \
            if converged is None else list(converged)
        for state, flag in zip(self.states, flags):
            ordered = sorted(state.clusters, key=lambda c: c.medoid)
            plan = RegionPlan(
                instructions=self.instructions, skip=self.skip,
                checkpoint_interval=self._trace.checkpoint_interval,
                regions=tuple(self._region(c.medoid, len(c.members))
                              for c in ordered))
            results = tuple(state.simulated[c.medoid] for c in ordered)
            weights = [r.weight for r in plan.regions]
            runs.append(AdaptiveRun(
                workload=self.profile.name,
                config=state.base,
                plan=plan,
                results=results,
                cpi=estimate_cpi(results, weights),
                misspec_penalty=estimate_misspec_penalty(results, weights),
                ci_target=self.ci_target,
                converged=flag,
                rounds=tuple(state.rounds),
            ))
        return runs


def sample_workload_adaptive_many(
        workload: Union[str, WorkloadProfile],
        configs: "Sequence[Optional[ProcessorConfig]]",
        instructions: int = 20_000,
        skip: int = 2_000,
        ci_target: float = DEFAULT_CI_TARGET,
        measure: Optional[int] = None,
        warmup: Optional[int] = DEFAULT_WARMUP,
        detail: Optional[int] = None,
        start_regions: int = DEFAULT_START_REGIONS,
        batch: int = DEFAULT_BATCH,
        regions: Optional[int] = None,
        max_fraction: Optional[float] = None,
        checkpoint_interval: Optional[int] = None,
        executor: Optional[SweepExecutor] = None,
        jobs: Optional[int] = None,
        cache: "Optional[bool]" = None,
        store: Optional[TraceStore] = None) -> List[AdaptiveRun]:
    """Escalate several configs of one workload in lockstep rounds.

    Splitting is signature-driven and therefore config-independent, so
    every config escalates through the *same* region sequence; only the
    stop decision (its own CI) differs.  Running the loops in lockstep
    lets each round submit every still-escalating config's new region
    jobs as one executor call -- all configs of one region window
    become one batched trace walk (:mod:`repro.batch`).  Each returned
    :class:`AdaptiveRun` is identical to what a separate
    :func:`sample_workload_adaptive` call for that config would
    produce (same deterministic schedule, same cached job keys).
    """
    _validate_schedule_params(ci_target, start_regions, batch, regions,
                              instructions, skip)
    if not configs:
        return []
    session = AdaptiveSession(
        workload, configs, instructions=instructions, skip=skip,
        ci_target=ci_target, measure=measure, warmup=warmup, detail=detail,
        start_regions=start_regions, batch=batch, regions=regions,
        max_fraction=max_fraction, checkpoint_interval=checkpoint_interval,
        executor=executor, jobs=jobs, cache=cache, store=store)
    session.run_per_cell()
    return session.runs()


def sample_workload_adaptive(
        workload: Union[str, WorkloadProfile],
        config: Optional[ProcessorConfig] = None,
        instructions: int = 20_000,
        skip: int = 2_000,
        ci_target: float = DEFAULT_CI_TARGET,
        measure: Optional[int] = None,
        warmup: Optional[int] = DEFAULT_WARMUP,
        detail: Optional[int] = None,
        start_regions: int = DEFAULT_START_REGIONS,
        batch: int = DEFAULT_BATCH,
        regions: Optional[int] = None,
        max_fraction: Optional[float] = None,
        checkpoint_interval: Optional[int] = None,
        executor: Optional[SweepExecutor] = None,
        jobs: Optional[int] = None,
        cache: "Optional[bool]" = None,
        store: Optional[TraceStore] = None) -> AdaptiveRun:
    """Sampled estimate whose region count follows the workload's variance.

    Parameters mirror :func:`~repro.sampling.run.sample_workload`;
    ``regions`` caps the representatives (default
    :data:`DEFAULT_ADAPTIVE_CAP`, further bounded by the
    ``max_fraction`` simulated-records budget), ``ci_target`` is the
    relative CI half-width that stops the escalation, and
    ``start_regions``/``batch`` shape the schedule.  See the module
    docstring for the algorithm.
    """
    return sample_workload_adaptive_many(
        workload, [config], instructions=instructions, skip=skip,
        ci_target=ci_target, measure=measure, warmup=warmup, detail=detail,
        start_regions=start_regions, batch=batch, regions=regions,
        max_fraction=max_fraction, checkpoint_interval=checkpoint_interval,
        executor=executor, jobs=jobs, cache=cache, store=store)[0]


__all__ = [
    "DEFAULT_ADAPTIVE_CAP",
    "DEFAULT_BATCH",
    "DEFAULT_CI_TARGET",
    "DEFAULT_START_REGIONS",
    "AdaptiveRound",
    "AdaptiveRun",
    "sample_workload_adaptive",
    "sample_workload_adaptive_many",
]

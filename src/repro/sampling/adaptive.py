"""The sampling engine: one session per workload, every config in lockstep.

An :class:`AdaptiveSession` tiles a workload's timed span into windows,
summarizes each by a trace-derived behavior signature
(:mod:`repro.sampling.signature`), clusters them, and simulates one
weighted representative per cluster for every config it holds.  Every
sampled estimate goes through one -- a single cell is a session of one
config -- and :class:`~repro.sampling.controller.TableController`
decides how far each session escalates:

1. cluster the span's windows and simulate the starting set of
   representatives (one exec-job batch through the cached parallel
   executor);
2. re-aggregate; if the table's criterion meets ``ci_target``, stop;
3. otherwise *split* the most behaviorally dispersed clusters: the
   member farthest from its medoid becomes a new representative and the
   cluster's population is re-divided between the two, so every previous
   simulation (and its persistent cache entry) stays valid;
4. fan the new representatives out as the next batch and repeat until
   convergence, the region cap, or no cluster left to split.

Fixed (SimPoint) sampling is the same session with its starting set at
its region cap (``start_regions == regions``, default
:data:`~repro.sampling.regions.DEFAULT_REGIONS`): it never escalates.
Adaptive sampling starts from :data:`DEFAULT_START_REGIONS` and lets each
workload's own spread set its budget, up to :data:`DEFAULT_ADAPTIVE_CAP`
(Constantinou et al. document exactly this cross-workload variance in
misprediction behavior).

Everything is deterministic -- seeding, dispersion ranking, farthest-
member selection and tie-breaks -- so a (trace, parameters) pair always
escalates through the same region sequence and therefore the same
cached job keys.  The per-cell convergence metric is
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
    """One round's aggregate state, for reporting."""

    regions: int  #: representatives simulated so far
    simulated_records: int  #: timed records (measure + detail) so far
    relative_ci: float  #: CI half-width / point after this round


@dataclass(frozen=True)
class AdaptiveRun(SampledRun):
    """A :class:`SampledRun` produced by a session (fixed ones included)."""

    ci_target: float = DEFAULT_CI_TARGET
    converged: bool = False  #: the table's criterion met ``ci_target``
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
    """One config's simulated regions and round history in a session."""

    base: ProcessorConfig
    simulated: Dict[int, SimulationResult]
    rounds: List[AdaptiveRound]


class AdaptiveSession:
    """One workload's sampling state across several configs, in lockstep.

    Owns everything the escalation walks -- the trace-derived window
    signatures, the cluster set every config shares, each config's
    simulated regions and per-round history -- and moves one round at a
    time: :meth:`measure_all` simulates what is pending and records a
    round, :meth:`escalate_all` splits clusters.  Splitting is
    signature-driven, not result-driven, so one cluster set serves every
    config and the schedules stay window-for-window aligned for the
    paired estimator (:mod:`repro.sampling.paired`).  When to stop is
    the caller's decision (:class:`~repro.sampling.controller.
    TableController`).

    The starting set is ``start_regions`` representatives, clamped to
    the region cap: ``regions`` (default :data:`DEFAULT_ADAPTIVE_CAP`),
    further bounded by the ``max_fraction`` simulated-records budget and
    by the number of windows.  A session whose starting set already
    reaches its cap never escalates -- fixed sampling.  ``ci_target`` is
    recorded on the runs; the controller owns the stop rule.
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
        # Parameter checks precede any trace or profile work.
        if ci_target <= 0:
            raise ValueError("ci_target must be positive")
        if start_regions < 1:
            raise ValueError("start_regions must be positive")
        if batch < 1:
            raise ValueError("batch must be positive")
        if regions is not None and regions < 1:
            raise ValueError("regions must be positive")
        if instructions < 1:
            raise ValueError("instructions must be positive")
        if skip < 0:
            raise ValueError("skip must be non-negative")
        if not configs:
            raise ValueError("a sampling session needs at least one config")
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

        self.profile = get_profile(workload) if isinstance(workload, str) \
            else workload
        bases = [config or ProcessorConfig.cortex_a72_like()
                 for config in configs]
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
        self.clusters = [
            _Cluster(m, [i for i, a in enumerate(assignment) if a == slot])
            for slot, m in enumerate(medoids)]
        self._runner = executor if executor is not None \
            else SweepExecutor(jobs=jobs, cache=cache)
        self.states = [_EscalationState(base=base, simulated={}, rounds=[])
                       for base in bases]

    def _region(self, window: int, weight: int = 1) -> Region:
        return _window_region(window, self._measure, self.skip,
                              self._warmup, self._detail, weight)

    def _ordered(self) -> List[_Cluster]:
        """The clusters in window order (the plan's region order)."""
        return sorted(self.clusters, key=lambda c: c.medoid)

    def _planned_records(self) -> int:
        """Timed records of one config's planned regions, clamps included.

        Derived from the actual :class:`Region` objects, so the
        early-window ``detail`` clamp (a window too close to record 0
        cannot fit the full detailed warmup before it) is reflected
        instead of the nominal ``regions * (measure + detail)``.
        """
        return sum(self._measure + self._region(c.medoid).detail
                   for c in self.clusters)

    def measure_all(self) -> None:
        """Simulate every pending region and record one round per config.

        All configs' new regions go through the executor in one
        submission, so every config of one region window can share a
        batched trace walk (:mod:`repro.batch`).
        """
        pending = [c.medoid for c in self.clusters
                   if c.medoid not in self.states[0].simulated]
        if pending:
            jobs_batch = [
                SimJob(self.profile,
                       state.base.with_region(r.start, r.warmup, r.detail),
                       r.measure, 0)
                for state in self.states for r in map(self._region, pending)]
            results = iter(self._runner.run(jobs_batch))
            for state in self.states:
                for m in pending:
                    state.simulated[m] = next(results)
        ordered = self._ordered()
        weights = [len(c.members) for c in ordered]
        records = self._planned_records()
        for state in self.states:
            estimate = estimate_cpi([state.simulated[c.medoid]
                                     for c in ordered], weights)
            state.rounds.append(AdaptiveRound(
                regions=len(self.clusters), simulated_records=records,
                relative_ci=estimate.relative_error))

    def escalate_all(self) -> bool:
        """Split up to ``batch`` clusters, the same for every config.

        Returns False when nothing split -- the cap binds or no cluster
        has two members -- which closes the session for the controller.
        Call :meth:`measure_all` afterwards to simulate the new
        representatives.
        """
        split_any = False
        for _ in range(min(self.batch, self.cap - len(self.clusters))):
            target = _next_split(self.clusters, self._signatures)
            if target is None:
                break
            kept, new = _split_cluster(self.clusters[target],
                                       self._signatures)
            self.clusters[target] = kept
            self.clusters.append(new)
            split_any = True
        return split_any

    @property
    def can_escalate(self) -> bool:
        """True while another lockstep round could add regions."""
        return (len(self.clusters) < self.cap
                and _next_split(self.clusters, self._signatures) is not None)

    @property
    def simulated_records(self) -> int:
        """Timed records planned across every config, clamps included."""
        return len(self.states) * self._planned_records()

    @property
    def regions(self) -> int:
        """Scheduled regions summed across configs."""
        return len(self.states) * len(self.clusters)

    @property
    def plan(self) -> RegionPlan:
        """The current region schedule, which every config shares."""
        return RegionPlan(
            instructions=self.instructions, skip=self.skip,
            checkpoint_interval=self._trace.checkpoint_interval,
            regions=tuple(self._region(c.medoid, len(c.members))
                          for c in self._ordered()))

    def runs(self, converged: bool = False) -> List[AdaptiveRun]:
        """The per-config :class:`AdaptiveRun`\\ s for the current state.

        ``converged`` is the caller's verdict (the controller judges it
        on the *table's* criterion, not each cell's own CPI CI).
        """
        plan = self.plan
        weights = [r.weight for r in plan.regions]
        runs = []
        for state in self.states:
            results = tuple(state.simulated[c.medoid] for c in self._ordered())
            runs.append(AdaptiveRun(
                workload=self.profile.name,
                config=state.base,
                plan=plan,
                results=results,
                cpi=estimate_cpi(results, weights),
                misspec_penalty=estimate_misspec_penalty(results, weights),
                ci_target=self.ci_target,
                converged=converged,
                rounds=tuple(state.rounds),
            ))
        return runs


__all__ = [
    "DEFAULT_ADAPTIVE_CAP",
    "DEFAULT_BATCH",
    "DEFAULT_CI_TARGET",
    "DEFAULT_START_REGIONS",
    "AdaptiveRound",
    "AdaptiveRun",
]

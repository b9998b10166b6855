"""Region scheduling: slice a trace into (warmup, measure) windows.

Systematic sampling in the SMARTS style (Wunderlich et al., ISCA 2003):
the timed span ``[skip, skip + instructions)`` of a full run is divided
into equal strides, and one measurement window of ``measure`` records is
centered in each stride.  Detailed simulation covers only the windows
plus their warmup prefixes -- the whole-span estimate then comes from
weighting the per-window stats (:mod:`repro.sampling.aggregate`).

The scheduler is pure arithmetic over record counts; it never touches a
trace.  Each region becomes an ordinary exec job via
:meth:`~repro.core.config.ProcessorConfig.with_region`, so regions are
dispatched through the same process pool and persistent result cache as
any other simulation (see :mod:`repro.sampling.run`).

Warmup policy: each window is preceded by two warmup phases.  The
``warmup`` records train warm microarchitectural state (caches,
predictor, BTB, slice tracker) functionally -- that state cannot be
restored from the trace's architectural interval checkpoints, which
carry registers and memory words, not tables.  The ``detail`` records
then run through the full timing model with statistics discarded, so
measurement starts from a filled pipeline instead of an empty ROB/IQ
(the dominant bias of short windows; SMARTS calls this detailed
warming).  Detail records are fully simulated, so they count toward the
``max_fraction`` simulated-records budget; functional warmup does not.
The interval checkpoints instead let the differential oracle (and
capture extension) seat *architectural* state at the nearest checkpoint
at or below the region seat, paying only the residue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..trace.format import DEFAULT_CHECKPOINT_INTERVAL

#: Fraction of the timed span the sampled windows may cover, total.  The
#: acceptance gate for sampling is "within 3% of the full run at <= 1/3
#: of the simulated records"; the default plan honors the cap by
#: construction (measure + detail both count).
DEFAULT_MAX_FRACTION = 1.0 / 3.0

#: Default measurement-window length.
DEFAULT_MEASURE = 1024

#: Default detailed-warmup length (timed, discarded) before each window.
DEFAULT_DETAIL = DEFAULT_MEASURE // 4

#: Default cap on per-region functional warming.  Warm state carries
#: long history, so more warming is always more faithful -- but it costs
#: O(region start) per region, which would swamp the sampling speedup on
#: long traces.  16K records is empirically where the 3% accuracy gate
#: still holds while warming stays a minority of the sampled wall time.
DEFAULT_WARMUP = 16384

#: Default cap on SimPoint representative count.  Representatives cover
#: *behaviors*, not span length; past a handful, extra regions mostly
#: resample behaviors already covered while scaling cost linearly.
DEFAULT_REGIONS = 8


@dataclass(frozen=True)
class Region:
    """One scheduled (warmup, detail, measure) window."""

    start: int  #: dynamic sequence number where measurement begins
    warmup: int  #: untimed warm-training records before the detail phase
    measure: int  #: timed records
    detail: int = 0  #: timed-but-discarded records immediately before start
    weight: int = 1  #: windows this one represents (SimPoint cluster size)

    def __post_init__(self) -> None:
        if self.measure < 1:
            raise ValueError("region measure must be positive")
        if self.warmup < 0 or self.detail < 0:
            raise ValueError("region warmup/detail must be non-negative")
        if self.warmup + self.detail > self.start:
            raise ValueError("region warmup + detail must fit before start")
        if self.weight < 1:
            raise ValueError("region weight must be positive")

    @property
    def end(self) -> int:
        return self.start + self.measure


@dataclass(frozen=True)
class RegionPlan:
    """A full sampling schedule over one timed span."""

    instructions: int  #: timed-span length the plan estimates
    skip: int  #: records before the timed span (the full run's warmup)
    checkpoint_interval: int  #: trace cadence the plan assumes
    regions: Tuple[Region, ...]

    @property
    def measured_records(self) -> int:
        return sum(r.measure for r in self.regions)

    @property
    def detailed_records(self) -> int:
        return sum(r.detail for r in self.regions)

    @property
    def warm_records(self) -> int:
        return sum(r.warmup for r in self.regions)

    @property
    def simulated_records(self) -> int:
        """Records run through the timing model (measure + detail)."""
        return self.measured_records + self.detailed_records

    @property
    def coverage(self) -> float:
        """Fraction of the timed span run through the timing model."""
        return self.simulated_records / self.instructions

    def __str__(self) -> str:
        first = self.regions[0] if self.regions else Region(0, 0, 1)
        return (f"{len(self.regions)} regions x {first.measure} measured "
                f"(+{first.warmup} warmup, +{first.detail} detail) "
                f"= {self.coverage:.1%} of {self.instructions:,} records")


def plan_regions(instructions: int, skip: int = 0,
                 measure: int = DEFAULT_MEASURE,
                 warmup: "int | None" = DEFAULT_WARMUP,
                 detail: "int | None" = None,
                 max_fraction: float = DEFAULT_MAX_FRACTION,
                 checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
                 ) -> RegionPlan:
    """Schedule systematic (warmup, detail, measure) windows over a span.

    ``instructions``/``skip`` describe the full run being estimated: the
    span ``[skip, skip + instructions)``.  ``measure`` sizes each window;
    ``detail`` (timed, discarded) defaults to a quarter of it.
    ``warmup`` caps the functional warm training before each detail
    phase (default :data:`DEFAULT_WARMUP`); pass ``None`` for
    continuous functional warming over the whole prefix -- maximally
    faithful cache/predictor state, at O(region start) cost per
    region.  Detail records are really simulated, so the number
    of windows is the largest that keeps measure + detail within
    ``max_fraction`` of the span -- at least one, with the window (then
    the detail) shrunk if even one would bust the cap.  Warmup and
    detail are clamped per-region to the records that exist before it.
    """
    if instructions < 1:
        raise ValueError("instructions must be positive")
    if skip < 0:
        raise ValueError("skip must be non-negative")
    if measure < 1:
        raise ValueError("measure must be positive")
    if not 0 < max_fraction <= 1:
        raise ValueError("max_fraction must be in (0, 1]")
    budget = max(1, int(instructions * max_fraction))
    if measure > budget:
        measure = budget
    if detail is None:
        detail = measure // 4
    if detail < 0:
        raise ValueError("detail must be non-negative")
    detail = min(detail, budget - measure)
    if warmup is not None and warmup < 0:
        raise ValueError("warmup must be non-negative")
    count = max(1, budget // (measure + detail))
    stride = instructions / count
    regions = []
    for i in range(count):
        # Center each window in its stride segment; int() keeps starts
        # deterministic and inside the span.
        start = skip + int(i * stride + (stride - measure) / 2)
        start = max(skip, min(start, skip + instructions - measure))
        d = min(detail, start)
        full_prefix = start - d
        regions.append(Region(start=start,
                              warmup=full_prefix if warmup is None
                              else min(warmup, full_prefix),
                              measure=measure,
                              detail=d))
    return RegionPlan(instructions=instructions, skip=skip,
                      checkpoint_interval=checkpoint_interval,
                      regions=tuple(regions))


def plan_representative_regions(trace, instructions: int, skip: int = 0,
                                measure: int = DEFAULT_MEASURE,
                                warmup: "int | None" = DEFAULT_WARMUP,
                                detail: "int | None" = None,
                                regions: "int | None" = DEFAULT_REGIONS,
                                max_fraction: float = DEFAULT_MAX_FRACTION,
                                checkpoint_interval: int =
                                DEFAULT_CHECKPOINT_INTERVAL,
                                ) -> RegionPlan:
    """SimPoint-style plan: cluster windows, simulate representatives.

    The span ``[skip, skip + instructions)`` is tiled with consecutive
    ``measure``-record windows, each summarized by a behavioral
    signature computed from the trace arrays alone
    (:mod:`repro.sampling.signature` -- code, data and branch-outcome
    features, no simulation).  K-medoids clustering picks the most
    central window of each behavior cluster as its representative; the
    plan schedules only those, carrying each cluster's population as the
    region's ``weight`` so the aggregator can reconstruct the whole-span
    mix.  The cluster count is the largest that keeps the simulated
    records (measure + detail per region) within ``max_fraction`` of
    the span, further capped by ``regions`` (default
    :data:`DEFAULT_REGIONS`; ``None`` lifts the cap) -- unlike
    systematic sampling, representatives cover *behaviors*, not span
    length, so a handful suffices however long the trace is.
    ``warmup`` defaults to the :data:`DEFAULT_WARMUP` cap; ``None``
    warms over each region's whole prefix.  The trace must cover
    ``skip + instructions`` records.

    Everything -- tiling, signatures, seeding, tie-breaks -- is
    deterministic, so a given (trace, parameters) pair always yields
    the same plan and therefore the same cached exec job keys.
    """
    from .signature import cluster_windows, window_signature
    if instructions < 1:
        raise ValueError("instructions must be positive")
    if skip < 0:
        raise ValueError("skip must be non-negative")
    if measure < 1:
        raise ValueError("measure must be positive")
    if not 0 < max_fraction <= 1:
        raise ValueError("max_fraction must be in (0, 1]")
    if len(trace) < skip + instructions:
        raise ValueError(
            f"trace has {len(trace)} records, need {skip + instructions}")
    budget = max(1, int(instructions * max_fraction))
    if measure > budget:
        measure = budget
    if detail is None:
        detail = measure // 4
    if detail < 0:
        raise ValueError("detail must be non-negative")
    detail = min(detail, budget - measure)
    if warmup is not None and warmup < 0:
        raise ValueError("warmup must be non-negative")
    if regions is not None and regions < 1:
        raise ValueError("regions must be positive")
    windows = max(1, instructions // measure)
    k = max(1, budget // (measure + detail))
    if regions is not None:
        k = min(k, regions)
    signatures = [window_signature(trace, skip + i * measure, measure)
                  for i in range(windows)]
    medoids, weights = cluster_windows(signatures, k)
    regions = []
    for index, weight in sorted(zip(medoids, weights)):
        start = skip + index * measure
        d = min(detail, start)
        full_prefix = start - d
        regions.append(Region(start=start,
                              warmup=full_prefix if warmup is None
                              else min(warmup, full_prefix),
                              measure=measure,
                              detail=d,
                              weight=weight))
    return RegionPlan(instructions=instructions, skip=skip,
                      checkpoint_interval=checkpoint_interval,
                      regions=tuple(regions))

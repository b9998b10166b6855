"""Region schedules: the (warmup, detail, measure) windows a sample runs.

A sampled run estimates the timed span ``[skip, skip + instructions)``
of a full run from a few weighted windows of it.  The span is tiled
with consecutive ``measure``-record windows; the sampling session
(:mod:`repro.sampling.adaptive`) picks representative windows from
their behavior signatures and records each as a :class:`Region`
weighted by the windows it stands for.  A :class:`RegionPlan` is the
resulting schedule: pure data, no trace.  Each region becomes an
ordinary exec job via :meth:`~repro.core.config.ProcessorConfig.
with_region`, so regions are dispatched through the same process pool
and persistent result cache as any other simulation.

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

#: Default region count of fixed (SimPoint) sampling.  Representatives
#: cover *behaviors*, not span length; past a handful, extra regions
#: mostly resample behaviors already covered while scaling cost linearly.
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

"""Combine per-region stats into whole-trace estimates with errors.

Each simulated region yields ordinary :class:`~repro.core.stats.SimStats`
over its measured window.  The whole-span point estimate of a ratio
metric is the ratio of the summed numerators and denominators -- e.g.
CPI = sum(w * cycles) / sum(w * committed) -- where ``w`` is the
region's weight, its cluster population (each representative stands
for every window of its behavior cluster).

Spread comes from the per-region values through
:class:`~repro.analysis.robustness.SweepSummary`, inheriting its honesty
rules: standard error is NaN below two regions, and
:attr:`SampledEstimate.significant` can never be claimed from a single
window -- the n>=2 rule the seed sweeps already enforce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from ..analysis.robustness import SweepSummary
from ..core.simulator import SimulationResult

#: Two-sided ~95% normal quantile used for the confidence interval.
CI_Z = 1.96

#: Floor on the *relative* CI half-width of a weighted estimate.  The
#: window tiling truncates the span tail (``instructions mod measure``
#: records are represented by no window), a systematic bias the
#: between-region spread cannot see -- on a perfectly homogeneous
#: workload the jackknife CI collapses to ~0.1% while the truncation
#: bias sits around 0.3%.  The floor keeps the reported interval honest
#: about that bias; CI targets below it are unreachable by design.
CI_RELATIVE_FLOOR = 0.005


@dataclass(frozen=True)
class SampledEstimate:
    """One whole-span metric estimated from sampled regions."""

    metric: str
    point: float  #: weighted whole-span estimate
    summary: SweepSummary  #: unweighted per-region values (spread)
    #: Per-region weighted (numerator, denominator) terms of the ratio
    #: estimate.  When present, the standard error is the delete-one
    #: jackknife over these terms, which weighs each region by how much
    #: the whole-span estimate actually depends on it -- a small cluster
    #: with an outlier CPI perturbs the estimate (and hence the CI) far
    #: less than the unweighted per-region spread suggests.
    terms: Optional[Tuple[Tuple[float, float], ...]] = None

    @property
    def stderr(self) -> float:
        """Standard error of the estimate; NaN when n < 2.

        Delete-one jackknife over the weighted ratio terms when they are
        available, else the plain standard error of the unweighted
        per-region values.
        """
        jack = self._jackknife_stderr()
        if jack is not None:
            return jack
        return self.summary.stderr

    def _jackknife_stderr(self) -> Optional[float]:
        if self.terms is None:
            return None
        n = len(self.terms)
        if n < 2:
            return math.nan
        total_num = sum(t[0] for t in self.terms)
        total_den = sum(t[1] for t in self.terms)
        loo = []
        for num, den in self.terms:
            rest = total_den - den
            if rest <= 0:
                return math.nan
            loo.append((total_num - num) / rest)
        mean = sum(loo) / n
        var = (n - 1) / n * sum((v - mean) ** 2 for v in loo)
        return math.sqrt(var)

    @property
    def ci_halfwidth(self) -> float:
        """Half-width of the ~95% CI (NaN when the stderr is undefined).

        Weighted estimates never claim a half-width below
        :data:`CI_RELATIVE_FLOOR` of the point -- see the constant's
        rationale.
        """
        half = CI_Z * self.stderr
        if self.terms is not None and not math.isnan(half) \
                and not math.isnan(self.point):
            half = max(half, CI_RELATIVE_FLOOR * abs(self.point))
        return half

    @property
    def ci95(self) -> Tuple[float, float]:
        """~95% confidence interval around the point estimate.

        (NaN, NaN) when the standard error is undefined (single region):
        one window supports a point estimate but no error claim.
        """
        half = self.ci_halfwidth
        return (self.point - half, self.point + half)

    @property
    def relative_error(self) -> float:
        """Half-width of the CI as a fraction of the point.

        NaN when undefined: fewer than two regions (no stderr), or a
        point estimate of exactly 0.0 -- a zero denominator carries no
        relative-error claim, mirroring the n=1 stderr convention.
        Callers render NaN as ``n/a``.
        """
        if self.point == 0.0 or math.isnan(self.point):
            return math.nan
        return self.ci_halfwidth / abs(self.point)

    def __str__(self) -> str:
        if math.isnan(self.stderr):
            return f"{self.metric}={self.point:.4f} (n={self.summary.n})"
        return (f"{self.metric}={self.point:.4f} "
                f"+/- {self.ci_halfwidth:.4f} "
                f"(n={self.summary.n})")


def _ratio(num: float, den: float) -> float:
    return num / den if den else math.nan


def _region_weights(results: Sequence[SimulationResult],
                    weights: "Sequence[int] | None") -> Sequence[int]:
    if weights is None:
        return (1,) * len(results)
    if len(weights) != len(results):
        raise ValueError(f"{len(weights)} weights for {len(results)} regions")
    return weights


def weighted_ratio(results: Sequence[SimulationResult],
                   weights: "Sequence[int] | None",
                   num: Callable[[SimulationResult], float],
                   den: Callable[[SimulationResult], float],
                   scale: float = 1.0) -> float:
    """Whole-span point estimate of ``scale * sum(num) / sum(den)``."""
    weights = _region_weights(results, weights)
    total_num = sum(w * num(r) for w, r in zip(weights, results))
    total_den = sum(w * den(r) for w, r in zip(weights, results))
    return scale * _ratio(total_num, total_den)


def estimate_cpi(results: Sequence[SimulationResult],
                 weights: "Sequence[int] | None" = None) -> SampledEstimate:
    """Whole-span cycles-per-instruction from per-region windows."""
    weights = _region_weights(results, weights)
    terms = tuple((w * r.stats.cycles, w * r.stats.committed)
                  for w, r in zip(weights, results))
    per_region = tuple(_ratio(r.stats.cycles, r.stats.committed)
                       for r in results)
    return SampledEstimate("cpi",
                           _ratio(sum(t[0] for t in terms),
                                  sum(t[1] for t in terms)),
                           SweepSummary(per_region), terms=terms)


def estimate_misspec_penalty(results: Sequence[SimulationResult],
                             weights: "Sequence[int] | None" = None,
                             ) -> SampledEstimate:
    """Whole-span average misspeculation penalty per mispredicted branch.

    Weighted by region weight times mispredictions (the metric's
    denominator): regions with no mispredictions contribute nothing to
    the point estimate and are excluded from the spread values -- their
    per-region penalty is undefined, not zero.
    """
    weights = _region_weights(results, weights)
    terms = tuple((w * r.stats.missspec_penalty_cycles,
                   w * r.stats.mispredictions)
                  for w, r in zip(weights, results))
    per_region = tuple(
        _ratio(r.stats.missspec_penalty_cycles, r.stats.mispredictions)
        for r in results if r.stats.mispredictions)
    return SampledEstimate("misspec_penalty",
                           _ratio(sum(t[0] for t in terms),
                                  sum(t[1] for t in terms)),
                           SweepSummary(per_region) if per_region
                           else SweepSummary((math.nan,)),
                           terms=terms)

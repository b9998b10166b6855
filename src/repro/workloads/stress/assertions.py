"""Expected-bottleneck contracts for the stress-kernel families.

A stress kernel is only useful if the simulator's bottleneck actually lands
where the kernel aims: a branch-slice kernel must show high MPKI, a
store-burst kernel must stall on the LSQ and not the ROB.  This module turns
those expectations into checkable contracts:

* a **metric registry** maps short names (``cpi``, ``l1i_mpki``,
  ``lsq_full_frac`` ...) to functions over :class:`~repro.core.simulator.
  SimulationResult`;
* three check types express the contracts -- :class:`MetricThreshold`
  (absolute floor/ceiling on the default-knob run), :class:`MetricDominance`
  (this stall cause beats that one by a factor) and :class:`MonotonicKnob`
  (the metric moves the predicted direction across the knob sweep);
* an :class:`ExpectedBottleneck` bundles the checks for one family, and a
  :class:`FamilyReport` renders every outcome with the observed values, so
  a failure states *which* resource did not bottleneck and by how much.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from ...core.simulator import SimulationResult

MetricFn = Callable[[SimulationResult], float]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Metric registry: short name -> value extractor.  Contracts reference
#: metrics by name so reports and the CLI can print them uniformly.
METRICS: Dict[str, MetricFn] = {
    "cpi": lambda r: _ratio(r.stats.cycles, r.stats.committed),
    "ipc": lambda r: r.stats.ipc,
    "branch_mpki": lambda r: r.stats.branch_mpki,
    "llc_mpki": lambda r: r.stats.llc_mpki,
    "l1i_mpki": lambda r: r.stats.l1i_mpki,
    "mispredict_rate": lambda r: _ratio(r.stats.mispredictions,
                                        r.stats.cond_branches),
    "btb_taken_miss_rate": lambda r: _ratio(r.stats.btb_misses_taken,
                                            r.stats.cond_branches),
    "predictor_accuracy": lambda r: r.predictor_accuracy,
    "forward_rate": lambda r: _ratio(r.lsq_forwards, r.stats.committed),
    "iq_occupancy_frac": lambda r: _ratio(r.stats.avg_iq_occupancy,
                                          r.config.iq_size),
    "rob_full_frac": lambda r: _ratio(r.stats.rob_full_stall_cycles,
                                      r.stats.cycles),
    "iq_full_frac": lambda r: _ratio(r.stats.iq_full_stall_cycles,
                                     r.stats.cycles),
    "lsq_full_frac": lambda r: _ratio(r.stats.lsq_full_stall_cycles,
                                      r.stats.cycles),
    "regs_full_frac": lambda r: _ratio(r.stats.regs_full_stall_cycles,
                                       r.stats.cycles),
    "avg_missspec_iq_wait": lambda r: r.stats.avg_missspec_iq_wait,
    "unconfident_branch_rate": lambda r: r.tracker_stats.unconfident_branch_rate,
    "priority_full_frac": lambda r: _ratio(r.stats.priority_stall_cycles,
                                           r.stats.cycles),
}


def _td_fraction(bucket: str) -> MetricFn:
    def fn(result: SimulationResult) -> float:
        # Deferred: repro.analysis pulls in the runner stack, which this
        # low-level module must not import at load time.
        from ...analysis.topdown import breakdown_of
        return breakdown_of(result).fraction(bucket)
    return fn


METRICS.update({
    f"td_{bucket}_frac": _td_fraction(bucket)
    for bucket in ("retiring", "frontend", "bad_speculation", "backend")
})


def metric_value(name: str, result: SimulationResult) -> float:
    """Evaluate registry metric ``name`` on ``result``."""
    try:
        fn = METRICS[name]
    except KeyError:
        raise KeyError(f"unknown stress metric: {name!r} "
                       f"(known: {', '.join(sorted(METRICS))})") from None
    return fn(result)


@dataclass(frozen=True)
class CheckOutcome:
    """One evaluated check: what was asserted, what was observed."""

    description: str
    passed: bool
    observed: str

    def render(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"  [{mark}] {self.description}  ({self.observed})"


@dataclass(frozen=True)
class MetricThreshold:
    """``metric op value`` on the default-knob run (op is ``>=``/``<=``)."""

    metric: str
    op: str
    value: float

    def __post_init__(self) -> None:
        if self.op not in (">=", "<="):
            raise ValueError(f"threshold op must be >= or <=, got {self.op!r}")

    def evaluate(self, result: SimulationResult) -> CheckOutcome:
        observed = metric_value(self.metric, result)
        passed = (observed >= self.value if self.op == ">="
                  else observed <= self.value)
        return CheckOutcome(
            description=f"{self.metric} {self.op} {self.value:g}",
            passed=passed,
            observed=f"{self.metric}={observed:.4g}",
        )


@dataclass(frozen=True)
class MetricDominance:
    """``metric >= factor * over`` -- the expected stall cause dominates."""

    metric: str
    over: str
    factor: float = 1.0

    def evaluate(self, result: SimulationResult) -> CheckOutcome:
        lhs = metric_value(self.metric, result)
        rhs = metric_value(self.over, result)
        passed = lhs >= self.factor * rhs
        return CheckOutcome(
            description=f"{self.metric} >= {self.factor:g} * {self.over}",
            passed=passed,
            observed=f"{self.metric}={lhs:.4g} {self.over}={rhs:.4g}",
        )


@dataclass(frozen=True)
class TopdownDominant:
    """The dominant topdown bucket lands where the family aims.

    The cycle-attribution analogue of :class:`MetricDominance`: instead
    of comparing two raw stall counters, it asks the topdown hierarchy
    (DESIGN.md §15) which level-1 bucket ate the most non-retiring issue
    slots and requires the answer to match the family's declared
    bottleneck.
    """

    bucket: str

    def evaluate(self, result: SimulationResult) -> CheckOutcome:
        from ...analysis.topdown import LEVEL1, breakdown_of
        breakdown = breakdown_of(result)
        dominant = breakdown.dominant_bucket
        observed = " ".join(
            f"{b}={breakdown.fraction(b):.3f}" for b in LEVEL1)
        return CheckOutcome(
            description=f"dominant topdown bucket is {self.bucket}",
            passed=dominant == self.bucket,
            observed=f"dominant={dominant} ({observed})",
        )


@dataclass(frozen=True)
class MonotonicKnob:
    """The metric moves ``direction`` across the knob sweep.

    ``tolerance`` allows per-step noise in the *wrong* direction;
    ``min_span`` additionally requires the last sweep point to clear the
    first by that much overall (so a flat line cannot pass by tolerance
    alone).
    """

    metric: str
    direction: str  #: "increasing" | "decreasing"
    tolerance: float = 0.0
    min_span: float = 0.0

    def __post_init__(self) -> None:
        if self.direction not in ("increasing", "decreasing"):
            raise ValueError(
                f"direction must be increasing/decreasing, got {self.direction!r}")

    def evaluate(self, sweep: Sequence[Tuple[int, SimulationResult]]
                 ) -> CheckOutcome:
        values = [(knob, metric_value(self.metric, result))
                  for knob, result in sweep]
        sign = 1.0 if self.direction == "increasing" else -1.0
        steps_ok = all(
            sign * (nxt - prev) >= -self.tolerance
            for (_, prev), (_, nxt) in zip(values, values[1:]))
        span_ok = sign * (values[-1][1] - values[0][1]) >= self.min_span
        observed = " -> ".join(f"{v:.4g}@{k}" for k, v in values)
        return CheckOutcome(
            description=(f"{self.metric} {self.direction} over knob sweep"
                         + (f" (span >= {self.min_span:g})"
                            if self.min_span else "")),
            passed=steps_ok and span_ok,
            observed=observed,
        )


@dataclass(frozen=True)
class ExpectedBottleneck:
    """The full contract of one family.

    ``resource`` names the structure expected to saturate (for reports);
    ``checks`` run against the default-knob result and ``sweep_checks``
    against the (knob, result) sweep.
    """

    resource: str
    checks: Tuple[object, ...] = ()
    sweep_checks: Tuple[MonotonicKnob, ...] = ()


@dataclass
class FamilyReport:
    """Every check outcome of one family run, renderable for CLI/pytest."""

    family: str
    resource: str
    knob: str
    default_knob: int
    sweep_knobs: Tuple[int, ...]
    outcomes: List[CheckOutcome] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    @property
    def failures(self) -> List[CheckOutcome]:
        return [o for o in self.outcomes if not o.passed]

    def render(self) -> str:
        status = "ok" if self.passed else "BOTTLENECK CONTRACT FAILED"
        head = (f"{self.family} [{self.resource}] "
                f"{self.knob}={self.default_knob}"
                + (f" sweep={list(self.sweep_knobs)}" if self.sweep_knobs
                   else "")
                + f": {status}")
        return "\n".join([head] + [o.render() for o in self.outcomes])


__all__ = [
    "METRICS",
    "CheckOutcome",
    "ExpectedBottleneck",
    "FamilyReport",
    "MetricDominance",
    "MetricThreshold",
    "MonotonicKnob",
    "TopdownDominant",
    "metric_value",
]

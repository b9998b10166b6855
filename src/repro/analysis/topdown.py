"""Top-down cycle attribution built on the ``td_*`` slot counters.

DESIGN.md §15.  Every cycle the dispatch stage accounts exactly
``decode_width`` issue slots into one of ten leaf buckets, so the
hierarchy here sums to ``decode_width * cycles`` by construction (the
``topdown-cycle-accounting`` invariant re-checks that on every verified
sweep).  Level 1 follows the classic topdown split:

* ``retiring`` -- slots that dispatched a correct-path uop;
* ``frontend`` -- empty slots while the front end starved dispatch,
  split into plain fetch-redirect bubbles and L1I-miss stalls;
* ``bad_speculation`` -- slots spent on wrong-path uops plus the
  recovery/refill bubbles after a misprediction.  The recovery bucket
  carries the paper's Sec. II-A E_wait decomposition (frontend, IQ
  wait, execute per mispredicted branch) so a PUBS-vs-base delta can be
  traced to the component PUBS actually attacks;
* ``backend`` -- slots lost to a full backend structure, split by the
  (disjoint) per-cause dispatch-stall counters: ROB, IQ, LSQ, physical
  registers, and the priority partition.

Per-bucket CPI contributions divide slots by ``decode_width *
committed``; contributions of the level-1 buckets sum to CPI exactly,
so :func:`compare_topdown` can name the bucket responsible for a CPI
delta rather than just reporting the speedup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..core.simulator import SimulationResult
from ..core.stats import SimStats

#: Level-1 buckets and their level-2 leaves, in render order.
HIERARCHY: Mapping[str, Tuple[str, ...]] = {
    "retiring": ("retiring",),
    "frontend": ("fetch_redirect", "l1i_miss"),
    "bad_speculation": ("wrong_path", "recovery"),
    "backend": ("rob", "iq", "lsq", "regs", "priority"),
}

LEVEL1: Tuple[str, ...] = tuple(HIERARCHY)

#: SimStats counter backing each leaf.
LEAF_COUNTERS: Mapping[str, str] = {
    "retiring": "td_retire_slots",
    "fetch_redirect": "td_fe_fetch_slots",
    "l1i_miss": "td_fe_l1i_slots",
    "wrong_path": "td_wrongpath_slots",
    "recovery": "td_recovery_slots",
    "rob": "td_be_rob_slots",
    "iq": "td_be_iq_slots",
    "lsq": "td_be_lsq_slots",
    "regs": "td_be_regs_slots",
    "priority": "td_be_priority_slots",
}

#: E_wait components carried alongside the slot buckets (Sec. II-A).
_MISSSPEC_COUNTERS: Tuple[str, ...] = (
    "missspec_penalty_cycles",
    "missspec_frontend_cycles",
    "missspec_iq_wait_cycles",
    "missspec_execute_cycles",
    "mispredictions",
)


@dataclass(frozen=True)
class TopdownBreakdown:
    """One workload's slot-attribution hierarchy.

    Counts are floats so weighted sampled aggregates (SimPoint cluster
    populations) use the same type; full-run breakdowns hold exact
    integers.
    """

    name: str
    width: int  #: decode width the slots were accounted against
    cycles: float
    committed: float
    leaves: Mapping[str, float]  #: leaf bucket -> slots
    missspec: Mapping[str, float]  #: Sec. II-A E_wait cycle components

    # -- construction ---------------------------------------------------

    @classmethod
    def from_stats(cls, stats: SimStats, width: int,
                   name: str = "") -> "TopdownBreakdown":
        return cls(
            name=name,
            width=width,
            cycles=float(stats.cycles),
            committed=float(stats.committed),
            leaves={leaf: float(getattr(stats, counter))
                    for leaf, counter in LEAF_COUNTERS.items()},
            missspec={c: float(getattr(stats, c))
                      for c in _MISSSPEC_COUNTERS},
        )

    @classmethod
    def from_result(cls, result: SimulationResult) -> "TopdownBreakdown":
        return cls.from_stats(result.stats, result.config.decode_width,
                              name=result.program_name)

    @classmethod
    def from_results(cls, results: Sequence[SimulationResult],
                     weights: "Sequence[int] | None" = None,
                     name: str = "") -> "TopdownBreakdown":
        """Weighted whole-span breakdown over sampled regions.

        Every counter scales by its region's plan weight -- the same
        rule :func:`repro.sampling.weighted_ratio` applies to CPI's
        numerator and denominator, so sampled topdown fractions are as
        honest as the sampled CPI they sit next to.
        """
        if not results:
            raise ValueError("no regions to aggregate")
        if weights is None:
            weights = (1,) * len(results)
        if len(weights) != len(results):
            raise ValueError(
                f"{len(weights)} weights for {len(results)} regions")
        widths = {r.config.decode_width for r in results}
        if len(widths) != 1:
            raise ValueError(f"mixed decode widths {sorted(widths)}")

        def total(attr: str) -> float:
            return float(sum(w * getattr(r.stats, attr)
                             for w, r in zip(weights, results)))

        return cls(
            name=name or results[0].program_name,
            width=widths.pop(),
            cycles=total("cycles"),
            committed=total("committed"),
            leaves={leaf: total(counter)
                    for leaf, counter in LEAF_COUNTERS.items()},
            missspec={c: total(c) for c in _MISSSPEC_COUNTERS},
        )

    # -- derived metrics ------------------------------------------------

    @property
    def total_slots(self) -> float:
        return self.width * self.cycles

    @property
    def cpi(self) -> float:
        return self.cycles / self.committed if self.committed else math.nan

    def level1(self) -> Dict[str, float]:
        """Level-1 bucket -> slots; values sum to :attr:`total_slots`."""
        return {bucket: sum(self.leaves[leaf] for leaf in leaves)
                for bucket, leaves in HIERARCHY.items()}

    def fraction(self, bucket: str) -> float:
        """Share of all issue slots in a level-1 bucket or a leaf."""
        total = self.total_slots
        if not total:
            return math.nan
        if bucket in HIERARCHY:
            return self.level1()[bucket] / total
        return self.leaves[bucket] / total

    def cpi_contribution(self, bucket: str) -> float:
        """Cycles-per-instruction attributable to a bucket or leaf.

        Level-1 contributions sum to :attr:`cpi` exactly, so the
        difference of two breakdowns' contributions decomposes a CPI
        delta without residue.
        """
        slots = (self.level1()[bucket] if bucket in HIERARCHY
                 else self.leaves[bucket])
        denom = self.width * self.committed
        return slots / denom if denom else math.nan

    @property
    def dominant_bucket(self) -> Optional[str]:
        """The non-retiring level-1 bucket holding the most slots.

        None when no slots were lost at all (every slot retired) -- a
        machine with nothing to fix has no dominant bottleneck.
        """
        level1 = self.level1()
        lost = {b: s for b, s in level1.items() if b != "retiring"}
        if not any(lost.values()):
            return None
        return max(lost, key=lambda b: lost[b])

    # -- rendering ------------------------------------------------------

    def render(self) -> str:
        """Multi-line hierarchy with per-bucket slot shares and CPI."""
        title = self.name or "topdown"
        lines = [f"{title}: width={self.width} cycles={self.cycles:.0f} "
                 f"committed={self.committed:.0f} CPI={self.cpi:.3f}"]
        for bucket, leaves in HIERARCHY.items():
            lines.append(
                f"  {bucket:<16} {100 * self.fraction(bucket):6.1f}%  "
                f"(CPI {self.cpi_contribution(bucket):.3f})")
            if len(leaves) > 1:
                for leaf in leaves:
                    lines.append(
                        f"    {leaf:<14} {100 * self.fraction(leaf):6.1f}%")
        lines.append("  " + self._ewait_line())
        return "\n".join(lines)

    def _ewait_line(self) -> str:
        branches = self.missspec["mispredictions"]
        if not branches:
            return "E_wait: no mispredictions"
        fe = self.missspec["missspec_frontend_cycles"] / branches
        iq = self.missspec["missspec_iq_wait_cycles"] / branches
        ex = self.missspec["missspec_execute_cycles"] / branches
        total = self.missspec["missspec_penalty_cycles"] / branches
        return (f"E_wait/branch: FE {fe:.1f} + IQ {iq:.1f} + EX {ex:.1f} "
                f"= {total:.1f}cy over {branches:.0f} mispredictions")


def breakdown_of(run, name: str = "") -> TopdownBreakdown:
    """Breakdown of a result in any of the runner's shapes.

    Accepts a plain :class:`~repro.core.simulator.SimulationResult`, a
    :class:`~repro.analysis.runner.WorkloadRun` cell (full or sampled),
    or a :class:`~repro.sampling.run.SampledRun`.  Sampled shapes
    aggregate their per-region counters under the plan weights, so the
    reported fractions estimate the whole span -- same rule as the
    sampled CPI.
    """
    cell_sampled = getattr(run, "sampled", None)  # WorkloadRun, sampled
    if cell_sampled is not None:
        run = cell_sampled
    cell_full = getattr(run, "full", None)  # WorkloadRun, full
    if cell_full is not None:
        run = cell_full
    plan = getattr(run, "plan", None)  # SampledRun
    if plan is not None:
        return TopdownBreakdown.from_results(
            run.results, [r.weight for r in plan.regions],
            name=name or run.workload)
    breakdown = TopdownBreakdown.from_result(run)
    if name:
        return TopdownBreakdown(name=name, width=breakdown.width,
                                cycles=breakdown.cycles,
                                committed=breakdown.committed,
                                leaves=breakdown.leaves,
                                missspec=breakdown.missspec)
    return breakdown


@dataclass(frozen=True)
class TopdownDelta:
    """Which bucket moved between a base and a variant breakdown."""

    base: TopdownBreakdown
    variant: TopdownBreakdown
    #: Level-1 bucket -> CPI-contribution delta (variant - base); the
    #: values sum to the CPI delta exactly.
    contributions: Mapping[str, float]

    @property
    def cpi_delta(self) -> float:
        return self.variant.cpi - self.base.cpi

    @property
    def mover(self) -> str:
        """The level-1 bucket whose contribution moved the most."""
        return max(self.contributions,
                   key=lambda b: abs(self.contributions[b]))

    def render(self) -> str:
        lines = [f"topdown delta ({self.base.name} -> {self.variant.name}): "
                 f"CPI {self.base.cpi:.3f} -> {self.variant.cpi:.3f} "
                 f"({self.cpi_delta:+.3f})"]
        for bucket in LEVEL1:
            delta = self.contributions[bucket]
            tag = "  <-- moved most" if bucket == self.mover else ""
            lines.append(
                f"  {bucket:<16} {self.base.cpi_contribution(bucket):6.3f} "
                f"-> {self.variant.cpi_contribution(bucket):6.3f} "
                f"({delta:+.3f}){tag}")
        base_iq = self.base.missspec["missspec_iq_wait_cycles"]
        var_iq = self.variant.missspec["missspec_iq_wait_cycles"]
        base_n = self.base.missspec["mispredictions"]
        var_n = self.variant.missspec["mispredictions"]
        if base_n and var_n:
            lines.append(
                f"  E_wait IQ component/branch: {base_iq / base_n:.1f} -> "
                f"{var_iq / var_n:.1f}cy")
        return "\n".join(lines)


def compare_topdown(base: TopdownBreakdown,
                    variant: TopdownBreakdown) -> TopdownDelta:
    """Decompose a CPI delta into per-bucket contribution moves."""
    contributions = {
        bucket: variant.cpi_contribution(bucket)
        - base.cpi_contribution(bucket)
        for bucket in LEVEL1
    }
    return TopdownDelta(base=base, variant=variant,
                        contributions=contributions)


def suite_table_rows(breakdowns: Sequence[TopdownBreakdown],
                     ) -> Tuple[Tuple[str, ...],
                                Tuple[Tuple[object, ...], ...]]:
    """(headers, rows) of level-1 fractions for ``render_table``."""
    headers = ("workload", "CPI") + tuple(LEVEL1) + ("dominant",)
    rows = tuple(
        (b.name, b.cpi)
        + tuple(b.fraction(bucket) for bucket in LEVEL1)
        + (b.dominant_bucket or "-",)
        for b in breakdowns)
    return headers, rows

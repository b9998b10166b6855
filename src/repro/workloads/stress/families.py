"""Stress-family catalog: kernel + knob + expected-bottleneck contract.

Each :class:`StressFamily` ties a kernel builder (:mod:`.kernels`) to the
resource it stresses, a sweepable knob, and the
:class:`~repro.workloads.stress.assertions.ExpectedBottleneck` contract that
the simulator must satisfy when running it.  :func:`run_family` executes the
default-knob run plus the knob sweep through the ordinary
:func:`~repro.core.simulator.simulate` entry point and returns a
:class:`~repro.workloads.stress.assertions.FamilyReport`.

Families bypass the result cache by design: they are bottleneck probes for
the timing model itself, a few thousand instructions each, so every run
re-simulates (replaying its kernel's recorded trace, like any run).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

from ...core.config import PredictorConfig, ProcessorConfig
from ...core.simulator import SimulationResult, simulate
from ...isa.instruction import Program
from . import kernels
from .assertions import (METRICS, ExpectedBottleneck, FamilyReport,
                         MetricDominance, MetricThreshold, MonotonicKnob,
                         TopdownDominant, metric_value)

#: BTB override for the target-working-set family: 16 sets x 2 ways = 32
#: targets, so the ladder knob can exceed capacity without megabyte-scale
#: programs.  Applied on top of whatever machine the caller passes in.
SMALL_BTB = PredictorConfig(btb_sets=16, btb_assoc=2)


def _small_btb(config: ProcessorConfig) -> ProcessorConfig:
    return replace(config, predictor=replace(
        config.predictor, btb_sets=SMALL_BTB.btb_sets,
        btb_assoc=SMALL_BTB.btb_assoc))


@dataclass(frozen=True)
class StressFamily:
    """One stress kernel family and its contract."""

    name: str
    resource: str
    description: str
    knob: str
    default: int
    sweep: Tuple[int, ...]
    build: Callable[[int], Program]
    contract: ExpectedBottleneck
    #: Optional machine adjustment (e.g. the small BTB) applied to the
    #: caller's base config before simulating.
    tune: Optional[Callable[[ProcessorConfig], ProcessorConfig]] = None
    instructions: int = 6000
    skip: int = 2000
    #: Level-1 topdown bucket expected to dominate the default-knob run
    #: (DESIGN.md §15); ``run_family`` appends a
    #: :class:`~repro.workloads.stress.assertions.TopdownDominant` check
    #: for it.  None when the stressed resource has no single bucket
    #: (e.g. store-to-load forwarding, which *avoids* stalls).
    topdown: Optional[str] = None


FAMILIES: Dict[str, StressFamily] = {}


def _register(family: StressFamily) -> StressFamily:
    FAMILIES[family.name] = family
    return family


BRANCH_H2P = _register(StressFamily(
    name="branch_h2p",
    resource="branch predictor (hard-to-predict direction)",
    description="data-dependent branches with 4-op slices; knob = bias "
                "bits (taken probability 2^-knob, 1 = unlearnable)",
    knob="bias_bits",
    default=1,
    sweep=(1, 3, 6),
    build=kernels.build_branch_h2p,
    contract=ExpectedBottleneck(
        resource="direction predictor",
        checks=(
            MetricThreshold("branch_mpki", ">=", 30.0),
            MetricThreshold("mispredict_rate", ">=", 0.15),
        ),
        sweep_checks=(
            MonotonicKnob("branch_mpki", "decreasing", min_span=20.0),
        ),
    ),
    topdown="bad_speculation",
))

BRANCH_BTB = _register(StressFamily(
    name="branch_btb",
    resource="BTB target working set (indirect-branch stand-in)",
    description="always-taken branch ladder vs a 16-set 2-way BTB; knob = "
                "ladder targets (32 fit, more thrash their sets)",
    knob="targets",
    default=64,
    sweep=(8, 40, 64),
    build=kernels.build_branch_btb,
    contract=ExpectedBottleneck(
        resource="branch target buffer",
        checks=(
            MetricThreshold("btb_taken_miss_rate", ">=", 0.5),
            MetricThreshold("cpi", ">=", 1.5),
        ),
        sweep_checks=(
            MonotonicKnob("btb_taken_miss_rate", "increasing",
                          min_span=0.4),
        ),
    ),
    tune=_small_btb,
    topdown="bad_speculation",
))

CALLRET_DEPTH = _register(StressFamily(
    name="callret_depth",
    resource="front-end taken-transfer bandwidth (call/return depth)",
    description="call/return chains modelled as taken-JUMP chains; knob = "
                "chain depth (each hop costs a fetch break)",
    knob="depth",
    default=32,
    sweep=(2, 8, 32),
    build=kernels.build_callret,
    contract=ExpectedBottleneck(
        resource="fetch (taken transfers)",
        checks=(
            MetricThreshold("cpi", ">=", 0.6),
            MetricThreshold("branch_mpki", "<=", 1.0),
        ),
        sweep_checks=(
            MonotonicKnob("cpi", "increasing", tolerance=0.02,
                          min_span=0.2),
        ),
    ),
    topdown="frontend",
))

L1I_PRESSURE = _register(StressFamily(
    name="l1i_pressure",
    resource="L1 instruction cache",
    description="looped straight-line code body; knob = code footprint in "
                "KiB (32 KB L1I)",
    knob="code_kib",
    default=64,
    sweep=(4, 16, 64),
    build=kernels.build_l1i_pressure,
    contract=ExpectedBottleneck(
        resource="L1I",
        checks=(
            MetricThreshold("l1i_mpki", ">=", 25.0),
        ),
        sweep_checks=(
            MonotonicKnob("l1i_mpki", "increasing", min_span=20.0),
        ),
    ),
    topdown="frontend",
))

CACHE_THRASH = _register(StressFamily(
    name="cache_thrash",
    resource="cache hierarchy / memory (random-access thrash)",
    description="4 independent random loads per iteration over the knob "
                "footprint in KiB (2 MB LLC; no TLB modelled -- huge "
                "footprints stand in for page-walk thrash too)",
    knob="footprint_kib",
    default=64 * 1024,
    sweep=(256, 2 * 1024, 64 * 1024),
    build=kernels.build_cache_thrash,
    contract=ExpectedBottleneck(
        resource="LLC / memory",
        checks=(
            MetricThreshold("llc_mpki", ">=", 100.0),
            MetricThreshold("cpi", ">=", 1.5),
        ),
        sweep_checks=(
            MonotonicKnob("llc_mpki", "increasing", min_span=80.0),
        ),
    ),
    topdown="backend",
))

STORE_BUFFER = _register(StressFamily(
    name="store_buffer",
    resource="store buffer / LSQ capacity",
    description="store bursts behind a commit-blocking memory load; knob "
                "= stores per burst (64-entry LSQ vs 128-entry ROB)",
    knob="stores",
    default=32,
    sweep=(2, 12, 32),
    build=kernels.build_store_buffer,
    contract=ExpectedBottleneck(
        resource="LSQ",
        checks=(
            MetricThreshold("lsq_full_frac", ">=", 0.2),
            MetricDominance("lsq_full_frac", "rob_full_frac", factor=2.0),
        ),
        sweep_checks=(
            MonotonicKnob("lsq_full_frac", "increasing", min_span=0.15),
        ),
    ),
    topdown="backend",
))

LOAD_AFTER_STORE = _register(StressFamily(
    name="load_after_store",
    resource="store-to-load forwarding",
    description="store/load couples to the same slot while the store sits "
                "in the LSQ; knob = couples per iteration",
    knob="pairs",
    default=12,
    sweep=(2, 6, 12),
    build=kernels.build_load_after_store,
    contract=ExpectedBottleneck(
        resource="LSQ forwarding path",
        checks=(
            MetricThreshold("forward_rate", ">=", 0.3),
        ),
        sweep_checks=(
            MonotonicKnob("forward_rate", "increasing", min_span=0.1),
        ),
    ),
))

DEP_CHAIN = _register(StressFamily(
    name="dep_chain",
    resource="long-latency dependent chain (execution latency)",
    description="serial chain of dependent 3-cycle multiplies; knob = "
                "chain length",
    knob="length",
    default=24,
    sweep=(2, 8, 24),
    build=kernels.build_dep_chain,
    contract=ExpectedBottleneck(
        resource="execution latency (serial MUL chain)",
        checks=(
            MetricThreshold("cpi", ">=", 1.8),
            MetricThreshold("branch_mpki", "<=", 1.0),
        ),
        sweep_checks=(
            MonotonicKnob("cpi", "increasing", min_span=1.0),
        ),
    ),
    topdown="backend",
))

IQ_PRESSURE = _register(StressFamily(
    name="iq_pressure",
    resource="issue queue (load-shadow backlog)",
    description="dependents of an LLC-missing load waiting in the IQ; "
                "knob = dependents per load",
    knob="deps",
    default=48,
    sweep=(4, 16, 48),
    build=kernels.build_iq_pressure,
    contract=ExpectedBottleneck(
        resource="issue queue",
        checks=(
            MetricThreshold("iq_occupancy_frac", ">=", 0.7),
            MetricDominance("iq_full_frac", "rob_full_frac", factor=2.0),
            MetricDominance("iq_full_frac", "lsq_full_frac", factor=2.0),
        ),
        sweep_checks=(
            MonotonicKnob("iq_full_frac", "increasing", tolerance=0.03,
                          min_span=0.3),
        ),
    ),
    topdown="backend",
))


def run_family(
    family: StressFamily,
    config: Optional[ProcessorConfig] = None,
    knob: Optional[int] = None,
    sweep: bool = True,
    instructions: Optional[int] = None,
    skip: Optional[int] = None,
    mem_seed: int = 0,
) -> FamilyReport:
    """Run one family's contract and return the evaluated report.

    ``knob`` overrides the default knob (and disables the sweep checks,
    which are only meaningful over the declared sweep); ``sweep=False``
    skips the sweep runs for a quick default-knob-only check.
    """
    cfg = config or ProcessorConfig.cortex_a72_like()
    if family.tune is not None:
        cfg = family.tune(cfg)
    n = instructions if instructions is not None else family.instructions
    s = skip if skip is not None else family.skip

    def run_one(k: int) -> SimulationResult:
        return simulate(family.build(k), cfg, max_instructions=n,
                        skip_instructions=s, mem_seed=mem_seed)

    default_knob = knob if knob is not None else family.default
    default_result = run_one(default_knob)

    do_sweep = sweep and knob is None and family.contract.sweep_checks
    sweep_knobs: Tuple[int, ...] = family.sweep if do_sweep else ()
    report = FamilyReport(
        family=family.name,
        resource=family.resource,
        knob=family.knob,
        default_knob=default_knob,
        sweep_knobs=sweep_knobs,
        metrics={name: metric_value(name, default_result)
                 for name in METRICS},
    )
    for check in family.contract.checks:
        report.outcomes.append(check.evaluate(default_result))
    if family.topdown is not None:
        # The declared bucket rides the default-knob run already in hand:
        # the topdown hierarchy must agree with the bottleneck contract.
        report.outcomes.append(
            TopdownDominant(family.topdown).evaluate(default_result))
    if do_sweep:
        runs = [(k, default_result if k == default_knob else run_one(k))
                for k in sweep_knobs]
        for check in family.contract.sweep_checks:
            report.outcomes.append(check.evaluate(runs))
    return report


def run_families(
    names=None,
    config: Optional[ProcessorConfig] = None,
    **kwargs,
) -> "list[FamilyReport]":
    """Run several families (default: all) and return their reports."""
    if names:
        unknown = [n for n in names if n not in FAMILIES]
        if unknown:
            raise KeyError(
                f"unknown stress families: {', '.join(unknown)} "
                f"(known: {', '.join(FAMILIES)})")
        selected = [FAMILIES[n] for n in names]
    else:
        selected = list(FAMILIES.values())
    return [run_family(f, config=config, **kwargs) for f in selected]


__all__ = [
    "FAMILIES",
    "SMALL_BTB",
    "StressFamily",
    "run_families",
    "run_family",
]

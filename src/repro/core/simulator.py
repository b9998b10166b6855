"""Top-level simulation entry point.

``simulate(program, config, n)`` builds a :class:`Pipeline`, runs it for
``n`` committed instructions, and returns a :class:`SimulationResult`
bundling the core counters with the side structures' statistics -- the
single call every example and benchmark goes through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..isa.instruction import Program
from ..pubs.slice_tracker import SliceTrackerStats
from .config import ProcessorConfig
from .pipeline import Pipeline
from .stats import SimStats


@dataclass
class SimulationResult:
    """Everything one run produced."""

    program_name: str
    config: ProcessorConfig
    stats: SimStats
    tracker_stats: SliceTrackerStats
    predictor_accuracy: float
    btb_hit_rate: float
    mode_switch_disabled_fraction: float
    iq_priority_dispatches: int
    lsq_forwards: int
    select_avg_grants: float
    #: Verification level the run executed under ("off" when unchecked).
    verify_level: str = "off"
    #: Commits cross-checked by the differential oracle (0 when unchecked).
    verified_commits: int = 0
    #: Invariant sweeps performed (verify_level="full" only).
    invariant_sweeps: int = 0

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    @property
    def branch_mpki(self) -> float:
        return self.stats.branch_mpki

    @property
    def llc_mpki(self) -> float:
        return self.stats.llc_mpki

    @property
    def unconfident_branch_rate(self) -> float:
        return self.tracker_stats.unconfident_branch_rate

    def summary(self) -> str:
        return f"{self.program_name} [{self.config.name}]: {self.stats.summary()}"


def result_from_pipeline(pipeline: Pipeline, stats) -> SimulationResult:
    """Assemble a :class:`SimulationResult` from a finished pipeline.

    Shared by :func:`simulate` and the batched replay runner
    (:mod:`repro.batch`), so a batch member's result is assembled by the
    exact code a sequential run uses.
    """
    verifier = pipeline.verifier
    return SimulationResult(
        program_name=pipeline.program.name,
        config=pipeline.config,
        stats=stats,
        tracker_stats=pipeline.slice_tracker.stats,
        predictor_accuracy=pipeline.predictor.stats.accuracy,
        btb_hit_rate=pipeline.btb.hit_rate,
        mode_switch_disabled_fraction=pipeline.mode_switch.stats.disabled_fraction,
        iq_priority_dispatches=pipeline.iq.priority_dispatches,
        lsq_forwards=pipeline.lsq.forwards,
        select_avg_grants=pipeline.select_logic.stats.average_grants_per_cycle,
        verify_level=pipeline.config.verify_level,
        verified_commits=verifier.commits_checked if verifier else 0,
        invariant_sweeps=verifier.invariant_sweeps if verifier else 0,
    )


def simulate(
    program: Program,
    config: Optional[ProcessorConfig] = None,
    max_instructions: int = 10_000,
    skip_instructions: int = 0,
    mem_seed: int = 0,
    max_cycles: Optional[int] = None,
    trace_source=None,
) -> SimulationResult:
    """Run one program on one machine configuration.

    ``trace_source`` optionally injects the :class:`~repro.trace.store.
    TraceStore` the run replays from (tests point it at a temporary
    directory); None uses the shared environment-selected store.
    """
    pipeline = Pipeline(program, config, mem_seed=mem_seed,
                        trace_source=trace_source)
    stats = pipeline.run(max_instructions, skip_instructions, max_cycles)
    return result_from_pipeline(pipeline, stats)

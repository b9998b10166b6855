"""The pipeline-attached verifier: oracle + invariant sweeps.

:class:`PipelineVerifier` is instantiated by :class:`~repro.core.pipeline.
Pipeline` when the machine configuration asks for verification
(``verify_level`` of ``"commit-only"`` or ``"full"``) and is driven by four
hooks on the pipeline:

* the run's seat positions the oracle (:meth:`on_seat`);
* every committing uop goes through the differential oracle
  (:meth:`on_commit`);
* at ``"full"`` level the invariant registry sweeps the whole machine every
  ``verify_interval`` cycles (:meth:`on_cycle`);
* the end of a run triggers the full architectural state diff and -- at
  ``"full"`` level -- one final invariant sweep (:meth:`on_run_end`).

All four are no-ops at the source when ``verify_level`` is ``"off"``: the
pipeline then holds no verifier at all, so the only cost to an unverified
run is a ``None`` check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .invariants import InvariantRegistry, default_registry
from .oracle import CommitOracle

#: Recognized verification levels, least to most thorough.
VERIFY_LEVELS = ("off", "commit-only", "full")


@dataclass
class VerifierReport:
    """What one verified run actually checked (surfaced by ``repro verify``)."""

    level: str
    commits_checked: int
    invariant_sweeps: int
    invariants: tuple
    final_state_checked: bool

    def summary(self) -> str:
        return (f"level={self.level} commits={self.commits_checked} "
                f"sweeps={self.invariant_sweeps} "
                f"invariants={len(self.invariants)} "
                f"state_diff={'yes' if self.final_state_checked else 'no'}")


class PipelineVerifier:
    """Drives the oracle and the invariant registry for one pipeline."""

    def __init__(self, pipeline, level: str, interval: int,
                 mem_seed: int = 0,
                 registry: Optional[InvariantRegistry] = None):
        if level not in VERIFY_LEVELS or level == "off":
            raise ValueError(f"unsupported verification level: {level!r}")
        self.pipeline = pipeline
        self.level = level
        self.interval = max(1, interval)
        self.oracle = CommitOracle(pipeline.program, mem_seed=mem_seed)
        self.registry = registry if registry is not None else default_registry()
        self.invariant_sweeps = 0

    @property
    def commits_checked(self) -> int:
        return self.oracle.commits_checked

    # ------------------------------------------------------------------
    # Pipeline hooks
    # ------------------------------------------------------------------

    def on_seat(self, trace, seat: int) -> None:
        """Seat the oracle at the run's first timed record.

        Restores from the trace's nearest :class:`~repro.trace.format.
        ArchCheckpoint` at or below ``seat`` (the skip checkpoint, for a
        skip) and functionally steps only the residue -- O(checkpoint
        interval) instead of O(seat), which is what makes verified
        sampled runs affordable.  Without any usable checkpoint (seat 0
        included) the oracle steps the whole prefix.
        """
        checkpoint = trace.checkpoint_at(seat)
        if checkpoint is not None:
            self.oracle.restore_checkpoint(checkpoint)
            self.oracle.skip(seat - checkpoint.seq)
        else:
            self.oracle.skip(seat)

    def on_commit(self, uop) -> None:
        self.oracle.check_commit(uop, self.pipeline.cycle)

    def on_cycle(self) -> None:
        if self.level == "full" and self.pipeline.cycle % self.interval == 0:
            self.check_invariants()

    def on_run_end(self) -> None:
        # The trace's end checkpoint is the reference architectural state:
        # it sits at or past every committed record, and functional
        # execution is deterministic.
        self.oracle.finish_against_checkpoint(
            self.pipeline.trace.end_checkpoint,
            cycle=self.pipeline.cycle)
        if self.level == "full":
            self.check_invariants()

    # ------------------------------------------------------------------
    # Direct entry points (tests, debugging)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Run one full invariant sweep right now."""
        self.registry.run(self.pipeline)
        self.invariant_sweeps += 1

    def report(self) -> VerifierReport:
        return VerifierReport(
            level=self.level,
            commits_checked=self.commits_checked,
            invariant_sweeps=self.invariant_sweeps,
            invariants=self.registry.names(),
            final_state_checked=self.oracle.final_state_checked,
        )

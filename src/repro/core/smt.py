"""Lightweight SMT-interference model: a co-runner polluting shared tables.

A second hardware context on an SMT core shares the branch predictor, the
BTB and (for a PUBS machine) the confidence/slice tables with the primary
thread.  The co-runner's branches steal table capacity and corrupt the
global history the perceptron correlates on, so the primary thread's
prediction -- and PUBS's confidence estimate -- degrade even though its own
instruction stream is unchanged (Durbhakula's multithreaded
branch-optimization studies measure exactly this coupling).

This module models only that coupling, not a second timed pipeline: every
``interleave`` commits of the primary thread, :class:`SmtInterference`
resolves a ``burst`` of co-runner conditional branches against the shared
structures -- a predictor lookup + update, a BTB install on taken, and a
confidence-table training event when PUBS is on -- exactly the calls the
pipeline's own warm path makes for a real branch.  Outcomes come from a
private deterministic LCG, so a run with interference is exactly as
reproducible as one without; injection points depend on the commit
stream alone, so they (and therefore all stats) are deterministic.

Co-runner branch PCs sit far above any generated program (programs start
at 0 and span a few hundred KB at most) but alias into the same
predictor/BTB/confidence sets, because all of those index with low PC
bits: distinct tags, shared capacity -- the SMT sharing model.

:class:`SmtConfig` rides inside :class:`~repro.core.config.ProcessorConfig`
and is hashed into exec job keys, so interference sweeps cache and batch
like any other configuration axis.  It deliberately does *not* enter
:func:`~repro.exec.jobs.batch_signature` or the warm-checkpoint key:
injection happens only during the timed phase, so members differing only
in their SMT knobs still share warm state and a batched trace walk.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.instruction import INST_BYTES

#: Base PC of the co-runner's branch sites: far outside any generated
#: program, but low-bit-aliasing into the shared predictor/BTB/conf sets.
CORUNNER_PC_BASE = 1 << 26

#: 64-bit MMIX LCG constants (same family the workload generator uses).
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SmtConfig:
    """Co-runner interference knobs (disabled by default).

    ``interleave`` commits of the primary thread separate consecutive
    co-runner bursts; each burst resolves ``burst`` branches drawn
    round-robin from ``sites`` distinct PCs, taken with probability
    ``2**-bias_bits`` (1 => 50/50, maximally history-corrupting).
    """

    enabled: bool = False
    interleave: int = 64
    burst: int = 4
    sites: int = 64
    bias_bits: int = 1
    seed: int = 0xC0FFEE

    def __post_init__(self) -> None:
        for n in ("interleave", "burst", "sites", "bias_bits"):
            if getattr(self, n) < 1:
                raise ValueError(f"smt {n} must be positive")


class SmtInterference:
    """The co-runner: injects branch resolutions into shared structures."""

    def __init__(self, config: SmtConfig):
        self.config = config
        self._lcg = (config.seed * 2 + 1) & _MASK64
        self._since_burst = 0
        self._site = 0

    def on_commit(self, pipeline) -> None:
        """Called once per committed primary-thread instruction.

        Reads the shared structures off ``pipeline`` at injection time
        (never caches them): batched replay swaps a member's warm
        predictor/BTB/tracker in after construction, and this must always
        pollute the objects the member actually predicts with.
        """
        self._since_burst += 1
        cfg = self.config
        if self._since_burst < cfg.interleave:
            return
        self._since_burst = 0
        predictor = pipeline.predictor
        btb = pipeline.btb
        tracker = pipeline.slice_tracker
        pubs_on = pipeline.config.pubs.enabled
        mask = (1 << cfg.bias_bits) - 1
        lcg = self._lcg
        site = self._site
        stats = pipeline.stats
        for _ in range(cfg.burst):
            lcg = (lcg * _LCG_MULT + _LCG_INC) & _MASK64
            pc = CORUNNER_PC_BASE + site * INST_BYTES
            site += 1
            if site >= cfg.sites:
                site = 0
            taken = ((lcg >> 32) & mask) == 0
            predicted = predictor.predict(pc)
            predictor.update(pc, taken, predicted)
            if taken:
                btb.install(pc, CORUNNER_PC_BASE)
            if pubs_on:
                tracker.on_branch_resolved(pc, correct=predicted == taken)
            stats.smt_injections += 1
        self._lcg = lcg
        self._site = site


__all__ = ["CORUNNER_PC_BASE", "SmtConfig", "SmtInterference"]

"""Simulation statistics.

Everything the evaluation needs: IPC, branch MPKI (classifies D-BP vs E-BP
at the paper's 3.0 threshold), LLC MPKI (compute- vs memory-intensive at
1.0), the decomposed misspeculation penalty, and pipeline utilization
counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Paper's thresholds (Sec. V-A and Fig. 9).
D_BP_BRANCH_MPKI_THRESHOLD = 3.0
MEMORY_INTENSIVE_LLC_MPKI_THRESHOLD = 1.0


@dataclass
class SimStats:
    """Counters accumulated by one timing-simulation run."""

    cycles: int = 0
    committed: int = 0
    fetched: int = 0  #: includes wrong-path fetches
    wrong_path_fetched: int = 0

    # Branch behaviour (committed conditional branches only).
    cond_branches: int = 0
    mispredictions: int = 0
    btb_misses_taken: int = 0

    # Misspeculation penalty (Sec. II-A): fetch -> end of execution of each
    # mispredicted branch, decomposed into front-end, IQ-wait and execute.
    missspec_penalty_cycles: int = 0
    missspec_frontend_cycles: int = 0
    missspec_iq_wait_cycles: int = 0
    missspec_execute_cycles: int = 0

    # Dispatch behaviour.  The aggregate stall counter splits by cause:
    # which full structure blocked the head of the dispatch group.  The
    # causes are disjoint (a priority-partition stall is *not* also an
    # iq-full stall), so they sum to ``dispatch_stall_cycles`` exactly --
    # the topdown-cycle-accounting invariant checks this every sweep.
    dispatch_stall_cycles: int = 0
    rob_full_stall_cycles: int = 0
    iq_full_stall_cycles: int = 0  #: whole IQ full (priority stalls excluded)
    lsq_full_stall_cycles: int = 0
    regs_full_stall_cycles: int = 0  #: no free physical register
    priority_stall_cycles: int = 0  #: stalls caused by a full priority partition
    priority_dispatches: int = 0
    unconfident_dispatches: int = 0

    # Top-down slot accounting (DESIGN.md §15).  Every cycle the dispatch
    # stage accounts exactly ``decode_width`` issue slots into exactly one
    # of these buckets, so their sum equals ``decode_width * cycles`` by
    # construction (checked by the topdown-cycle-accounting invariant).
    td_retire_slots: int = 0  #: correct-path uops dispatched (will retire)
    td_wrongpath_slots: int = 0  #: wrong-path uops dispatched (bad speculation)
    td_recovery_slots: int = 0  #: bubbles from misprediction recovery/refill
    td_fe_fetch_slots: int = 0  #: fetch-redirect / front-end bandwidth bubbles
    td_fe_l1i_slots: int = 0  #: bubbles while an L1I miss blocks fetch
    td_be_rob_slots: int = 0  #: slots lost to a full ROB
    td_be_iq_slots: int = 0  #: slots lost to a full IQ
    td_be_lsq_slots: int = 0  #: slots lost to a full LSQ
    td_be_regs_slots: int = 0  #: slots lost to register-file exhaustion
    td_be_priority_slots: int = 0  #: slots lost to a full priority partition

    # IQ occupancy (sampled every cycle).
    iq_occupancy_sum: int = 0

    # Memory (filled in from the hierarchy at the end of the run).
    llc_misses: int = 0
    l1d_misses: int = 0
    l1i_misses: int = 0

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def branch_mpki(self) -> float:
        if self.committed == 0:
            return 0.0
        return 1000.0 * self.mispredictions / self.committed

    @property
    def llc_mpki(self) -> float:
        if self.committed == 0:
            return 0.0
        return 1000.0 * self.llc_misses / self.committed

    @property
    def l1i_mpki(self) -> float:
        if self.committed == 0:
            return 0.0
        return 1000.0 * self.l1i_misses / self.committed

    @property
    def prediction_accuracy(self) -> float:
        if self.cond_branches == 0:
            return 1.0
        return 1.0 - self.mispredictions / self.cond_branches

    @property
    def avg_missspec_penalty(self) -> float:
        """Average cycles from fetch to execution end per misprediction."""
        if self.mispredictions == 0:
            return 0.0
        return self.missspec_penalty_cycles / self.mispredictions

    @property
    def avg_missspec_iq_wait(self) -> float:
        """The component PUBS attacks: IQ waiting cycles per misprediction."""
        if self.mispredictions == 0:
            return 0.0
        return self.missspec_iq_wait_cycles / self.mispredictions

    @property
    def avg_missspec_frontend(self) -> float:
        """Fetch-to-dispatch cycles per misprediction (Sec. II-A)."""
        if self.mispredictions == 0:
            return 0.0
        return self.missspec_frontend_cycles / self.mispredictions

    @property
    def avg_missspec_execute(self) -> float:
        """Issue-to-completion cycles per misprediction (Sec. II-A)."""
        if self.mispredictions == 0:
            return 0.0
        return self.missspec_execute_cycles / self.mispredictions

    @property
    def avg_iq_occupancy(self) -> float:
        return self.iq_occupancy_sum / self.cycles if self.cycles else 0.0

    @property
    def is_difficult_branch_prediction(self) -> bool:
        """D-BP classification (branch MPKI >= 3.0, Sec. V-A)."""
        return self.branch_mpki >= D_BP_BRANCH_MPKI_THRESHOLD

    @property
    def is_memory_intensive(self) -> bool:
        """Memory-intensity classification (LLC MPKI >= 1.0, Fig. 9)."""
        return self.llc_mpki >= MEMORY_INTENSIVE_LLC_MPKI_THRESHOLD

    def summary(self) -> str:
        """A compact human-readable report.

        The misspeculation penalty shows all three Sec. II-A components
        (front end, IQ wait, execute); they sum to the per-branch total.
        """
        return (
            f"cycles={self.cycles} committed={self.committed} "
            f"IPC={self.ipc:.3f} brMPKI={self.branch_mpki:.2f} "
            f"llcMPKI={self.llc_mpki:.2f} "
            f"missspec/branch={self.avg_missspec_penalty:.1f}cy "
            f"(FE {self.avg_missspec_frontend:.1f} + "
            f"IQ {self.avg_missspec_iq_wait:.1f} + "
            f"EX {self.avg_missspec_execute:.1f})"
        )

"""In-flight micro-op: the unit the pipeline tracks from fetch to commit."""

from __future__ import annotations

from typing import Optional, Tuple

from ..isa.instruction import StaticInst
from ..isa.opcodes import FuClass

#: Sentinel ready-cycle for a value that is not yet scheduled to be ready.
NEVER = 1 << 60


class Uop:
    """One in-flight instruction.

    ``seq`` is a global fetch-order sequence number covering both correct-
    and wrong-path instructions (age == dispatch order == seq order, since
    fetch and dispatch are in order).  ``trace_seq`` indexes the functional
    trace for correct-path uops and is -1 on the wrong path.
    """

    __slots__ = (
        "seq", "inst", "fu", "on_correct_path", "trace_seq",
        "fetch_cycle", "dispatch_cycle", "issue_cycle",
        "completed", "squashed",
        "src_phys", "dest_phys", "prev_phys",
        "decoded", "unconfident", "iq_slot",
        "predicted_next_pc", "actual_taken",
        "actual_next_pc", "mispredicted", "checkpoint",
        "mem_addr", "store_dep", "in_lsq",
        "ready_at", "pending_srcs",
    )

    def __init__(self, seq: int, inst: StaticInst, fetch_cycle: int,
                 on_correct_path: bool, trace_seq: int = -1):
        self.seq = seq
        self.inst = inst
        self.fu: FuClass = inst.fu
        self.on_correct_path = on_correct_path
        self.trace_seq = trace_seq
        self.fetch_cycle = fetch_cycle
        self.dispatch_cycle = -1
        self.issue_cycle = -1
        self.completed = False
        self.squashed = False
        self.src_phys: Tuple[int, ...] = ()
        self.dest_phys = -1
        self.prev_phys = -1
        self.decoded = False
        self.unconfident = False
        self.iq_slot = -1
        self.predicted_next_pc = -1
        self.actual_taken = False
        self.actual_next_pc = -1
        self.mispredicted = False
        self.checkpoint: Optional[tuple] = None
        self.mem_addr: Optional[int] = None
        self.store_dep: Optional["Uop"] = None
        self.in_lsq = False
        #: Earliest cycle every renamed source is ready (the wakeup-computed
        #: schedule); NEVER while some producer has not issued yet.
        self.ready_at = NEVER
        #: Number of sources still awaiting a producer's issue.
        self.pending_srcs = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        path = "C" if self.on_correct_path else "W"
        return (
            f"Uop(seq={self.seq}, {self.inst.opcode.name}@{self.inst.pc:#x}, "
            f"{path}, fetch={self.fetch_cycle}, issue={self.issue_cycle})"
        )

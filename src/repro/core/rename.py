"""Register renaming: map table, physical register files, checkpoints.

Physical registers live in one flat space: integer physical registers first
(``[0, int_phys)``), floating-point after (``[int_phys, int_phys+fp_phys)``).
The first 32 of each class back the initial architectural mapping; the rest
start on the free lists.  Each physical register carries a *ready cycle*
(the cycle its value becomes usable by a consumer issuing that cycle);
``NEVER`` marks an in-flight producer.

Conditional branches checkpoint the whole map (64 entries); recovery
restores the checkpoint and returns squashed uops' destination registers to
the free lists, the scheme used by checkpoint-recovery processors.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from ..isa.registers import FP_BASE, NUM_LOGICAL_REGS
from .uop import NEVER, Uop


class RenameError(Exception):
    """Internal invariant violation in the rename machinery."""


class Renamer:
    """Map table + free lists + physical ready state."""

    def __init__(self, int_phys: int, fp_phys: int):
        if int_phys < 32 or fp_phys < 32:
            raise ValueError(
                "need at least 32 physical registers per class to back the "
                "architectural state"
            )
        self.int_phys = int_phys
        self.fp_phys = fp_phys
        self.num_phys = int_phys + fp_phys
        self._fp_base = int_phys
        # Architectural mapping: int logical r -> phys r; fp logical f ->
        # phys int_phys + f.
        self.map: List[int] = [
            r if r < FP_BASE else self._fp_base + (r - FP_BASE)
            for r in range(NUM_LOGICAL_REGS)
        ]
        self.ready_cycle: List[int] = [0] * self.num_phys
        self._free_int: Deque[int] = deque(range(32, int_phys))
        self._free_fp: Deque[int] = deque(range(self._fp_base + 32, self.num_phys))
        #: The free list each logical register renames from, indexed by
        #: logical register (dispatch checks capacity through it).
        self.free_lists: List[Deque[int]] = [
            self._free_fp if r >= FP_BASE else self._free_int
            for r in range(NUM_LOGICAL_REGS)
        ]

    # ------------------------------------------------------------------
    # Rename / checkpoint / recovery / commit
    # ------------------------------------------------------------------

    def rename(self, uop: Uop) -> None:
        """Rename ``uop`` in program order (caller checked capacity)."""
        inst = uop.inst
        mapping = self.map
        srcs = inst.srcs  # at most two
        if len(srcs) == 2:
            uop.src_phys = (mapping[srcs[0]], mapping[srcs[1]])
        elif srcs:
            uop.src_phys = (mapping[srcs[0]],)
        dest = inst.dest
        if dest is None:
            return
        free = self.free_lists[dest]
        if not free:
            raise RenameError("rename called without a free physical register")
        phys = free.popleft()
        uop.prev_phys = mapping[dest]
        uop.dest_phys = phys
        mapping[dest] = phys
        self.ready_cycle[phys] = NEVER

    def checkpoint(self) -> Tuple[int, ...]:
        """Snapshot of the map table (taken at each conditional branch)."""
        return tuple(self.map)

    def restore(self, checkpoint: Tuple[int, ...]) -> None:
        self.map = list(checkpoint)

    def release_squashed(self, uop: Uop) -> None:
        """Return a squashed uop's destination register to its free list."""
        phys = uop.dest_phys
        if phys < 0:
            return
        if phys < self._fp_base:
            self._free_int.append(phys)
        else:
            self._free_fp.append(phys)
        uop.dest_phys = -1

    def release_committed(self, uop: Uop) -> None:
        """At commit, the previous mapping of the destination dies."""
        phys = uop.prev_phys
        if phys < 0:
            return
        if phys < self._fp_base:
            self._free_int.append(phys)
        else:
            self._free_fp.append(phys)
        uop.prev_phys = -1

"""Select logic: position-based arbitration with per-FU structural limits.

The select logic grants at most ``issue_width`` requests per cycle out of
the ready instructions, honouring the function-unit mix (Table I: 2 iALU,
1 iMULT/DIV, 2 Ld/St, 2 FPU).  Priority is fixed by entry position -- the
property PUBS exploits by parking unconfident-slice instructions in the
lowest-numbered entries.  An optional age matrix (Sec. V-G1) pre-grants the
single oldest ready instruction before the position-based pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..isa.opcodes import FuClass
from .age_matrix import AgeMatrix


@dataclass(frozen=True)
class FuPool:
    """Per-class function-unit counts (the per-cycle issue constraint)."""

    ialu: int = 2
    imult: int = 1
    ldst: int = 2
    fpu: int = 2

    def as_dict(self) -> Dict[FuClass, int]:
        return {
            FuClass.IALU: self.ialu,
            FuClass.IMULT: self.imult,
            FuClass.LDST: self.ldst,
            FuClass.FPU: self.fpu,
        }

    def scaled(self, factor: float) -> "FuPool":
        """A pool with every class scaled (>=1 each); for Table IV models."""
        return FuPool(
            ialu=max(1, round(self.ialu * factor)),
            imult=max(1, round(self.imult * factor)),
            ldst=max(1, round(self.ldst * factor)),
            fpu=max(1, round(self.fpu * factor)),
        )


@dataclass
class SelectStats:
    cycles: int = 0
    grants: int = 0
    requests: int = 0
    conflict_denials: int = 0  #: ready requests denied by width/FU limits
    age_grants: int = 0  #: grants that came from the age matrix

    @property
    def average_grants_per_cycle(self) -> float:
        return self.grants / self.cycles if self.cycles else 0.0


class SelectLogic:
    """Position-priority arbiter, optionally augmented with an age matrix."""

    __slots__ = ("issue_width", "fu_pool", "age_matrix", "stats",
                 "_fu_counts")

    def __init__(self, issue_width: int, fu_pool: FuPool,
                 age_matrix: Optional[AgeMatrix] = None):
        if issue_width < 1:
            raise ValueError("issue width must be positive")
        self.issue_width = issue_width
        self.fu_pool = fu_pool
        self.age_matrix = age_matrix
        self.stats = SelectStats()
        # FuClass is an IntEnum starting at 0, so per-class availability
        # lives in a plain list indexed by ``uop.fu``.
        self._fu_counts = [fu_pool.ialu, fu_pool.imult,
                           fu_pool.ldst, fu_pool.fpu]

    def select(self, requests: Sequence[Tuple[int, object]]) -> List[Tuple[int, object]]:
        """Grant up to ``issue_width`` of the ready requests.

        ``requests`` are (slot, uop) pairs in ascending slot order; each uop
        exposes ``fu`` (its :class:`FuClass`).  Returns the granted pairs.
        The age matrix, when present, grants the single oldest request first
        (highest priority), then the position-based pass fills the rest --
        the arrangement of Fig. 14(b).
        """
        stats = self.stats
        stats.cycles += 1
        stats.requests += len(requests)
        if not requests:
            return []
        avail = self._fu_counts.copy()
        granted: List[Tuple[int, object]] = []
        width = self.issue_width

        if self.age_matrix is None:
            # Common case: a single priority-ordered pass; no pre-grant
            # means no duplicate to track, and grants keep slot order.
            for slot, uop in requests:
                fu = uop.fu
                if avail[fu] > 0:
                    avail[fu] = avail[fu] - 1
                    granted.append((slot, uop))
                    if len(granted) >= width:
                        break
        else:
            granted_slots = set()
            oldest_slot = self.age_matrix.oldest([slot for slot, _ in requests])
            if oldest_slot is not None:
                for slot, uop in requests:
                    if slot == oldest_slot:
                        if avail[uop.fu] > 0:
                            avail[uop.fu] -= 1
                            granted.append((slot, uop))
                            granted_slots.add(slot)
                            stats.age_grants += 1
                        break
            for slot, uop in requests:
                if len(granted) >= width:
                    break
                if slot in granted_slots:
                    continue
                if avail[uop.fu] > 0:
                    avail[uop.fu] -= 1
                    granted.append((slot, uop))
                    granted_slots.add(slot)
            granted.sort(key=lambda pair: pair[0])

        stats.grants += len(granted)
        stats.conflict_denials += len(requests) - len(granted)
        return granted

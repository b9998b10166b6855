"""Distributed issue queue (Sec. III-C2).

AMD Zen distributes the IQ among integer function units: each unit owns a
small dedicated queue, simplifying the select logic (per-queue, narrow) at
the cost of capacity efficiency -- a full per-unit queue stalls dispatch
even while other queues have room.  The paper notes PUBS carries over:
"each IQ is partitioned into priority and normal entries".

:class:`DistributedIssueQueue` models one queue per function-unit class,
sized proportionally to the class's unit count, each a random queue with
its own priority partition.  :class:`DistributedSelectLogic` arbitrates
per-queue with position priority (grants per class bounded by the class's
unit count, total bounded by the machine's issue width).

Entry handles are ``(fu_class_value, slot)`` pairs, opaque to the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..isa.opcodes import FuClass
from .queue import IssueQueue
from .select import FuPool, SelectStats

Handle = Tuple[int, int]


class DistributedIssueQueue:
    """One random queue per FU class, each with a PUBS partition."""

    def __init__(self, total_size: int, fu_pool: FuPool,
                 priority_entries: int = 0, seed: int = 0):
        if total_size < 4 * len(FuClass):
            raise ValueError("distributed IQ needs at least 4 entries/class")
        counts = fu_pool.as_dict()
        total_units = sum(counts.values())
        self.queues: Dict[FuClass, IssueQueue] = {}
        remaining = total_size
        classes = list(FuClass)
        for i, fu in enumerate(classes):
            if i == len(classes) - 1:
                size = remaining
            else:
                size = max(4, round(total_size * counts[fu] / total_units))
                size = min(size, remaining - 4 * (len(classes) - 1 - i))
            remaining -= size
            # Each queue gets a full-size priority partition (capped to a
            # third of the queue): unconfident slices are not spread evenly
            # across classes -- integer slices would starve on a partition
            # sized by the class's share of function units.
            per_queue_priority = 0
            if priority_entries:
                per_queue_priority = min(priority_entries, size // 3)
                per_queue_priority = max(1, min(per_queue_priority, size - 1))
            self.queues[fu] = IssueQueue(size, per_queue_priority,
                                         seed=seed + fu.value)
        self.priority_entries = priority_entries

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        return sum(q.size for q in self.queues.values())

    @property
    def occupancy(self) -> int:
        return sum(q.occupancy for q in self.queues.values())

    @property
    def dispatches(self) -> int:
        return sum(q.dispatches for q in self.queues.values())

    @property
    def priority_dispatches(self) -> int:
        return sum(q.priority_dispatches for q in self.queues.values())

    # ------------------------------------------------------------------
    # Dispatch / release -- same protocol as IssueQueue, composite handles
    # ------------------------------------------------------------------

    def dispatch(self, uop, priority: bool) -> Optional[Handle]:
        """Dispatch into the queue owning ``uop.fu``; None if it is full
        (a per-queue structural stall: the capacity-efficiency cost)."""
        queue = self.queues[uop.fu]
        slot = queue.dispatch(uop, priority)
        if slot is None:
            return None
        return (uop.fu.value, slot)

    def dispatch_uniform(self, uop) -> Optional[Handle]:
        queue = self.queues[uop.fu]
        slot = queue.dispatch_uniform(uop)
        if slot is None:
            return None
        return (uop.fu.value, slot)

    def release(self, handle: Handle) -> None:
        fu_value, slot = handle
        self.queues[FuClass(fu_value)].release(slot)

    def flush(self, keep) -> None:
        for queue in self.queues.values():
            queue.flush(keep)

    def occupied(self) -> Iterator[Tuple[Handle, object]]:
        """All entries, per class then per slot (each queue's own position
        order is what its select logic sees)."""
        for fu, queue in self.queues.items():
            for slot, uop in queue.occupied():
                yield (fu.value, slot), uop


@dataclass
class DistributedSelectLogic:
    """Per-queue position-priority select for the distributed IQ.

    Within each class queue the lowest slots win (so the PUBS priority
    partition keeps its meaning); grants per class are bounded by the
    class's unit count and the total by the machine's issue width.
    """

    issue_width: int
    fu_pool: FuPool

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise ValueError("issue width must be positive")
        self.stats = SelectStats()
        # List indexed by FuClass (an IntEnum starting at 0).
        self._fu_counts = [self.fu_pool.ialu, self.fu_pool.imult,
                           self.fu_pool.ldst, self.fu_pool.fpu]

    def select(self, requests: Sequence[Tuple[Handle, object]]
               ) -> List[Tuple[Handle, object]]:
        self.stats.cycles += 1
        self.stats.requests += len(requests)
        if not requests:
            return []
        avail = self._fu_counts.copy()
        granted: List[Tuple[Handle, object]] = []
        # Requests arrive grouped by class and slot-ordered (occupied()'s
        # order); a stable pass therefore implements per-queue position
        # priority directly.
        for handle, uop in sorted(requests, key=lambda r: r[0]):
            if len(granted) >= self.issue_width:
                break
            if avail[uop.fu] > 0:
                avail[uop.fu] -= 1
                granted.append((handle, uop))
        self.stats.grants += len(granted)
        self.stats.conflict_denials += len(requests) - len(granted)
        return granted

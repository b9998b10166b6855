"""The other two IQ organizations of Sec. III-B1: shifting and circular.

The paper's taxonomy:

* **shifting queue** (DEC Alpha 21264): instructions stay physically
  age-ordered from head to tail; issued entries leave "holes" that a
  compaction circuit closes while preserving order.  Position-based select
  priority then *is* age priority, so IPC is the best of the three -- but
  the compaction circuit sits on the IQ critical path, which is why the
  organization died with small IQs.
* **circular queue**: a circular buffer, age-ordered but never compacted.
  Holes linger (capacity inefficiency) and the wrap-around point *reverses*
  the position-priority order for the wrapped suffix, both costing IPC.
* **random queue** (modern processors; :class:`~repro.iq.queue.IssueQueue`):
  dispatch into any hole; position priority is uncorrelated with age.

These organizations exist in the reproduction so the paper's Sec. III-B1
claims can be measured (``benchmarks/bench_ablation_iq_orgs.py``): shifting
beats random in IPC, and the circular queue suffers from holes and
wrap-around.  They expose the same protocol as :class:`IssueQueue`
(``dispatch`` / ``release`` / ``flush`` / ``occupied``), and every entry
handle ``dispatch`` returns is stable until its ``release``: ascending
handle order is each queue's select-priority order, which is what the
pipeline's ready set sorts its requests by.  Neither supports a PUBS
partition (the paper applies PUBS to the random queue only).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple


class ShiftingQueue:
    """Age-compacting IQ: physical position == age rank, always.

    An entry's handle is the queue's dispatch count when it entered.
    Entries join at the tail and the compaction circuit keeps the rest in
    order when one leaves, so an entry's physical position is its
    handle's rank among the live handles: ascending handle order *is*
    position order, and a handle never needs rewriting.
    """

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("IQ size must be positive")
        self.size = size
        self.priority_entries = 0
        self._entries: Dict[int, object] = {}  # handle -> uop, oldest first
        self.dispatches = 0
        self.priority_dispatches = 0

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def is_full(self) -> bool:
        return len(self._entries) >= self.size

    def dispatch(self, uop: object, priority: bool = False) -> Optional[int]:
        """Append at the tail (youngest); returns the entry's handle."""
        if self.is_full():
            return None
        handle = self.dispatches
        self._entries[handle] = uop
        self.dispatches += 1
        return handle

    def dispatch_uniform(self, uop: object) -> Optional[int]:
        return self.dispatch(uop)

    def release(self, handle: int) -> None:
        """Remove an entry; younger entries compact down in age order."""
        if self._entries.pop(handle, None) is None:
            raise ValueError(f"releasing an empty IQ entry: {handle}")

    def flush(self, keep) -> None:
        self._entries = {handle: uop for handle, uop in self._entries.items()
                         if keep(uop)}

    def occupied(self) -> Iterator[Tuple[int, object]]:
        """(handle, uop) oldest-first == highest-priority-first."""
        return iter(self._entries.items())


class CircularQueue:
    """Circular-buffer IQ: age-ordered modulo wrap-around, holes linger.

    Entries allocate at a tail pointer and are only *reclaimed* at the head
    pointer: an issued entry in the middle leaves a hole that stays
    unusable until everything older has issued too (the capacity
    inefficiency the paper describes).  Select priority is physical
    position, so the wrapped portion of the queue -- physically below the
    head -- is mis-prioritized (the "reversed issue priority" problem).
    An entry's handle is its physical slot: entries never move.
    """

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("IQ size must be positive")
        self.size = size
        self.priority_entries = 0
        self._slots: List[Optional[object]] = [None] * size
        self._head = 0  # oldest possibly-live slot
        self._tail = 0  # next slot to allocate
        self._live = 0  # slots between head and tail (incl. holes)
        self.dispatches = 0
        self.priority_dispatches = 0
        #: Valid instructions (holes excluded), kept by dispatch, release
        #: and flush: the pipeline samples it every cycle.
        self.occupancy = 0

    @property
    def reserved(self) -> int:
        """Slots consumed, holes included -- what limits dispatch."""
        return self._live

    def is_full(self) -> bool:
        return self._live >= self.size

    def dispatch(self, uop: object, priority: bool = False) -> Optional[int]:
        if self.is_full():
            return None
        slot = self._tail
        self._slots[slot] = uop
        self._tail = (self._tail + 1) % self.size
        self._live += 1
        self.occupancy += 1
        self.dispatches += 1
        return slot

    def dispatch_uniform(self, uop: object) -> Optional[int]:
        return self.dispatch(uop)

    def release(self, slot: int) -> None:
        """Issue the entry at ``slot``: it becomes a hole; space is
        reclaimed only when the head pointer sweeps past it."""
        if self._slots[slot] is None:
            raise ValueError(f"releasing an empty IQ slot: {slot}")
        self._slots[slot] = None
        self.occupancy -= 1
        self._reclaim()

    def _reclaim(self) -> None:
        while self._live and self._slots[self._head] is None:
            self._head = (self._head + 1) % self.size
            self._live -= 1

    def flush(self, keep) -> None:
        for slot, uop in enumerate(self._slots):
            if uop is not None and not keep(uop):
                self._slots[slot] = None
                self.occupancy -= 1
        self._reclaim()

    def occupied(self) -> Iterator[Tuple[int, object]]:
        """(physical slot, uop) in ascending *physical* order -- which is
        what a position-based select sees, wrap-around reversal included."""
        for slot, uop in enumerate(self._slots):
            if uop is not None:
                yield slot, uop

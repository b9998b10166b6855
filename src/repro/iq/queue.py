"""The issue queue: a random queue with an optional priority partition.

Sec. III-B1: modern IQs are *random queues* -- instructions dispatch into
whatever entries are free ("holes"), and the select logic's priority is
fixed by entry position (closer to the head = higher priority).  PUBS
(Sec. III-B2) reserves the first ``priority_entries`` positions for
instructions in unconfident branch slices by splitting the free list in two.

When the mode switch disables PUBS, dispatch draws from the two free lists
with a random choice weighted by the entry ratio (Sec. III-B3), so the
reserved capacity is fully usable and "there is no penalty for mode
switching".

The queue stores opaque micro-op objects owned by the pipeline; entry
position is the integer slot index, which is also the select priority.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterator, List, Optional, Tuple


class IssueQueue:
    """Random-queue IQ with split priority/normal free lists."""

    __slots__ = (
        "size", "priority_entries", "_slots", "_free_priority",
        "_free_normal", "_release_tick", "_tick", "_rng",
        "dispatches", "priority_dispatches", "occupancy",
    )

    def __init__(self, size: int, priority_entries: int = 0, seed: int = 0):
        if size < 1:
            raise ValueError("IQ size must be positive")
        if not 0 <= priority_entries <= size:
            raise ValueError("priority_entries must be within the IQ size")
        self.size = size
        self.priority_entries = priority_entries
        self._slots: List[Optional[object]] = [None] * size
        # Free slots recycle FIFO, which over time randomizes the mapping
        # from age to position -- the "random queue" behaviour.
        self._free_priority = deque(range(priority_entries))
        self._free_normal = deque(range(priority_entries, size))
        # Monotonic release order, so mode-switch-disabled dispatch can keep
        # the exact FIFO hole-reuse discipline of an unpartitioned queue.
        self._release_tick: List[int] = list(range(size))
        self._tick = size
        self._rng = random.Random(seed)
        self.dispatches = 0
        self.priority_dispatches = 0
        #: Occupied entries, kept by dispatch and release: the pipeline
        #: samples it every cycle.
        self.occupancy = 0

    # ------------------------------------------------------------------
    # Capacity queries
    # ------------------------------------------------------------------

    @property
    def free_priority_count(self) -> int:
        return len(self._free_priority)

    @property
    def free_normal_count(self) -> int:
        return len(self._free_normal)

    # ------------------------------------------------------------------
    # Dispatch / release
    # ------------------------------------------------------------------

    def dispatch(self, uop: object, priority: bool) -> Optional[int]:
        """Write ``uop`` into a free entry of the requested partition.

        Returns the slot index, or None if that partition is full (the
        caller implements the stall or non-stall policy).
        """
        free = self._free_priority if priority else self._free_normal
        if not free:
            return None
        slot = free.popleft()
        self._slots[slot] = uop
        self.dispatches += 1
        self.occupancy += 1
        if priority:
            self.priority_dispatches += 1
        return slot

    def dispatch_uniform(self, uop: object) -> Optional[int]:
        """Mode-switch-disabled dispatch: both free lists used uniformly.

        Sec. III-B3 selects between the two free lists with a random number
        weighted by the entry ratio, so that a disabled-PUBS queue behaves
        like the unpartitioned random queue.  Our unpartitioned base queue
        recycles holes FIFO, so "behaves like the base" here means merging
        the two lists in release order (oldest hole first), which makes the
        disabled mode *exactly* the base queue and keeps the paper's "no
        penalty for mode switching" property.  (A hardware implementation
        would use the weighted random pick; for a truly random queue the
        two disciplines are statistically identical.)
        """
        fp, fn = self._free_priority, self._free_normal
        if fp and fn:
            ticks = self._release_tick
            free = fp if ticks[fp[0]] < ticks[fn[0]] else fn
        else:
            free = fp if fp else fn
        if not free:
            return None
        slot = free.popleft()
        self._slots[slot] = uop
        self.dispatches += 1
        self.occupancy += 1
        return slot

    def release(self, slot: int) -> None:
        """Free an entry (at issue)."""
        if self._slots[slot] is None:
            raise ValueError(f"releasing an empty IQ slot: {slot}")
        self._slots[slot] = None
        self.occupancy -= 1
        self._release_tick[slot] = self._tick
        self._tick += 1
        if slot < self.priority_entries:
            self._free_priority.append(slot)
        else:
            self._free_normal.append(slot)

    def flush(self, keep) -> None:
        """Squash entries whose uop fails the ``keep`` predicate."""
        for slot, uop in enumerate(self._slots):
            if uop is not None and not keep(uop):
                self.release(slot)

    # ------------------------------------------------------------------
    # Select-side view
    # ------------------------------------------------------------------

    def occupied(self) -> Iterator[Tuple[int, object]]:
        """(slot, uop) pairs in ascending slot order == descending priority."""
        for slot, uop in enumerate(self._slots):
            if uop is not None:
                yield slot, uop

"""Load/store queue with oracle disambiguation and store-to-load forwarding.

Memory uops occupy an LSQ entry from dispatch to commit.  Correct-path
addresses come from the functional oracle at dispatch time, giving *perfect
memory disambiguation*: a load that overlaps an older in-flight store (same
8-byte word) takes a dependence on that store and, once the store has
issued, forwards its data at L1-hit latency without accessing the cache.
Wrong-path memory uops carry no meaningful address and never forward.

This idealization is deliberate and documented in DESIGN.md: the paper's
mechanism concerns issue priority, not disambiguation aggressiveness, and
SimpleScalar's default configuration is similarly ideal.
"""

from __future__ import annotations

from typing import List, Optional

from .uop import Uop

#: Byte shift to the 8-byte word a forwarding check compares on.
_WORD_SHIFT = 3


class LoadStoreQueue:
    """Bounded in-order list of in-flight memory uops."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("LSQ size must be positive")
        self.size = size
        self._entries: List[Uop] = []
        self.forwards = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def is_full(self) -> bool:
        return len(self._entries) >= self.size

    @property
    def free_entries(self) -> int:
        return self.size - len(self._entries)

    def insert(self, uop: Uop) -> None:
        """Dispatch-time entry allocation (in fetch order)."""
        entries = self._entries
        if len(entries) >= self.size:
            raise OverflowError("LSQ overflow")
        if entries and uop.seq <= entries[-1].seq:
            raise ValueError("LSQ entries must arrive in fetch order")
        if uop.inst.is_load and uop.on_correct_path and uop.mem_addr is not None:
            dep = self._youngest_older_store(uop)
            if dep is not None:
                uop.store_dep = dep
                self.forwards += 1
        entries.append(uop)
        uop.in_lsq = True

    def _youngest_older_store(self, load: Uop) -> Optional[Uop]:
        word = load.mem_addr >> _WORD_SHIFT
        for uop in reversed(self._entries):
            if (
                uop.inst.is_store
                and uop.on_correct_path
                and uop.mem_addr is not None
                and uop.mem_addr >> _WORD_SHIFT == word
            ):
                return uop
        return None

    def remove_committed(self, uop: Uop) -> None:
        """Commit-time deallocation (always the oldest entry)."""
        if not self._entries or self._entries[0] is not uop:
            raise ValueError("LSQ commit must release the oldest entry")
        self._entries.pop(0)
        uop.in_lsq = False

    def squash_younger(self, seq: int) -> List[Uop]:
        """Drop all entries younger than ``seq``; returns them."""
        keep = []
        dropped = []
        for uop in self._entries:
            if uop.seq > seq:
                uop.in_lsq = False
                dropped.append(uop)
            else:
                keep.append(uop)
        self._entries = keep
        return dropped

"""Reorder buffer: in-order dispatch append, in-order commit, tail squash."""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from .uop import Uop


class ReorderBuffer:
    """A bounded FIFO of in-flight uops in fetch order."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("ROB size must be positive")
        self.size = size
        self._entries: Deque[Uop] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def append(self, uop: Uop) -> None:
        entries = self._entries
        if len(entries) >= self.size:
            raise OverflowError("ROB overflow")
        if entries and uop.seq <= entries[-1].seq:
            raise ValueError("ROB entries must arrive in fetch order")
        entries.append(uop)

    def head(self) -> Optional[Uop]:
        return self._entries[0] if self._entries else None

    def pop_head(self) -> Uop:
        return self._entries.popleft()

    def squash_younger(self, seq: int):
        """Remove and return all uops with sequence number greater than
        ``seq`` (youngest first removal, returned oldest-first)."""
        squashed = []
        while self._entries and self._entries[-1].seq > seq:
            squashed.append(self._entries.pop())
        squashed.reverse()
        return squashed

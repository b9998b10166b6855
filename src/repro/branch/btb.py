"""Branch target buffer.

Table I specifies a 2K-set 4-way BTB.  The BTB caches the taken-path target
of branches; a predicted-taken branch that misses in the BTB cannot redirect
fetch and is treated as not-taken by the front end (the usual SimpleScalar
behaviour), which resolves as a misprediction if the branch was taken.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


class BranchTargetBuffer:
    """Set-associative, true-LRU branch target buffer."""

    def __init__(self, num_sets: int = 2048, assoc: int = 4):
        if num_sets < 1 or num_sets & (num_sets - 1):
            raise ValueError("num_sets must be a power of two")
        if assoc < 1:
            raise ValueError("assoc must be positive")
        self.num_sets = num_sets
        self.assoc = assoc
        # Each set is an MRU-ordered list of (tag, target) pairs.
        self._sets: List[List[Tuple[int, int]]] = [[] for _ in range(num_sets)]
        self.lookups = 0
        self.hits = 0
        self._derive()

    def _derive(self) -> None:
        self._set_mask = self.num_sets - 1
        self._tag_shift = self.num_sets.bit_length() - 1

    def __setstate__(self, state: dict) -> None:
        # Warm checkpoints pickled by older versions lack the derived
        # mask and shift.
        self.__dict__.update(state)
        self._derive()

    def lookup(self, pc: int) -> Optional[int]:
        """The cached taken-target of ``pc``, or None on a BTB miss."""
        self.lookups += 1
        word = pc >> 2
        ways = self._sets[word & self._set_mask]
        tag = word >> self._tag_shift
        for way in ways:
            if way[0] == tag:
                if way is not ways[0]:  # tags are unique within a set
                    ways.remove(way)
                    ways.insert(0, way)
                self.hits += 1
                return way[1]
        return None

    def install(self, pc: int, target: int) -> None:
        """Record (or refresh) the taken-target of ``pc``."""
        word = pc >> 2
        ways = self._sets[word & self._set_mask]
        tag = word >> self._tag_shift
        if ways and ways[0][0] == tag:
            ways[0] = (tag, target)  # already MRU
            return
        for way in ways:
            if way[0] == tag:
                ways.remove(way)
                break
        ways.insert(0, (tag, target))
        if len(ways) > self.assoc:
            ways.pop()

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 1.0

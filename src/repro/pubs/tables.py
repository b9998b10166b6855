"""The three PUBS tables: ``def_tab``, ``brslice_tab`` and ``conf_tab``.

Organization follows Sec. III-A and the cost-reduced implementation of
Sec. IV:

* ``def_tab`` -- full-size (one row per logical register, 64 rows).  Row
  ``r`` holds the *pointer* ``p_B = i_B || t_B`` derived from the PC of the
  most recent instruction that writes ``r``; i.e. where that instruction's
  ``brslice_tab`` entry would live.
* ``brslice_tab`` -- set-associative.  The entry for instruction PC ``p``
  holds ``p``'s own hashed tag ``t_B`` plus a pointer ``p_C = i_C || t_C``
  to the ``conf_tab`` entry of the branch whose slice ``p`` belongs to.
* ``conf_tab`` -- set-associative.  The entry for branch PC ``b`` holds
  ``b``'s hashed tag ``t_C`` and a saturating *resetting* confidence
  counter.

All tags are XOR-folded (S=8 for ``brslice_tab``, S=4 for ``conf_tab`` by
default), so both tables can alias -- an instruction may be spuriously
considered part of a slice, or a branch may read another branch's
confidence.  That is the hardware the paper costs at 4.0 KB, and the tables
reproduce it bit-for-bit, including LRU replacement within a set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..branch.confidence import ResettingConfidenceCounter
from ..isa.registers import NUM_LOGICAL_REGS
from .hashing import hashed_tag, split_pc, xor_fold

#: Instruction-word width assumed by the cost analysis (64-bit PC minus the
#: two alignment bits, as in the paper's "55 = 62 - 7" example).
PC_WORD_WIDTH = 62


@dataclass(frozen=True)
class Pointer:
    """A cost-reduced table pointer ``index || hashed_tag``."""

    index: int
    tag: int


class PointerCodec:
    """Derives (index, hashed tag) pointers from PCs for one table geometry.

    Pointer computation is memoized per PC: the synthetic programs have at
    most a few thousand static instructions, and the fold would otherwise be
    recomputed at every decode.
    """

    def __init__(self, num_sets: int, fold_width: int, word_width: int = PC_WORD_WIDTH):
        if num_sets < 1 or num_sets & (num_sets - 1):
            raise ValueError("num_sets must be a power of two")
        self.num_sets = num_sets
        self.index_bits = num_sets.bit_length() - 1
        self.fold_width = fold_width
        self.word_width = word_width
        self._cache: Dict[int, Pointer] = {}

    def pointer(self, pc: int) -> Pointer:
        ptr = self._cache.get(pc)
        if ptr is None:
            index, tag = split_pc(pc, self.index_bits, self.word_width)
            ptr = Pointer(index, xor_fold(tag, self.fold_width))
            self._cache[pc] = ptr
        return ptr

    @property
    def pointer_bits(self) -> int:
        """Width of one stored pointer: index bits plus hashed-tag bits."""
        return self.index_bits + self.fold_width


class DefTab:
    """Full-size last-writer table: logical register -> brslice pointer.

    Sec. III-A2: "The index of the def tab is the logical destination
    register number of a decoding instruction, and each entry has the PC of
    the instruction" -- in the cost-reduced form the stored datum is the
    pointer ``p_B`` generated from that PC.
    """

    def __init__(self, num_regs: int = NUM_LOGICAL_REGS):
        self.num_regs = num_regs
        self._entries: List[Optional[Pointer]] = [None] * num_regs

    def record_writer(self, reg: int, pointer: Pointer) -> None:
        self._entries[reg] = pointer

    def writer_of(self, reg: int) -> Optional[Pointer]:
        return self._entries[reg]

    def clear(self) -> None:
        self._entries = [None] * self.num_regs


class BrsliceTab:
    """Set-associative branch-slice table: instruction PC -> conf pointer."""

    def __init__(self, num_sets: int = 256, assoc: int = 4, fold_width: int = 8,
                 word_width: int = PC_WORD_WIDTH):
        if assoc < 1:
            raise ValueError("assoc must be positive")
        self.codec = PointerCodec(num_sets, fold_width, word_width)
        self.assoc = assoc
        # Each set: MRU-first list of (hashed_tag, conf_pointer).
        self._sets: List[List[Tuple[int, Pointer]]] = [[] for _ in range(num_sets)]
        self.lookups = 0
        self.hits = 0

    def lookup(self, pc: int) -> Optional[Pointer]:
        """The conf_tab pointer linked to instruction ``pc`` (None on miss)."""
        self.lookups += 1
        ptr = self.codec.pointer(pc)
        ways = self._sets[ptr.index]
        for i, (tag, conf_ptr) in enumerate(ways):
            if tag == ptr.tag:
                if i:
                    ways.insert(0, ways.pop(i))
                self.hits += 1
                return conf_ptr
        return None

    def link(self, slot: Pointer, conf_pointer: Pointer) -> None:
        """Write ``conf_pointer`` into the entry addressed by ``slot``.

        ``slot`` is a ``def_tab`` pointer (the producer instruction's
        ``p_B``): writes go through pointers, not PCs, exactly as the
        hardware would address the table.
        """
        ways = self._sets[slot.index]
        for i, (tag, _) in enumerate(ways):
            if tag == slot.tag:
                ways.pop(i)
                break
        ways.insert(0, (slot.tag, conf_pointer))
        if len(ways) > self.assoc:
            ways.pop()

    def clear(self) -> None:
        for ways in self._sets:
            ways.clear()


class ConfTab:
    """Set-associative confidence table: branch PC -> resetting counter."""

    def __init__(self, num_sets: int = 256, assoc: int = 4, fold_width: int = 4,
                 counter_bits: int = 6, word_width: int = PC_WORD_WIDTH):
        if assoc < 1:
            raise ValueError("assoc must be positive")
        if counter_bits < 1:
            raise ValueError("counter width must be at least 1 bit")
        self.codec = PointerCodec(num_sets, fold_width, word_width)
        self.assoc = assoc
        self.counter_bits = counter_bits
        # Each set: MRU-first list of (hashed_tag, counter).
        self._sets: List[List[Tuple[int, ResettingConfidenceCounter]]] = [
            [] for _ in range(num_sets)
        ]

    def _find(self, index: int, tag: int) -> Optional[ResettingConfidenceCounter]:
        ways = self._sets[index]
        for i, (t, counter) in enumerate(ways):
            if t == tag:
                if i:
                    ways.insert(0, ways.pop(i))
                return counter
        return None

    def counter_for_pc(self, pc: int) -> Optional[ResettingConfidenceCounter]:
        """The counter allocated to branch ``pc`` (None if unallocated)."""
        ptr = self.codec.pointer(pc)
        return self._find(ptr.index, ptr.tag)

    def counter_for_pointer(self, pointer: Pointer) -> Optional[ResettingConfidenceCounter]:
        """Dereference a stored ``p_C`` pointer (brslice_tab lookups)."""
        return self._find(pointer.index, pointer.tag)

    def is_confident_pc(self, pc: int) -> bool:
        """Sec. III-A3 step 1: unallocated or saturated => confident."""
        counter = self.counter_for_pc(pc)
        return counter is None or counter.confident

    def is_confident_pointer(self, pointer: Pointer) -> bool:
        """Sec. III-A3 step 2: follow a brslice pointer to its counter."""
        counter = self.counter_for_pointer(pointer)
        return counter is None or counter.confident

    def train(self, pc: int, correct: bool) -> None:
        """Resolution-time update with allocation policy of Sec. III-A1.

        A hit trains the counter (+1 saturating on correct, reset on
        wrong) and makes it MRU; a miss allocates one at the maximum
        after a correct prediction, at zero after a wrong one.
        """
        ptr = self.codec.pointer(pc)
        ways = self._sets[ptr.index]
        tag = ptr.tag
        maximum = (1 << self.counter_bits) - 1
        for way in ways:
            if way[0] == tag:
                if way is not ways[0]:  # tags are unique within a set
                    ways.remove(way)
                    ways.insert(0, way)
                counter = way[1]
                if not correct:
                    counter.value = 0
                elif counter.value < maximum:
                    counter.value += 1
                return
        ways.insert(0, (tag, ResettingConfidenceCounter(
            self.counter_bits, maximum if correct else 0)))
        if len(ways) > self.assoc:
            ways.pop()

    def pointer(self, pc: int) -> Pointer:
        """The ``p_C`` pointer for branch ``pc`` (what brslice entries store)."""
        return self.codec.pointer(pc)

    def clear(self) -> None:
        for ways in self._sets:
            ways.clear()
